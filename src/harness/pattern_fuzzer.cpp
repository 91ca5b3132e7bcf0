#include "harness/pattern_fuzzer.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "common/rng.hpp"

namespace vppstudy::harness {

namespace {

using common::Xoshiro256;

constexpr std::uint64_t kFuzzDomain = 0x70667a7aULL;  // "pfzz"
constexpr std::uint64_t kActsPerRef = 171;  // mirrors pattern_spec validate()

std::string hex_tag(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string s(8, '0');
  for (int i = 7; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return s;
}

std::uint32_t clamp_u32(std::uint64_t v, std::uint32_t lo, std::uint32_t hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return static_cast<std::uint32_t>(v);
}

/// Rank-biased parent index in [0, n): min of two uniform draws, so rank 0
/// (best score) is picked most often but every rank stays reachable.
std::size_t biased_rank(Xoshiro256& rng, std::size_t n) {
  return static_cast<std::size_t>(
      std::min(rng.bounded(n), rng.bounded(n)));
}

}  // namespace

PatternSpec repair_pattern_spec(PatternSpec spec, const FuzzerLimits& limits) {
  const std::uint32_t max_slots =
      std::min(limits.max_slots, PatternSpec::kMaxSlots);
  const std::int32_t max_offset =
      std::min(limits.max_offset, PatternSpec::kMaxOffset);
  spec.slots_per_period = clamp_u32(spec.slots_per_period, 8, max_slots);
  if (!(spec.act_to_act_ns >= 0.0)) spec.act_to_act_ns = 0.0;
  if (spec.act_to_act_ns > 10000.0) spec.act_to_act_ns = 10000.0;

  if (spec.aggressors.empty()) spec.aggressors.push_back({-1, 0, 1, 1});
  if (spec.aggressors.size() > limits.max_aggressors) {
    spec.aggressors.resize(limits.max_aggressors);
  }

  std::vector<AggressorSpec> kept;
  std::unordered_set<std::int32_t> used;
  for (AggressorSpec a : spec.aggressors) {
    if (a.offset > max_offset) a.offset = max_offset;
    if (a.offset < -max_offset) a.offset = -max_offset;
    if (a.offset == 0) a.offset = -1;
    // Deduplicate offsets by probing outward from the requested one; drop
    // the aggressor if every slot in range is taken.
    std::int32_t chosen = 0;
    for (std::int32_t d = 0; d <= 2 * max_offset && chosen == 0; ++d) {
      for (std::int32_t sign : {+1, -1}) {
        const std::int32_t cand = a.offset + sign * d;
        if (cand == 0 || cand < -max_offset || cand > max_offset) continue;
        if (!used.contains(cand)) {
          chosen = cand;
          break;
        }
      }
    }
    if (chosen == 0) continue;
    a.offset = chosen;
    used.insert(chosen);
    a.phase %= spec.slots_per_period;
    a.frequency = clamp_u32(a.frequency, 1, spec.slots_per_period);
    a.amplitude = clamp_u32(
        a.amplitude, 1,
        std::min(limits.max_amplitude, PatternSpec::kMaxAmplitude));
    kept.push_back(a);
  }
  spec.aggressors = std::move(kept);

  // The REF-fairness floor must be satisfiable (refs <= slots), so shrink
  // amplitudes, then frequencies, until one REF per 171 ACTs fits the grid.
  while (spec.acts_per_period() >
         static_cast<std::uint64_t>(spec.slots_per_period) * kActsPerRef) {
    bool shrunk = false;
    for (AggressorSpec& a : spec.aggressors) {
      if (a.amplitude > 1) {
        a.amplitude /= 2;
        shrunk = true;
      }
    }
    if (!shrunk) {
      for (AggressorSpec& a : spec.aggressors) {
        if (a.frequency > 1) a.frequency /= 2;
      }
    }
  }
  const std::uint64_t min_refs =
      (spec.acts_per_period() + kActsPerRef - 1) / kActsPerRef;
  spec.refs_per_period =
      clamp_u32(std::max<std::uint64_t>(spec.refs_per_period, min_refs), 1,
                spec.slots_per_period);

  assert(spec.validate().ok());
  return spec;
}

PatternSpec random_pattern_spec(std::uint64_t seed,
                                const FuzzerLimits& limits) {
  Xoshiro256 rng(common::hash_key({kFuzzDomain, 1, seed}));
  PatternSpec spec;
  spec.slots_per_period =
      8 + static_cast<std::uint32_t>(rng.bounded(limits.max_slots));
  spec.refs_per_period = 1 + static_cast<std::uint32_t>(rng.bounded(4));
  const std::uint64_t n = 1 + rng.bounded(limits.max_aggressors);
  for (std::uint64_t i = 0; i < n; ++i) {
    AggressorSpec a;
    const std::int32_t mag =
        1 + static_cast<std::int32_t>(rng.bounded(
                static_cast<std::uint64_t>(limits.max_offset)));
    a.offset = rng.bounded(2) == 0 ? -mag : mag;
    a.phase = static_cast<std::uint32_t>(rng.bounded(spec.slots_per_period));
    // Frequencies log-distributed: low-frequency decoys and high-frequency
    // hammers are both one draw away.
    const std::uint32_t freq_cap =
        1u << rng.bounded(9);  // 1..256, clamped by repair
    a.frequency = 1 + static_cast<std::uint32_t>(rng.bounded(freq_cap));
    a.amplitude =
        1 + static_cast<std::uint32_t>(rng.bounded(limits.max_amplitude));
    spec.aggressors.push_back(a);
  }
  spec = repair_pattern_spec(std::move(spec), limits);
  spec.name = "fuzz-" + hex_tag(spec.spec_hash());
  return spec;
}

PatternSpec mutate_pattern_spec(const PatternSpec& parent, std::uint64_t seed,
                                const FuzzerLimits& limits) {
  Xoshiro256 rng(common::hash_key({kFuzzDomain, 2, seed, parent.spec_hash()}));
  PatternSpec spec = parent;
  const std::uint64_t mutations = 1 + rng.bounded(3);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    switch (rng.bounded(6)) {
      case 0:  // rescale the slot grid
        spec.slots_per_period = static_cast<std::uint32_t>(
            rng.bounded(2) == 0 ? spec.slots_per_period * 2
                                : spec.slots_per_period / 2);
        break;
      case 1:  // add an aggressor
        spec.aggressors.push_back(
            {static_cast<std::int32_t>(1 + rng.bounded(static_cast<std::uint64_t>(
                 limits.max_offset))) *
                 (rng.bounded(2) == 0 ? -1 : 1),
             static_cast<std::uint32_t>(rng.bounded(
                 std::max<std::uint32_t>(1, spec.slots_per_period))),
             1 + static_cast<std::uint32_t>(rng.bounded(16)),
             1 + static_cast<std::uint32_t>(rng.bounded(limits.max_amplitude))});
        break;
      case 2:  // drop an aggressor
        if (spec.aggressors.size() > 1) {
          spec.aggressors.erase(spec.aggressors.begin() +
                                static_cast<std::ptrdiff_t>(
                                    rng.bounded(spec.aggressors.size())));
        }
        break;
      default: {  // perturb one field of one aggressor
        AggressorSpec& a =
            spec.aggressors[rng.bounded(spec.aggressors.size())];
        switch (rng.bounded(4)) {
          case 0:
            a.offset += rng.bounded(2) == 0 ? -1 : 1;
            break;
          case 1:
            a.phase += static_cast<std::uint32_t>(1 + rng.bounded(8));
            break;
          case 2:
            a.frequency = static_cast<std::uint32_t>(
                rng.bounded(2) == 0 ? a.frequency * 2
                                    : std::max(1u, a.frequency / 2));
            break;
          default:
            a.amplitude = static_cast<std::uint32_t>(
                rng.bounded(2) == 0 ? a.amplitude * 2
                                    : std::max(1u, a.amplitude / 2));
            break;
        }
        break;
      }
    }
  }
  spec = repair_pattern_spec(std::move(spec), limits);
  spec.name = "fuzz-" + hex_tag(spec.spec_hash());
  return spec;
}

PatternSpec crossover_pattern_specs(const PatternSpec& a, const PatternSpec& b,
                                    std::uint64_t seed,
                                    const FuzzerLimits& limits) {
  Xoshiro256 rng(
      common::hash_key({kFuzzDomain, 3, seed, a.spec_hash(), b.spec_hash()}));
  PatternSpec spec;
  const PatternSpec& geometry = rng.bounded(2) == 0 ? a : b;
  spec.slots_per_period = geometry.slots_per_period;
  spec.refs_per_period = geometry.refs_per_period;
  spec.act_to_act_ns = geometry.act_to_act_ns;
  const std::size_t n = std::max(a.aggressors.size(), b.aggressors.size());
  for (std::size_t i = 0; i < n; ++i) {
    const PatternSpec& pick = rng.bounded(2) == 0 ? a : b;
    const PatternSpec& other = &pick == &a ? b : a;
    if (i < pick.aggressors.size()) {
      spec.aggressors.push_back(pick.aggressors[i]);
    } else if (i < other.aggressors.size() && rng.bounded(2) == 0) {
      spec.aggressors.push_back(other.aggressors[i]);
    }
  }
  spec = repair_pattern_spec(std::move(spec), limits);
  spec.name = "fuzz-" + hex_tag(spec.spec_hash());
  return spec;
}

std::vector<PatternSpec> initial_population(std::uint64_t seed,
                                            const FuzzerConfig& config) {
  std::vector<PatternSpec> population;
  std::unordered_set<std::uint64_t> hashes;
  PatternSpec reference = uniform_double_sided_spec();
  hashes.insert(reference.spec_hash());
  population.push_back(std::move(reference));
  for (const PatternSpec& seed_spec : config.seeds) {
    if (population.size() >= config.population) break;
    if (!seed_spec.validate().ok()) continue;
    if (hashes.insert(seed_spec.spec_hash()).second) {
      population.push_back(seed_spec);
    }
  }
  for (std::uint64_t i = 0; population.size() < config.population; ++i) {
    PatternSpec spec = random_pattern_spec(
        common::hash_key({kFuzzDomain, 4, seed, i}), config.limits);
    if (hashes.insert(spec.spec_hash()).second) {
      population.push_back(std::move(spec));
    }
  }
  return population;
}

bool ranks_before(const ScoredSpec& a, const ScoredSpec& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.spec.spec_hash() < b.spec.spec_hash();
}

std::vector<PatternSpec> evolve_population(std::span<const ScoredSpec> scored,
                                           std::uint64_t seed,
                                           std::uint32_t generation,
                                           const FuzzerConfig& config) {
  if (scored.empty()) return initial_population(seed, config);

  std::vector<const ScoredSpec*> ranked;
  ranked.reserve(scored.size());
  for (const ScoredSpec& s : scored) ranked.push_back(&s);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto* x, const auto* y) { return ranks_before(*x, *y); });

  std::vector<PatternSpec> next;
  std::unordered_set<std::uint64_t> hashes;
  const std::size_t elites =
      std::min<std::size_t>(config.elites, ranked.size());
  for (std::size_t i = 0; i < elites && next.size() < config.population; ++i) {
    if (hashes.insert(ranked[i]->spec.spec_hash()).second) {
      next.push_back(ranked[i]->spec);
    }
  }

  Xoshiro256 rng(common::hash_key({kFuzzDomain, 5, seed, generation}));
  for (std::uint64_t attempt = 0;
       next.size() < config.population && attempt < 64 * config.population;
       ++attempt) {
    const std::uint64_t child_seed =
        common::hash_key({kFuzzDomain, 6, seed, generation, attempt});
    PatternSpec child;
    const std::uint64_t op = rng.bounded(10);
    if (op < 6) {
      child = mutate_pattern_spec(ranked[biased_rank(rng, ranked.size())]->spec,
                                  child_seed, config.limits);
    } else if (op < 9 && ranked.size() >= 2) {
      const std::size_t pa = biased_rank(rng, ranked.size());
      std::size_t pb = biased_rank(rng, ranked.size());
      if (pb == pa) pb = (pb + 1) % ranked.size();
      child = crossover_pattern_specs(ranked[pa]->spec, ranked[pb]->spec,
                                      child_seed, config.limits);
    } else {
      child = random_pattern_spec(child_seed, config.limits);
    }
    if (hashes.insert(child.spec_hash()).second) {
      next.push_back(std::move(child));
    }
  }
  return next;
}

}  // namespace vppstudy::harness
