// Deterministic seed-driven fuzzer over non-uniform attack-pattern specs.
//
// The fuzzer is a set of PURE FUNCTIONS: every generated spec is a function
// of (seed, generation, index) and every evolved population is a function of
// (scored parent population, seed, generation). No global RNG state, no
// wall-clock -- two runs with the same seed produce bit-identical
// populations, which is what lets fuzz campaigns checkpoint/resume and replay
// in CI (the pattern-fuzz gauntlet re-derives every generation from its seed
// and asserts equality).
//
// Execution and scoring live elsewhere: core/fuzz_campaign routes each
// generation through core::CampaignEngine (pattern x VPP x temperature grid,
// manifests, result cache) and feeds the per-point scores back into
// evolve_population. The fuzzer itself never touches a Session.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "harness/pattern_spec.hpp"

namespace vppstudy::harness {

/// Generation-time bounds, tighter than PatternSpec's validation limits so
/// fuzzed programs stay cheap to simulate. Mutation/crossover clamp into
/// these; hand-written corpus specs may exceed them (validation is the only
/// hard limit).
struct FuzzerLimits {
  std::uint32_t max_slots = 256;
  std::uint32_t max_aggressors = 12;
  std::uint32_t max_amplitude = 64;
  std::int32_t max_offset = 8;
};

struct FuzzerConfig {
  /// Specs per (module, VPP) population.
  std::uint32_t population = 8;
  /// Top-scoring specs copied unchanged into the next generation.
  std::uint32_t elites = 2;
  FuzzerLimits limits;
  /// Corpus seeds injected into generation 0 right after the uniform
  /// reference (invalid specs skipped, duplicates deduped by spec_hash).
  /// Seeds enter unclamped -- validation is the only hard limit -- so a
  /// hand-written corpus pattern joins the gene pool exactly as written.
  std::vector<PatternSpec> seeds;
};

/// Clamp/repair an arbitrary spec into a valid one: non-zero deduped offsets,
/// in-range phases/frequencies/amplitudes, the REF-fairness floor on
/// refs_per_period. Deterministic (no randomness); the post-condition is
/// `result.validate().ok()`. Generation and mutation funnel through this so
/// they can perturb fields freely.
[[nodiscard]] PatternSpec repair_pattern_spec(PatternSpec spec,
                                              const FuzzerLimits& limits);

/// A fresh random spec, a pure function of `seed`.
[[nodiscard]] PatternSpec random_pattern_spec(std::uint64_t seed,
                                              const FuzzerLimits& limits);

/// Point mutation of one parent: perturbs 1-3 scheduling fields, may add or
/// drop an aggressor. Pure function of (parent, seed).
[[nodiscard]] PatternSpec mutate_pattern_spec(const PatternSpec& parent,
                                              std::uint64_t seed,
                                              const FuzzerLimits& limits);

/// Uniform crossover of two parents: period geometry from one, each
/// aggressor slot drawn from either. Pure function of (a, b, seed).
[[nodiscard]] PatternSpec crossover_pattern_specs(const PatternSpec& a,
                                                  const PatternSpec& b,
                                                  std::uint64_t seed,
                                                  const FuzzerLimits& limits);

/// Generation 0: the uniform double-sided reference spec, then the config's
/// corpus seeds, then random specs up to config.population, deduplicated by
/// spec_hash.
[[nodiscard]] std::vector<PatternSpec> initial_population(
    std::uint64_t seed, const FuzzerConfig& config);

/// A population member with its measured fitness (post-TRR flip count at the
/// population's (module, VPP) point).
struct ScoredSpec {
  PatternSpec spec;
  double score = 0.0;
};

/// The canonical rank order: score descending, then spec_hash ascending (a
/// deterministic tie-break; at low VPP often nothing flips).
[[nodiscard]] bool ranks_before(const ScoredSpec& a, const ScoredSpec& b);

/// One evolution step: rank by (score, spec_hash) descending, keep the
/// elites, refill with mutations and crossovers of rank-biased parents, and
/// dedup by spec_hash (duplicates are replaced by fresh random specs so the
/// population never collapses). Pure function of (scored, seed, generation).
[[nodiscard]] std::vector<PatternSpec> evolve_population(
    std::span<const ScoredSpec> scored, std::uint64_t seed,
    std::uint32_t generation, const FuzzerConfig& config);

}  // namespace vppstudy::harness
