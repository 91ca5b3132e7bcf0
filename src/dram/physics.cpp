#include "dram/physics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"

namespace vppstudy::dram {

using common::hash_key;
using common::inverse_normal_cdf;
using common::normal_cdf;
using common::to_unit_double;

namespace {

// Parameter-id tags mixed into every hash to keep draws independent.
enum class Tag : std::uint64_t {
  kRowStrength = 0x10,
  kRowSensitivity = 0x11,
  kRowPenaltySelect = 0x12,
  kRowPenaltyWeight = 0x13,
  kRowAlphaJitter = 0x14,
  kRowTrcdOffset = 0x15,
  kRowRetMu = 0x16,
  kPattern = 0x17,
  kPatternVpp = 0x18,
  kWeakRowSelect = 0x19,
  kWeakCellBase = 0x1a,
  kWeakCellBit = 0x1b,
  kWeakCellTime = 0x1c,
  kRowTempSens = 0x1d,
};

// Access-transistor constants shared with circuit::DramCellSimParams'
// defaults; tests cross-check the two implementations.
constexpr double kVt0 = 0.45;
constexpr double kGamma = 0.58;
constexpr double kPhi = 0.8;
constexpr double kVdd = 1.2;

/// Sense threshold of a charged cell as a fraction of full charge: the point
/// below which the sense amplifier reads the wrong value.
constexpr double kChargeThreshold = 0.5;

constexpr double kBerAnchorHammerCount = 300e3;  // section 4.2

/// Number of pattern-vulnerable (chargeable) cells per row: with random
/// true-/anti-cell layout, half the row stores its value as "charged".
constexpr double kVulnerableCellsPerRow = kBitsPerRow / 2.0;

double clamp_alpha(double a) noexcept { return std::clamp(a, 1.2, 6.0); }

/// ln(N * BER) / ln(300K / HCfirst): the flip-probability exponent implied by
/// a (HCfirst, BER@300K) anchor pair (see DESIGN.md section 5). Degenerate
/// anchors (very strong chips like A5 whose BER stays below one flip per row
/// at 300K) clamp to the steep end.
double implied_alpha(double hc_first, double ber) noexcept {
  const double num = std::log(std::max(ber, 1e-12) * kBitsPerRow);
  const double den = std::log(kBerAnchorHammerCount / hc_first);
  if (den <= 1e-9 || num <= 0.0) return 6.0;
  return clamp_alpha(num / den);
}

/// No cell in a row flips below this fraction of the row's weakest-cell
/// threshold: real cells have a hard physical disturbance floor, which is
/// what pins the module-minimum HCfirst at Table 3's value instead of
/// letting an unbounded power-law tail erode it across thousands of rows.
constexpr double kRowFlipFloor = 0.97;

/// Fold of the fixed (seed, bank, row) leading words of every per-cell hash
/// key; the batched walk kernels vary only the trailing (bit, tag) words.
std::uint64_t cell_hash_prefix(std::uint64_t seed, std::uint32_t bank,
                               std::uint32_t row) noexcept {
  std::uint64_t h = common::hash_accumulate(common::kHashInit, seed);
  h = common::hash_accumulate(h, bank);
  return common::hash_accumulate(h, row);
}

}  // namespace

const VendorCurve& vendor_curve(Manufacturer mfr) noexcept {
  // Calibrated against the per-vendor normalized ranges of Figs. 4 and 6,
  // the per-vendor increase fractions of Obsv. 3/6, and Fig. 10b.
  static const VendorCurve kCurveA{
      /*shape_gamma=*/1.15, /*s_jitter_sigma=*/0.105,
      /*inversion_fraction=*/0.30, /*inversion_scale=*/0.05,
      /*alpha_jitter_sigma=*/0.06, /*row_strength_sigma=*/0.40,
      /*trcd_row_sigma_ns=*/0.25, /*trcd_cell_sigma_ns=*/0.12,
      /*ret_sigma_log=*/1.0, /*ret_vpp_kappa=*/0.50, /*ret_mu_jitter=*/0.25,
      /*pattern_spread=*/0.10};
  static const VendorCurve kCurveB{
      /*shape_gamma=*/1.30, /*s_jitter_sigma=*/0.125,
      /*inversion_fraction=*/0.25, /*inversion_scale=*/0.06,
      /*alpha_jitter_sigma=*/0.07, /*row_strength_sigma=*/0.45,
      /*trcd_row_sigma_ns=*/0.28, /*trcd_cell_sigma_ns=*/0.12,
      /*ret_sigma_log=*/1.0, /*ret_vpp_kappa=*/0.43, /*ret_mu_jitter=*/0.25,
      /*pattern_spread=*/0.12};
  static const VendorCurve kCurveC{
      /*shape_gamma=*/1.10, /*s_jitter_sigma=*/0.065,
      /*inversion_fraction=*/0.12, /*inversion_scale=*/0.05,
      /*alpha_jitter_sigma=*/0.05, /*row_strength_sigma=*/0.35,
      /*trcd_row_sigma_ns=*/0.22, /*trcd_cell_sigma_ns=*/0.10,
      /*ret_sigma_log=*/1.0, /*ret_vpp_kappa=*/0.35, /*ret_mu_jitter=*/0.30,
      /*pattern_spread=*/0.09};
  switch (mfr) {
    case Manufacturer::kMfrA: return kCurveA;
    case Manufacturer::kMfrB: return kCurveB;
    case Manufacturer::kMfrC: return kCurveC;
  }
  return kCurveA;
}

double analytic_restored_voltage(double vpp_v) noexcept {
  double v = kVdd;
  for (int i = 0; i < 64; ++i) {
    const double vsb = std::max(v, 0.0);
    const double vth = kVt0 + kGamma * (std::sqrt(kPhi + vsb) - std::sqrt(kPhi));
    const double next = std::min(kVdd, vpp_v - vth);
    if (std::abs(next - v) < 1e-9) return std::max(next, 0.0);
    v = next;
  }
  return std::max(v, 0.0);
}

double restore_deficit(double vpp_v) noexcept {
  return std::max(0.0, 1.0 - analytic_restored_voltage(vpp_v) / kVdd);
}

CellPhysics::CellPhysics(const ModuleProfile& profile)
    : CellPhysics(profile, vendor_curve(profile.mfr)) {}

CellPhysics::CellPhysics(const ModuleProfile& profile,
                         const VendorCurve& curve)
    : profile_(profile), curve_(curve) {
  alpha_nom_mod_ = implied_alpha(profile.hc_first_nominal, profile.ber_nominal);
  alpha_min_mod_ = implied_alpha(profile.hc_first_vppmin, profile.ber_vppmin);
  log_m_mod_ = std::log(profile.hc_first_vppmin / profile.hc_first_nominal);
  // The per-row *mean* sensitivity is not the module-minimum ratio: even
  // modules whose minimum HCfirst drops at VPPmin (an outlier row) show
  // mostly improving rows (Fig. 6). Keep the mean mildly positive and let
  // the penalty tail reach down to the anchored minimum.
  mu_mod_ = std::max(log_m_mod_, 0.4 * log_m_mod_ + 0.02);
  gap_mod_ = mu_mod_ - log_m_mod_;
}

double CellPhysics::sensitivity_shape(double vpp_v) const noexcept {
  const double span = common::kNominalVppV - profile_.vppmin_v;
  if (span <= 1e-9) return 0.0;
  const double x =
      std::clamp((common::kNominalVppV - vpp_v) / span, 0.0, 1.5);
  return std::pow(x, curve_.shape_gamma);
}

CellPhysics::RowParams CellPhysics::row_params(std::uint32_t bank,
                                               std::uint32_t phys_row) const {
  RowParams rp;
  const std::uint64_t s = profile_.seed;
  const auto tag = [&](Tag t) {
    return hash_key({s, bank, phys_row, static_cast<std::uint64_t>(t)});
  };

  // Row strength: weakest rows sit at the module anchor, the rest above it.
  const double z_strength =
      std::abs(inverse_normal_cdf(to_unit_double(tag(Tag::kRowStrength))));
  const double rf = 1.0 + curve_.row_strength_sigma * z_strength;
  rp.hc_first = profile_.hc_first_nominal * rf;

  const double z_alpha =
      inverse_normal_cdf(to_unit_double(tag(Tag::kRowAlphaJitter)));
  rp.alpha_nom =
      clamp_alpha(alpha_nom_mod_ * (1.0 + curve_.alpha_jitter_sigma * z_alpha));

  // Per-row sensitivity jitter. The population is asymmetric (Figs. 4/6):
  // rows improve by up to ~50-90% but worsen by at most ~10%, so the
  // negative side of the distribution is compressed.
  {
    const double z =
        inverse_normal_cdf(to_unit_double(tag(Tag::kRowSensitivity)));
    rp.s = curve_.s_jitter_sigma * (z >= 0.0 ? z : 0.55 * z);
  }

  // A minority of rows carries a restoration-penalty weight (raw |z|, scaled
  // in hammer_multiplier): those are the rows whose RowHammer vulnerability
  // *worsens* at low VPP (Obsv. 2/5).
  if (to_unit_double(tag(Tag::kRowPenaltySelect)) < curve_.inversion_fraction) {
    rp.penalty_w = std::abs(
        inverse_normal_cdf(to_unit_double(tag(Tag::kRowPenaltyWeight))));
  }

  rp.trcd_offset_ns =
      curve_.trcd_row_sigma_ns *
      inverse_normal_cdf(to_unit_double(tag(Tag::kRowTrcdOffset)));

  rp.ret_mu = profile_.ret_mu_log_s +
              curve_.ret_mu_jitter *
                  inverse_normal_cdf(to_unit_double(tag(Tag::kRowRetMu)));

  rp.temp_sens =
      0.15 * inverse_normal_cdf(to_unit_double(tag(Tag::kRowTempSens)));
  return rp;
}

double CellPhysics::temperature_multiplier(const RowParams& rp,
                                           double temp_c) const noexcept {
  // Row-dependent direction and magnitude, pinned to 1 at the 50C setpoint;
  // the +/-15% per 40C scale follows the spreads reported by [12].
  const double x = (temp_c - 50.0) / 40.0;
  return std::max(0.3, 1.0 + rp.temp_sens * x);
}

double CellPhysics::hammer_multiplier(const RowParams& rp,
                                      double vpp_v) const noexcept {
  const double shape = sensitivity_shape(vpp_v);
  const double deficit_norm = restore_deficit(vpp_v) / 0.31;
  // Table 3 anchors the *module minimum* HCfirst ratio, which sits below the
  // per-row mean: among the handful of weakest rows, the smallest jitter and
  // the strongest restoration penalty dominate the minimum. mu_mod_ carries
  // the mean, bias_sigma compensates the min-statistics of the jitter, and
  // penalty rows reach down through gap_mod_ to the anchored minimum.
  const double bias_sigma = 0.1 * curve_.s_jitter_sigma;
  const double penalty =
      rp.penalty_w *
      (0.8 * gap_mod_ * shape + curve_.inversion_scale * deficit_norm);
  const double log_m = (mu_mod_ + bias_sigma + rp.s) * shape - penalty;
  return std::max(0.05, std::exp(log_m));
}

double CellPhysics::alpha_at(const RowParams& rp,
                             double vpp_v) const noexcept {
  const double shape = std::min(sensitivity_shape(vpp_v), 1.0);
  return clamp_alpha(rp.alpha_nom + (alpha_min_mod_ - alpha_nom_mod_) * shape);
}

double CellPhysics::pattern_factor(std::uint32_t bank, std::uint32_t row,
                                   std::uint8_t signature,
                                   int vpp_bucket) const {
  const std::uint64_t s = profile_.seed;
  const double base = to_unit_double(hash_key(
      {s, bank, row, signature, static_cast<std::uint64_t>(Tag::kPattern)}));
  // Small VPP-dependent wobble: the WCDP flips for a few percent of rows
  // across VPP levels (footnote 9 of the paper).
  const double wobble = to_unit_double(hash_key(
      {s, bank, row, signature, static_cast<std::uint64_t>(vpp_bucket),
       static_cast<std::uint64_t>(Tag::kPatternVpp)}));
  return 1.0 + curve_.pattern_spread * base + 0.002 * wobble;
}

double CellPhysics::pattern_retention_factor(std::uint32_t bank,
                                             std::uint32_t row,
                                             std::uint8_t signature) const {
  const double u = to_unit_double(
      hash_key({profile_.seed, bank, row, signature, 0x52455450ULL}));
  return 1.0 + 0.25 * u;
}

double CellPhysics::hammer_flip_probability(const RowParams& rp, double hc,
                                            double vpp_v,
                                            double pattern_factor,
                                            double restore_q,
                                            double temp_c) const noexcept {
  if (hc <= 0.0) return 0.0;
  // A partially restored row starts closer to the flip threshold: scale the
  // effective hammer count up by the missing charge fraction.
  const double hc_eff = hc / std::clamp(restore_q, 0.05, 1.0);
  const double hc_first_row = rp.hc_first * hammer_multiplier(rp, vpp_v) *
                              pattern_factor *
                              temperature_multiplier(rp, temp_c);
  // Hard floor: below the weakest cell's threshold nothing flips.
  if (hc_eff < kRowFlipFloor * hc_first_row) return 0.0;
  // Above it the flipped-cell population grows as (HC/HCfirst)^alpha, i.e.
  // exactly one expected flip at HCfirst.
  const double p = std::pow(hc_eff / hc_first_row, alpha_at(rp, vpp_v)) /
                   kVulnerableCellsPerRow;
  return std::clamp(p, 0.0, 1.0);
}

double CellPhysics::retention_flip_probability(const RowParams& rp,
                                               double dt_s, double vpp_v,
                                               double temp_c,
                                               double restore_q) const noexcept {
  if (dt_s <= 0.0) return 0.0;
  // Hotter chips leak faster: effective elapsed time doubles every 10C
  // (classic DRAM retention scaling; the study tests retention at 80C).
  const double dt_eff = dt_s * std::exp2((temp_c - 80.0) / 10.0);
  // Initial charge after restoration at this VPP, scaled by any tRAS
  // violation (restore_q).
  const double q0 = std::clamp(
      restore_q * analytic_restored_voltage(vpp_v) / kVdd, 0.0, 1.0);
  if (q0 <= kChargeThreshold) return 1.0;
  // Exponential decay q(t) = q0 * exp(-t/tau): the flip time scales with
  // ln(q0/qth), so a charge deficit multiplies retention time by
  // rfac = ln(q0/qth)/ln(1/qth) < 1 (raised to a vendor-specific kappa).
  const double rfac =
      std::log(q0 / kChargeThreshold) / std::log(1.0 / kChargeThreshold);
  const double mu_eff =
      rp.ret_mu + curve_.ret_vpp_kappa * std::log(std::max(rfac, 1e-6));
  const double z = (std::log(dt_eff) - mu_eff) / curve_.ret_sigma_log;
  return normal_cdf(z);
}

double CellPhysics::trcd_row_mean_ns(const RowParams& rp,
                                     double vpp_v) const noexcept {
  return profile_.trcd0_ns + profile_.trcd_vpp_slope_ns * sensitivity_shape(vpp_v) +
         rp.trcd_offset_ns;
}

double CellPhysics::trcd_fail_probability(const RowParams& rp, double trcd_ns,
                                          double vpp_v) const noexcept {
  // The row's tRCDmin marks the slowest cell; cells spread below it with
  // sigma trcd_cell_sigma_ns. Offset by ~4 sigma so that at trcd == row
  // tRCDmin only a handful of cells (the slowest tail) are marginal.
  const double row_min = trcd_row_mean_ns(rp, vpp_v);
  const double z =
      (row_min - trcd_ns) / curve_.trcd_cell_sigma_ns - 4.0;
  return normal_cdf(z);
}

double CellPhysics::restore_fraction(double open_ns,
                                     double vpp_v) const noexcept {
  // Full restoration needs longer at reduced VPP (weaker channel, Obsv. 11).
  // `restore_fraction` is the fraction of the *achievable* (VPP-limited)
  // level reached: restoring toward a lower saturation level does not take
  // proportionally longer, so the penalty is capped -- a nominal-tRAS cycle
  // must stay (barely) above the sensing threshold even at the lowest
  // VPPmin of the tested population (1.4V), or the device could not have
  // been characterized there at all.
  const double deficit = std::min(restore_deficit(vpp_v), 0.20);
  const double needed_ns = 28.0 + 24.0 * deficit / 0.31;
  if (open_ns >= needed_ns) return 1.0;
  return std::clamp(0.55 + 0.45 * open_ns / needed_ns, 0.55, 1.0);
}

double CellPhysics::cell_uniform(std::uint32_t bank, std::uint32_t row,
                                 std::uint32_t bit, CellDraw what) const {
  return to_unit_double(hash_key(
      {profile_.seed, bank, row, bit, static_cast<std::uint64_t>(what)}));
}

void CellPhysics::cell_uniform_masks(std::uint32_t bank, std::uint32_t row,
                                     std::uint32_t word0, std::uint32_t words,
                                     CellDraw what, double threshold,
                                     std::uint64_t* out) const {
  const std::optional<std::uint64_t> min_hash =
      common::min_hash_above(threshold);
  if (!min_hash.has_value()) {
    std::fill_n(out, words, std::uint64_t{0});
    return;
  }
  common::simd::hash_mask_walk(cell_hash_prefix(profile_.seed, bank, row),
                               static_cast<std::uint64_t>(what),
                               std::uint64_t{word0} * 64, words, *min_hash,
                               out);
}

bool CellPhysics::charged_value(std::uint32_t bank, std::uint32_t row,
                                std::uint32_t bit) const {
  return (hash_key({profile_.seed, bank, row, bit,
                    static_cast<std::uint64_t>(CellDraw::kPolarity)}) &
          1u) != 0;
}

std::uint64_t CellPhysics::row_hash_prefix(std::uint32_t bank,
                                           std::uint32_t row) const noexcept {
  return cell_hash_prefix(profile_.seed, bank, row);
}

std::uint64_t CellPhysics::charged_bits(std::uint64_t row_prefix,
                                        std::uint32_t word,
                                        std::uint64_t mask) noexcept {
  constexpr std::uint64_t kTag =
      static_cast<std::uint64_t>(CellDraw::kPolarity);
  std::uint64_t charged = 0;
  for (; mask != 0; mask &= mask - 1) {
    const int i = std::countr_zero(mask);
    const std::uint64_t h = common::hash_accumulate(
        common::hash_accumulate(row_prefix, std::uint64_t{word} * 64 + i),
        kTag);
    charged |= (h & 1u) << i;
  }
  return charged;
}

std::vector<std::uint64_t> CellPhysics::charged_words(std::uint32_t bank,
                                                      std::uint32_t row) const {
  std::vector<std::uint64_t> words(kColumnsPerRow, 0);
  const std::uint64_t prefix = cell_hash_prefix(profile_.seed, bank, row);
  constexpr std::uint64_t kTag =
      static_cast<std::uint64_t>(CellDraw::kPolarity);
  std::uint64_t hashes[64];
  for (std::uint32_t w = 0; w < kColumnsPerRow; ++w) {
    common::simd::hash_index_walk(prefix, kTag, std::uint64_t{w} * 64, 64,
                                  hashes);
    std::uint64_t word = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
      word |= (hashes[i] & 1u) << i;
    }
    words[w] = word;
  }
  return words;
}

bool CellPhysics::RowFlipIndex::covers(double p) const noexcept {
  const std::optional<std::uint64_t> t = common::min_hash_above(1.0 - p);
  return !t.has_value() || *t >= min_hash_;
}

std::uint32_t CellPhysics::RowFlipIndex::mark(double p, RowBits& out) const {
  const std::optional<std::uint64_t> t = common::min_hash_above(1.0 - p);
  if (!t.has_value()) return 0;
  // Buckets before the threshold's hold only hashes above it; buckets
  // after it only hashes below it.
  const std::uint64_t boundary = ~*t >> shift_;
  const std::uint32_t whole = offsets_[boundary];
  for (std::uint32_t i = 0; i < whole; ++i) out.set(bits_[i]);
  std::uint32_t marked = whole;
  for (std::uint32_t i = whole; i < offsets_[boundary + 1]; ++i) {
    if (common::hash_accumulate(common::hash_accumulate(prefix_, bits_[i]),
                                tag_) >= *t) {
      out.set(bits_[i]);
      ++marked;
    }
  }
  return marked;
}

CellPhysics::RowFlipIndex CellPhysics::build_flip_index(std::uint32_t bank,
                                                        std::uint32_t row,
                                                        CellDraw what,
                                                        double depth) const {
  RowFlipIndex index;
  index.prefix_ = cell_hash_prefix(profile_.seed, bank, row);
  index.tag_ = static_cast<std::uint64_t>(what);
  const std::optional<std::uint64_t> min_hash =
      common::min_hash_above(1.0 - depth);
  if (!min_hash.has_value()) return index;

  // The kept cells, in ascending bit order: one mask walk finds them, and
  // each gets its exact hash for the bucket sort.
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint16_t> bits;
  constexpr std::uint32_t kChunkWords = 16;
  std::uint64_t masks[kChunkWords];
  for (std::uint32_t w0 = 0; w0 < kColumnsPerRow; w0 += kChunkWords) {
    common::simd::hash_mask_walk(index.prefix_, index.tag_,
                                 std::uint64_t{w0} * 64, kChunkWords,
                                 *min_hash, masks);
    for (std::uint32_t w = 0; w < kChunkWords; ++w) {
      for (std::uint64_t m = masks[w]; m != 0; m &= m - 1) {
        const std::uint32_t bit =
            (w0 + w) * 64 + static_cast<std::uint32_t>(std::countr_zero(m));
        hashes.push_back(common::hash_accumulate(
            common::hash_accumulate(index.prefix_, bit), index.tag_));
        bits.push_back(static_cast<std::uint16_t>(bit));
      }
    }
  }
  // 16-bit offsets: a row whose every cell passes gets no index (the
  // caller scans instead); at the depths a caller asks that never happens.
  if (bits.size() > 0xFFFF) return index;

  // A bucket spans 2^52 hashes, 16 cells on average at any depth; a row
  // with a crowded bucket halves the span until none holds more than
  // kMaxBucket. The floor only bounds the loop: a span of 2^40 hashes
  // holds 0.004 cells on average.
  std::vector<std::uint16_t> counts;
  for (std::uint32_t shift = 52;; --shift) {
    counts.assign((~*min_hash >> shift) + 2, 0);
    for (const std::uint64_t h : hashes) ++counts[(~h >> shift) + 1];
    if (shift == 40 || *std::max_element(counts.begin(), counts.end()) <=
                           RowFlipIndex::kMaxBucket) {
      index.shift_ = shift;
      break;
    }
  }
  // counts[b + 1] holds bucket b's size; the running sum makes counts[b]
  // its start, and placement advances counts[b + 1] to the next start.
  for (std::size_t b = 1; b < counts.size(); ++b) counts[b] += counts[b - 1];
  index.offsets_ = counts;
  index.bits_.resize(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    index.bits_[counts[~hashes[i] >> index.shift_]++] = bits[i];
  }
  index.min_hash_ = *min_hash;
  index.depth_ = depth;
  return index;
}

std::vector<CellPhysics::WeakCell> CellPhysics::weak_cells(
    std::uint32_t bank, std::uint32_t row) const {
  std::vector<WeakCell> cells;
  const std::uint64_t s = profile_.seed;
  const double u = to_unit_double(
      hash_key({s, bank, row, static_cast<std::uint64_t>(Tag::kWeakRowSelect)}));

  // Disjoint class selection: [0, f1) -> weak_64ms, [f1, f1+f2) -> the
  // secondary 64ms class, then the 128ms class.
  const RetentionWeakClass* cls = nullptr;
  double lo = 0.0;
  for (const RetentionWeakClass* c :
       {&profile_.weak_64ms, &profile_.weak_64ms_b, &profile_.weak_128ms}) {
    if (c->row_fraction <= 0.0 || c->words_affected == 0) continue;
    if (u >= lo && u < lo + c->row_fraction) {
      cls = c;
      break;
    }
    lo += c->row_fraction;
  }
  if (cls == nullptr) return cells;

  const std::uint32_t base_word = static_cast<std::uint32_t>(
      hash_key({s, bank, row, static_cast<std::uint64_t>(Tag::kWeakCellBase)}) %
      kColumnsPerRow);
  cells.reserve(cls->words_affected);
  for (std::uint32_t i = 0; i < cls->words_affected; ++i) {
    // Stride 97 is coprime with 1024 columns: every weak cell lands in a
    // distinct 64-bit word, so SECDED corrects all of them (Obsv. 14).
    const std::uint32_t word = (base_word + i * 97u) % kColumnsPerRow;
    const std::uint32_t bit_in_word = static_cast<std::uint32_t>(
        hash_key({s, bank, row, i, static_cast<std::uint64_t>(Tag::kWeakCellBit)}) %
        64u);
    const double ut = to_unit_double(hash_key(
        {s, bank, row, i, static_cast<std::uint64_t>(Tag::kWeakCellTime)}));
    WeakCell wc;
    wc.bit = word * 64u + bit_in_word;
    wc.t_ret_at_vppmin_s =
        (cls->t_ret_lo_ms + ut * (cls->t_ret_hi_ms - cls->t_ret_lo_ms)) * 1e-3;
    cells.push_back(wc);
  }
  return cells;
}

double CellPhysics::on_time_factor(double on_ns) const noexcept {
  if (on_ns <= 1.0) return 0.6;
  const double factor = 1.0 + 0.3 * std::log2(on_ns / 32.0);
  return std::clamp(factor, 0.6, 2.5);
}

double CellPhysics::weak_cell_ret_scale(double vpp_v) const noexcept {
  const auto rfac = [](double vpp) {
    const double q0 = std::clamp(analytic_restored_voltage(vpp) / kVdd,
                                 kChargeThreshold + 1e-3, 1.0);
    return std::log(q0 / kChargeThreshold) / std::log(1.0 / kChargeThreshold);
  };
  // Weak cells sit on marginal leakage paths that respond much more sharply
  // to the restored charge level than the bulk population: at nominal VPP
  // they hold comfortably past the 64ms window, and only the restoration
  // deficit at VPPmin pulls them under it (Obsv. 13).
  constexpr double kWeakKappa = 3.0;
  const double scale =
      std::pow(rfac(vpp_v) / rfac(profile_.vppmin_v), kWeakKappa);
  return std::max(scale, 1e-3);
}

}  // namespace vppstudy::dram
