// Mechanistic cell physics: how VPP, hammer counts, elapsed time, timing
// violations, and data patterns turn into bit flips.
//
// The model follows the error mechanisms the paper names (section 2.3/2.4):
//
//  * Disturbance per aggressor activation combines electron injection/drift
//    (~linear in VPP) and capacitive crosstalk (~quadratic in VPP), so
//    lowering VPP weakens hammering -> HCfirst rises, BER falls (Obsv. 1/4).
//  * Charge restoration saturates at min(VDD, VPP - Vth) (Obsv. 10); the
//    restoration deficit at low VPP *opposes* the disturbance reduction and
//    produces the minority of rows whose vulnerability worsens (Obsv. 2/5).
//  * Retention: exponential leakage with lognormal cell time constants; the
//    restoration deficit shortens effective retention (Obsv. 12).
//  * Activation latency: a weaker wordline overdrive slows charge sharing
//    (Obsv. 7-9; cross-checked against src/circuit's transistor-level sim).
//
// Every per-row / per-cell quantity is a pure function of (module seed,
// coordinates), so flips are at consistently predictable locations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/profile.hpp"

namespace vppstudy::dram {

/// Per-vendor behavioral coefficients (calibrated against the per-vendor
/// spreads of Figs. 4, 6, 10b; see DESIGN.md section 5).
struct VendorCurve {
  double shape_gamma = 1.2;        ///< curvature of the VPP sensitivity shape
  double s_jitter_sigma = 0.12;    ///< per-row spread of HCfirst sensitivity
  double inversion_fraction = 0.2; ///< rows with a restoration-penalty term
  double inversion_scale = 0.25;   ///< strength of that penalty
  double alpha_jitter_sigma = 0.06;///< per-row spread of the BER exponent
  double row_strength_sigma = 0.35;///< spread of per-row HCfirst above the min
  double trcd_row_sigma_ns = 0.25; ///< row-to-row tRCDmin offset
  double trcd_cell_sigma_ns = 0.12;///< cell-level tRCDmin spread within a row
  double ret_sigma_log = 1.0;      ///< per-cell lognormal retention sigma
  double ret_vpp_kappa = 0.5;      ///< retention sensitivity to VPP deficit
  double ret_mu_jitter = 0.25;     ///< per-row retention median jitter
  double pattern_spread = 0.10;    ///< WCDP tilt magnitude on HCfirst
};

[[nodiscard]] const VendorCurve& vendor_curve(Manufacturer mfr) noexcept;

/// Analytic VPP-limited restored cell voltage: fixed point of
/// v = min(VDD, VPP - Vth(v)) with the same access-transistor constants as
/// the circuit model (cross-checked in tests against
/// circuit::steady_state_cell_voltage).
[[nodiscard]] double analytic_restored_voltage(double vpp_v) noexcept;

/// Normalized restoration deficit in [0,1): 0 when the cell restores to full
/// VDD (VPP >= ~2.0V), growing as VPP drops.
[[nodiscard]] double restore_deficit(double vpp_v) noexcept;

class CellPhysics {
 public:
  explicit CellPhysics(const ModuleProfile& profile);
  /// Ablation-study constructor: override the vendor behavioral curve
  /// (e.g. zero the inversion terms to show Obsv. 2/5 vanish without the
  /// restoration-penalty mechanism).
  CellPhysics(const ModuleProfile& profile, const VendorCurve& curve);

  /// Deterministic per-row parameters.
  struct RowParams {
    double hc_first = 30e3;    ///< weakest-cell flip threshold at 2.5V
    double alpha_nom = 2.0;    ///< per-cell flip-probability exponent at 2.5V
    double s = 0.0;            ///< VPP sensitivity scale (row-specific)
    double penalty_w = 0.0;    ///< restoration-penalty weight (0 for most rows)
    double trcd_offset_ns = 0.0;
    double ret_mu = 4.1;       ///< ln(median retention seconds) at 80C/2.5V
    /// Per-row temperature coefficient of the RowHammer threshold. Prior
    /// work (Orosa+ MICRO'21, cited as [12]) shows the interaction is
    /// row-dependent with both signs; the paper defers the three-way
    /// VPP/temperature study to future work (section 7) -- this term lets
    /// the bench suite explore it.
    double temp_sens = 0.0;
  };
  [[nodiscard]] RowParams row_params(std::uint32_t bank,
                                     std::uint32_t phys_row) const;

  /// Normalized VPP sensitivity shape: 0 at nominal VPP, 1 at this module's
  /// VPPmin, smooth in between.
  [[nodiscard]] double sensitivity_shape(double vpp_v) const noexcept;

  /// Row-level HCfirst multiplier M_row(vpp) (1 at nominal VPP).
  [[nodiscard]] double hammer_multiplier(const RowParams& rp,
                                         double vpp_v) const noexcept;

  /// Effective flip-probability exponent at a VPP level (the BER-vs-HC slope
  /// steepens/flattens slightly with VPP so that both HCfirst and BER anchors
  /// of Table 3 are hit; see DESIGN.md).
  [[nodiscard]] double alpha_at(const RowParams& rp,
                                double vpp_v) const noexcept;

  /// Data-pattern multiplier on hc0 (>= 1; the WCDP is the pattern with the
  /// smallest factor). `signature` is the row's fill byte; `vpp_bucket`
  /// introduces the rare WCDP flips across VPP the paper reports (~2.4% of
  /// rows, footnote 9).
  [[nodiscard]] double pattern_factor(std::uint32_t bank, std::uint32_t row,
                                      std::uint8_t signature,
                                      int vpp_bucket) const;

  /// Data-pattern multiplier on *effective elapsed time* for retention
  /// (>= 1): some patterns couple more leakage into a row's cells, so the
  /// retention WCDP is the pattern with the largest factor (section 4.4).
  [[nodiscard]] double pattern_retention_factor(std::uint32_t bank,
                                                std::uint32_t row,
                                                std::uint8_t signature) const;

  /// Per-cell flip probability after `hc` activations of *each* of the two
  /// physical neighbors, at wordline voltage `vpp_v` and chip temperature
  /// `temp_c`, for cells whose stored value leaves them chargeable (the
  /// vulnerable half). Tests run at 50C (section 4.1), where the
  /// temperature term vanishes.
  [[nodiscard]] double hammer_flip_probability(
      const RowParams& rp, double hc, double vpp_v, double pattern_factor,
      double restore_q, double temp_c = 50.0) const noexcept;

  /// Row-level HCfirst multiplier from temperature alone (1 at the 50C
  /// characterization setpoint; direction is row-dependent).
  [[nodiscard]] double temperature_multiplier(const RowParams& rp,
                                              double temp_c) const noexcept;

  /// Disturbance weight of one aggressor activation as a function of how
  /// long the aggressor row stays open ([12] characterizes this "aggressor
  /// on-time" axis; RowPress later weaponized it). 1.0 at the nominal tRAS
  /// of 32ns, growing logarithmically with longer open times.
  [[nodiscard]] double on_time_factor(double on_ns) const noexcept;

  /// Per-cell probability that leakage flips a charged cell after `dt_s`
  /// seconds without refresh. `restore_q` in (0,1] scales the initial charge
  /// (1 = fully restored at the given VPP).
  [[nodiscard]] double retention_flip_probability(const RowParams& rp,
                                                  double dt_s, double vpp_v,
                                                  double temp_c,
                                                  double restore_q) const noexcept;

  /// Row-level mean of the minimum reliable activation latency at a VPP.
  [[nodiscard]] double trcd_row_mean_ns(const RowParams& rp,
                                        double vpp_v) const noexcept;

  /// Probability that a single cell misreads when accessed `trcd_ns` after
  /// ACT (cell-level spread around the row mean).
  [[nodiscard]] double trcd_fail_probability(const RowParams& rp,
                                             double trcd_ns,
                                             double vpp_v) const noexcept;

  /// Bound on the per-read timing jitter applied by the device model:
  /// 0.04 * normal_at(...), and inverse_normal_cdf clamps its input to
  /// [1e-300, 1-1e-16] so |draw| < 37.5 -> |jitter| < 1.5ns. 2ns is a
  /// strict upper bound on any representable draw.
  static constexpr double kTrcdJitterBoundNs = 2.0;

  /// Conservative fast check for the read hot path: true when a read issued
  /// `trcd_ns` after ACT cannot fail *any* cell even under the most extreme
  /// representable jitter draw -- i.e. trcd_fail_probability at
  /// (trcd_ns - kTrcdJitterBoundNs) is far below the negligible-probability
  /// floor (z <= -7.5 => p < 4e-14 < 1e-12). Callers may then skip the
  /// jitter draw and the failure evaluation entirely; behavior is
  /// bit-identical because the skipped block could not have flipped a bit.
  /// `row_mean_ns` is trcd_row_mean_ns(rp, vpp) (cacheable per row x VPP).
  [[nodiscard]] bool trcd_certainly_safe(double row_mean_ns,
                                         double trcd_ns) const noexcept {
    const double z =
        (row_mean_ns - (trcd_ns - kTrcdJitterBoundNs)) /
            curve_.trcd_cell_sigma_ns -
        4.0;
    return z <= -7.5;
  }

  /// Fraction of full restoration achieved when a row stays open for
  /// `open_ns` before precharge (tRAS violations cause partial restore).
  [[nodiscard]] double restore_fraction(double open_ns,
                                        double vpp_v) const noexcept;

  /// Stable per-cell uniform draw for a named purpose.
  enum class CellDraw : std::uint64_t {
    kHammer = 1,
    kRetention = 2,
    kTrcd = 3,
    kPolarity = 4,
  };
  [[nodiscard]] double cell_uniform(std::uint32_t bank, std::uint32_t row,
                                    std::uint32_t bit, CellDraw what) const;
  /// Threshold form of cell_uniform over whole 64-bit words: bit j of
  /// out[w] is set iff cell_uniform(bank, row, 64 * (word0 + w) + j, what)
  /// > threshold, for w in [0, words). Evaluated as the exact integer test
  /// h >= common::min_hash_above(threshold) on the common/simd.hpp mask
  /// walk, so it forms no double and matches the per-bit draws bit for bit.
  void cell_uniform_masks(std::uint32_t bank, std::uint32_t row,
                          std::uint32_t word0, std::uint32_t words,
                          CellDraw what, double threshold,
                          std::uint64_t* out) const;
  /// True-cell / anti-cell layout: the stored value that corresponds to a
  /// *charged* capacitor for this cell.
  [[nodiscard]] bool charged_value(std::uint32_t bank, std::uint32_t row,
                                   std::uint32_t bit) const;
  /// One 64-bit polarity word per column: bit i of word w is
  /// charged_value(bank, row, w*64 + i). A per-row cache of these words
  /// turns the per-bit polarity hash into a bit test (dram::Module caches
  /// them in its RowState; see docs/MODEL.md "Sensing hot path").
  [[nodiscard]] std::vector<std::uint64_t> charged_words(
      std::uint32_t bank, std::uint32_t row) const;
  /// The (seed, bank, row) fold every per-cell hash of the row starts from.
  [[nodiscard]] std::uint64_t row_hash_prefix(std::uint32_t bank,
                                              std::uint32_t row) const noexcept;
  /// charged_value for a few cells of one 64-bit word, two hash rounds per
  /// cell instead of five: bit i of the result is charged_value(bank, row,
  /// 64 * word + i) for each bit i of `mask`, and 0 elsewhere. `row_prefix`
  /// is row_hash_prefix(bank, row).
  [[nodiscard]] static std::uint64_t charged_bits(std::uint64_t row_prefix,
                                                  std::uint32_t word,
                                                  std::uint64_t mask) noexcept;

  /// A set of one row's bit numbers, plus one summary bit per 64-bit word
  /// that holds any, so a walk over a sparse set skips the empty words.
  struct RowBits {
    std::array<std::uint64_t, kColumnsPerRow> words{};
    std::array<std::uint64_t, kColumnsPerRow / 64> nonempty{};

    void set(std::uint32_t bit) noexcept {
      words[bit / 64] |= std::uint64_t{1} << (bit % 64);
      nonempty[bit / 4096] |= std::uint64_t{1} << (bit / 64 % 64);
    }
  };

  /// Exact threshold index of one row's per-cell draws for one draw kind.
  /// A cell flips at probability p iff its draw hash is >= min_hash_above(
  /// 1 - p), so the cells flipping at any p <= depth() are among those with
  /// hash >= min_hash_above(1 - depth()). The index keeps every one of
  /// those as a 2-byte bit number, counting-sorted into buckets of
  /// ~hash >> shift (largest hashes first, at most kMaxBucket per bucket).
  /// A query takes every bucket wholly above its threshold and re-hashes
  /// only the bucket the threshold falls in: O(flips + kMaxBucket) instead
  /// of a 65,536-cell scan. A default-constructed index covers nothing.
  class RowFlipIndex {
   public:
    /// Most cells one bucket holds: the re-hash bound of a query.
    static constexpr std::uint32_t kMaxBucket = 64;

    /// The probability the index was built for (0 when unbuilt).
    [[nodiscard]] double depth() const noexcept { return depth_; }
    /// Whether the index keeps every cell that flips at probability p: the
    /// exact test min_hash_above(1 - p) >= min_hash.
    [[nodiscard]] bool covers(double p) const noexcept;
    /// Adds to `out` every cell whose hash is >= min_hash_above(1 - p), and
    /// returns how many it added. Requires covers(p).
    std::uint32_t mark(double p, RowBits& out) const;
    /// Cells kept.
    [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }
    /// Heap bytes held: 2 per kept cell and 2 per bucket boundary.
    [[nodiscard]] std::size_t bytes() const noexcept {
      return 2 * (bits_.capacity() + offsets_.capacity());
    }

   private:
    friend class CellPhysics;
    std::uint64_t prefix_ = 0;   ///< hash prefix of (seed, bank, row)
    std::uint64_t tag_ = 0;      ///< the CellDraw
    /// Smallest hash kept. No threshold reaches ~0, so unbuilt covers none.
    std::uint64_t min_hash_ = ~std::uint64_t{0};
    double depth_ = 0.0;
    std::uint32_t shift_ = 0;
    /// Bucket b (hashes with ~hash >> shift_ == b) is
    /// bits_[offsets_[b], offsets_[b + 1]); within it, ascending bit.
    std::vector<std::uint16_t> offsets_;
    std::vector<std::uint16_t> bits_;
  };
  /// The index of (bank, row, what) at `depth`, a probability in (0, 1]:
  /// one mask walk over the row plus a re-hash of each cell it keeps.
  [[nodiscard]] RowFlipIndex build_flip_index(std::uint32_t bank,
                                              std::uint32_t row, CellDraw what,
                                              double depth) const;

  /// Retention-weak cells of a row (Obsv. 14/15): bit index plus the cell's
  /// retention time at VPPmin, placed in distinct 64-bit words.
  struct WeakCell {
    std::uint32_t bit = 0;
    double t_ret_at_vppmin_s = 0.0;
  };
  [[nodiscard]] std::vector<WeakCell> weak_cells(std::uint32_t bank,
                                                 std::uint32_t row) const;

  /// Retention-time multiplier of weak cells at `vpp_v`, relative to their
  /// specified time at VPPmin (> 1 at nominal VPP: weak cells only cross the
  /// 64ms boundary when VPP is reduced, Obsv. 13).
  [[nodiscard]] double weak_cell_ret_scale(double vpp_v) const noexcept;

  [[nodiscard]] const ModuleProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] const VendorCurve& curve() const noexcept { return curve_; }

  /// Module-level anchors derived from the profile (exposed for tests).
  [[nodiscard]] double alpha_nominal_module() const noexcept { return alpha_nom_mod_; }
  [[nodiscard]] double alpha_vppmin_module() const noexcept { return alpha_min_mod_; }
  [[nodiscard]] double log_m_module() const noexcept { return log_m_mod_; }

 private:
  ModuleProfile profile_;
  VendorCurve curve_;
  double alpha_nom_mod_ = 2.0;  ///< ln(N*BER)/ln(300K/HCfirst) at 2.5V
  double alpha_min_mod_ = 2.0;  ///< same anchored at VPPmin
  double log_m_mod_ = 0.0;      ///< ln(HCfirst@VPPmin / HCfirst@2.5V)
  double mu_mod_ = 0.0;         ///< per-row mean sensitivity at VPPmin
  double gap_mod_ = 0.0;        ///< mu_mod_ - log_m_mod_ (penalty tail depth)
};

}  // namespace vppstudy::dram
