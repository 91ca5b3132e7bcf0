// Algorithm 1 of the paper: per-row HCfirst (binary search over hammer
// counts) and BER at a fixed 300K hammer count, via double-sided RowHammer
// with the row's worst-case data pattern.
#pragma once

#include <cstdint>

#include "common/expected.hpp"
#include "dram/data_pattern.hpp"
#include "softmc/session.hpp"

namespace vppstudy::harness {

struct RowHammerConfig {
  std::uint64_t initial_hc = 300'000;   ///< Alg. 1: starting hammer count
  std::uint64_t initial_step = 150'000; ///< Alg. 1: starting step
  std::uint64_t min_step = 100;         ///< Alg. 1: stop when step <= this
  std::uint64_t ber_hc = 300'000;       ///< fixed hammer count for BER
  int num_iterations = 10;              ///< repeats; worst case recorded
  /// Aggressor ACT-to-ACT spacing; <= 0 uses the nominal tRC spacing (the
  /// on-time axis of multi-axis campaigns, see core/axis.hpp).
  double act_to_act_ns = -1.0;
};

struct RowHammerRowResult {
  std::uint32_t row = 0;
  dram::DataPattern wcdp = dram::DataPattern::kCheckerAA;
  std::uint64_t hc_first = 0;    ///< smallest across iterations
  double ber = 0.0;              ///< largest across iterations, at ber_hc
};

class RowHammerTest {
 public:
  RowHammerTest(softmc::Session& session, RowHammerConfig config);

  /// measure_BER of Alg. 1: initialize victim with `pattern`, aggressors
  /// with its inverse, hammer double-sided `hc` times per aggressor, read
  /// back, and return the fraction of flipped bits.
  [[nodiscard]] common::Expected<double> measure_ber(std::uint32_t bank,
                                                     std::uint32_t victim_row,
                                                     dram::DataPattern pattern,
                                                     std::uint64_t hc);

  /// Full Alg. 1 for one row: HCfirst search plus BER at the fixed count.
  [[nodiscard]] common::Expected<RowHammerRowResult> test_row(
      std::uint32_t bank, std::uint32_t victim_row, dram::DataPattern wcdp);

  [[nodiscard]] const RowHammerConfig& config() const noexcept {
    return config_;
  }

 private:
  softmc::Session& session_;
  RowHammerConfig config_;
};

}  // namespace vppstudy::harness
