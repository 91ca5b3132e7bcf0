// Algorithm 2: minimum reliable row activation latency (tRCDmin). Sweeps
// tRCD from the nominal 13.5ns in 1.5ns steps (the FPGA's command-slot
// granularity) until the boundary between faulty and reliable is pinned.
#pragma once

#include <cstdint>

#include "common/expected.hpp"
#include "dram/data_pattern.hpp"
#include "softmc/session.hpp"

namespace vppstudy::harness {

struct TrcdConfig {
  double start_ns = 13.5;        ///< nominal tRCD (section 4.3)
  double step_ns = 1.5;          ///< command-slot granularity
  double max_ns = 30.0;          ///< search safety bound
  int num_iterations = 10;
  /// Columns probed per row per tRCD step (the paper tests all 1024; smaller
  /// strides keep bench runtimes reasonable and are reported as such).
  std::uint32_t column_stride = 1;
};

struct TrcdRowResult {
  std::uint32_t row = 0;
  dram::DataPattern wcdp = dram::DataPattern::kCheckerAA;
  double trcd_min_ns = 0.0;
};

class TrcdTest {
 public:
  TrcdTest(softmc::Session& session, TrcdConfig config);

  /// Does accessing every probed column of `row` at `trcd_ns` flip any bit?
  [[nodiscard]] common::Expected<bool> is_faulty(std::uint32_t bank,
                                                 std::uint32_t row,
                                                 dram::DataPattern pattern,
                                                 double trcd_ns);

  /// Full Alg. 2 for one row.
  [[nodiscard]] common::Expected<TrcdRowResult> test_row(
      std::uint32_t bank, std::uint32_t row, dram::DataPattern wcdp);

 private:
  softmc::Session& session_;
  TrcdConfig config_;
};

}  // namespace vppstudy::harness
