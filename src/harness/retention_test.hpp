// Algorithm 3: data retention BER across refresh windows from 16ms to 16s in
// powers of two, at a given VPP (refresh disabled; the wait *is* the
// experiment). Also the word-level census behind Obsv. 14/15 and Fig. 11.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expected.hpp"
#include "dram/data_pattern.hpp"
#include "ecc/word_census.hpp"
#include "softmc/session.hpp"

namespace vppstudy::harness {

struct RetentionConfig {
  double min_trefw_ms = 16.0;
  double max_trefw_ms = 16384.0;  ///< 16ms .. 16s in powers of two
  int num_iterations = 1;  ///< the model's waits are deterministic in time
};

/// The tREFW windows Alg. 3 probes, doubling from min_trefw_ms to at most
/// max_trefw_ms (also rebuilds a cached row's windows).
[[nodiscard]] std::vector<double> retention_windows(
    const RetentionConfig& config);

struct RetentionRowResult {
  std::uint32_t row = 0;
  dram::DataPattern wcdp = dram::DataPattern::kCheckerAA;
  std::vector<double> trefw_ms;  ///< probed windows (powers of two)
  std::vector<double> ber;       ///< worst BER per window
};

/// Word-level census of a row at one refresh window (Fig. 11's unit).
struct RetentionWordCensus {
  std::uint32_t row = 0;
  double trefw_ms = 0.0;
  ecc::WordCensus census;
};

class RetentionTest {
 public:
  RetentionTest(softmc::Session& session, RetentionConfig config);

  /// One (row, tREFW) measurement: init, wait, read, compare.
  [[nodiscard]] common::Expected<double> measure_ber(std::uint32_t bank,
                                                     std::uint32_t row,
                                                     dram::DataPattern pattern,
                                                     double trefw_ms);

  /// Full Alg. 3 sweep for one row.
  [[nodiscard]] common::Expected<RetentionRowResult> test_row(
      std::uint32_t bank, std::uint32_t row, dram::DataPattern wcdp);

  /// The Obsv. 14/15 analysis unit: word-level error census at one window.
  [[nodiscard]] common::Expected<RetentionWordCensus> census_at(
      std::uint32_t bank, std::uint32_t row, dram::DataPattern pattern,
      double trefw_ms);

 private:
  softmc::Session& session_;
  RetentionConfig config_;
};

}  // namespace vppstudy::harness
