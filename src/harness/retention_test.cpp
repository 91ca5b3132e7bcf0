#include "harness/retention_test.hpp"

#include <algorithm>

#include "harness/experiment.hpp"

namespace vppstudy::harness {

using common::Error;

std::vector<double> retention_windows(const RetentionConfig& config) {
  std::vector<double> windows;
  for (double t = config.min_trefw_ms; t <= config.max_trefw_ms; t *= 2.0) {
    windows.push_back(t);
  }
  return windows;
}

RetentionTest::RetentionTest(softmc::Session& session, RetentionConfig config)
    : session_(session), config_(config) {}

common::Expected<double> RetentionTest::measure_ber(std::uint32_t bank,
                                                    std::uint32_t row,
                                                    dram::DataPattern pattern,
                                                    double trefw_ms) {
  const auto image = dram::pattern_row(pattern, dram::kBytesPerRow);
  VPP_RETURN_IF_ERROR_CTX(session_.init_row(bank, row, image),
                          "retention init");
  VPP_RETURN_IF_ERROR_CTX(session_.wait_ms(trefw_ms), "retention wait");
  auto observed = session_.read_row(bank, row, kSafeReadTrcdNs);
  if (!observed) {
    return std::move(observed).error().with_context("retention readback");
  }
  return bit_error_rate(image, *observed);
}

common::Expected<RetentionRowResult> RetentionTest::test_row(
    std::uint32_t bank, std::uint32_t row, dram::DataPattern wcdp) {
  RetentionRowResult result;
  result.row = row;
  result.wcdp = wcdp;
  result.trefw_ms = retention_windows(config_);
  for (const double trefw : result.trefw_ms) {
    double worst = 0.0;
    for (int i = 0; i < config_.num_iterations; ++i) {
      VPP_ASSIGN_OR_RETURN(const double ber,
                           measure_ber(bank, row, wcdp, trefw));
      worst = std::max(worst, ber);
    }
    result.ber.push_back(worst);
  }
  return result;
}

common::Expected<RetentionWordCensus> RetentionTest::census_at(
    std::uint32_t bank, std::uint32_t row, dram::DataPattern pattern,
    double trefw_ms) {
  const auto image = dram::pattern_row(pattern, dram::kBytesPerRow);
  VPP_RETURN_IF_ERROR_CTX(session_.init_row(bank, row, image), "census init");
  VPP_RETURN_IF_ERROR_CTX(session_.wait_ms(trefw_ms), "census wait");
  auto observed = session_.read_row(bank, row, kSafeReadTrcdNs);
  if (!observed) {
    return std::move(observed).error().with_context("census readback");
  }
  RetentionWordCensus rc;
  rc.row = row;
  rc.trefw_ms = trefw_ms;
  rc.census = ecc::census_row(image, *observed);
  return rc;
}

}  // namespace vppstudy::harness
