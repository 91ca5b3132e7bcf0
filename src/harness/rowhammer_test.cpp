#include "harness/rowhammer_test.hpp"

#include <algorithm>

#include "harness/experiment.hpp"

namespace vppstudy::harness {

using common::Error;
using common::ErrorCode;

RowHammerTest::RowHammerTest(softmc::Session& session, RowHammerConfig config)
    : session_(session), config_(config) {}

common::Expected<double> RowHammerTest::measure_ber(std::uint32_t bank,
                                                    std::uint32_t victim_row,
                                                    dram::DataPattern pattern,
                                                    std::uint64_t hc) {
  const auto neighbors =
      session_.module().mapping().physical_neighbors(victim_row);
  if (!neighbors.valid) {
    return Error{ErrorCode::kInvalidArgument,
                 "victim row has no double-sided neighborhood"}
        .with_bank_row(static_cast<std::int32_t>(bank), victim_row);
  }
  const auto victim_image = dram::pattern_row(pattern, dram::kBytesPerRow);
  const auto aggressor_image =
      dram::pattern_row(dram::inverse_pattern(pattern), dram::kBytesPerRow);

  VPP_RETURN_IF_ERROR_CTX(session_.init_row(bank, victim_row, victim_image),
                          "rowhammer victim init");
  VPP_RETURN_IF_ERROR_CTX(
      session_.init_row(bank, neighbors.below, aggressor_image),
      "rowhammer aggressor init");
  VPP_RETURN_IF_ERROR_CTX(
      session_.init_row(bank, neighbors.above, aggressor_image),
      "rowhammer aggressor init");

  if (hc > 0) {
    VPP_RETURN_IF_ERROR_CTX(
        session_.hammer_double_sided(bank, neighbors.below, neighbors.above,
                                     hc, config_.act_to_act_ns),
        "rowhammer loop");
  }

  auto observed = session_.read_row(bank, victim_row, kSafeReadTrcdNs);
  if (!observed) {
    return std::move(observed).error().with_context("rowhammer readback");
  }
  return bit_error_rate(victim_image, *observed);
}

common::Expected<RowHammerRowResult> RowHammerTest::test_row(
    std::uint32_t bank, std::uint32_t victim_row, dram::DataPattern wcdp) {
  RowHammerRowResult result;
  result.row = victim_row;
  result.wcdp = wcdp;

  // BER at the fixed hammer count: worst (largest) across iterations.
  for (int i = 0; i < config_.num_iterations; ++i) {
    VPP_ASSIGN_OR_RETURN(const double ber,
                         measure_ber(bank, victim_row, wcdp, config_.ber_hc));
    result.ber = std::max(result.ber, ber);
  }

  // HCfirst: Alg. 1's bisection. Start at initial_hc; increase while no bit
  // flips occur, decrease when they do, halving the step until it is small.
  std::uint64_t hc = config_.initial_hc;
  std::uint64_t step = config_.initial_step;
  std::uint64_t smallest_flipping = 0;
  while (step > config_.min_step) {
    double worst_ber = 0.0;
    for (int i = 0; i < config_.num_iterations; ++i) {
      VPP_ASSIGN_OR_RETURN(const double ber,
                           measure_ber(bank, victim_row, wcdp, hc));
      worst_ber = std::max(worst_ber, ber);
    }
    if (worst_ber == 0.0) {
      hc += step;
    } else {
      smallest_flipping = smallest_flipping == 0
                              ? hc
                              : std::min(smallest_flipping, hc);
      hc = hc > step ? hc - step : config_.min_step;
    }
    step /= 2;
  }
  // The paper records the HC the search converges to; take the smallest
  // count observed to flip (worst case), falling back to the final probe.
  result.hc_first = smallest_flipping != 0 ? smallest_flipping : hc;
  return result;
}

}  // namespace vppstudy::harness
