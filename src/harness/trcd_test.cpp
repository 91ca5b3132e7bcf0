#include "harness/trcd_test.hpp"

#include <algorithm>
#include <bit>

namespace vppstudy::harness {

using common::Error;
using common::ErrorCode;

TrcdTest::TrcdTest(softmc::Session& session, TrcdConfig config)
    : session_(session), config_(config) {}

common::Expected<bool> TrcdTest::is_faulty(std::uint32_t bank,
                                           std::uint32_t row,
                                           dram::DataPattern pattern,
                                           double trcd_ns) {
  const auto image = dram::pattern_row(pattern, dram::kBytesPerRow);
  for (int iter = 0; iter < config_.num_iterations; ++iter) {
    VPP_RETURN_IF_ERROR_CTX(session_.init_row(bank, row, image),
                            "trcd init");
    for (std::uint32_t c = 0; c < dram::kColumnsPerRow;
         c += config_.column_stride) {
      auto word = session_.read_column_with_trcd(bank, row, c, trcd_ns);
      if (!word) {
        return std::move(word).error().with_context("trcd probe read");
      }
      for (std::uint32_t i = 0; i < dram::kBytesPerColumn; ++i) {
        if ((*word)[i] != image[c * dram::kBytesPerColumn + i]) return true;
      }
    }
  }
  return false;
}

common::Expected<TrcdRowResult> TrcdTest::test_row(std::uint32_t bank,
                                                   std::uint32_t row,
                                                   dram::DataPattern wcdp) {
  TrcdRowResult result;
  result.row = row;
  result.wcdp = wcdp;

  // Alg. 2: walk down from the nominal tRCD until a fault appears, and up
  // until reliability appears; tRCDmin is the smallest reliable setting.
  double trcd = config_.start_ns;
  bool found_faulty = false;
  bool found_reliable = false;
  double trcd_min = config_.start_ns;
  while (!found_faulty || !found_reliable) {
    VPP_ASSIGN_OR_RETURN(const bool faulty, is_faulty(bank, row, wcdp, trcd));
    if (faulty) {
      found_faulty = true;
      trcd += config_.step_ns;
      if (trcd > config_.max_ns) {
        return Error{ErrorCode::kInvalidArgument,
                     "row never became reliable below the search bound"}
            .with_bank_row(static_cast<std::int32_t>(bank), row);
      }
    } else {
      found_reliable = true;
      trcd_min = trcd;
      trcd -= config_.step_ns;
      if (trcd <= 0.0) break;  // reliable all the way down to one slot
    }
  }
  result.trcd_min_ns = trcd_min;
  return result;
}

}  // namespace vppstudy::harness
