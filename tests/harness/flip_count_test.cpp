// Flip counting in the harness (count_bit_flips / bit_error_rate): exact
// counts through the word-at-a-time kernel, and a length mismatch -- which
// the kernel would turn into a read past the shorter image -- stops the
// program in every build type.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dram/data_pattern.hpp"
#include "dram/types.hpp"
#include "harness/experiment.hpp"

namespace vppstudy::harness {
namespace {

TEST(FlipCount, CountsEveryFlippedBitOfARow) {
  const auto expected =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  auto observed = expected;
  EXPECT_EQ(count_bit_flips(expected, observed), 0u);
  observed[0] ^= 0x01;
  observed[4095] ^= 0xf0;
  observed[dram::kBytesPerRow - 1] ^= 0xff;
  EXPECT_EQ(count_bit_flips(expected, observed), 13u);
  EXPECT_DOUBLE_EQ(bit_error_rate(expected, observed),
                   13.0 / (dram::kBytesPerRow * 8.0));
  EXPECT_EQ(count_bit_flips({}, {}), 0u);
  EXPECT_EQ(bit_error_rate({}, {}), 0.0);
}

TEST(FlipCountDeathTest, LengthMismatchAbortsInEveryBuild) {
  const std::vector<std::uint8_t> row(dram::kBytesPerRow, 0xaa);
  const std::vector<std::uint8_t> short_row(dram::kBytesPerRow - 8, 0xaa);
  EXPECT_DEATH((void)count_bit_flips(row, short_row), "differ in length");
  EXPECT_DEATH((void)bit_error_rate(short_row, row), "differ in length");
}

}  // namespace
}  // namespace vppstudy::harness
