// The threshold mask walk (common::simd::hash_mask_walk) and its integer
// threshold (common::min_hash_above): bit j of word w must be set exactly
// when to_unit_double(hash) > t for the hash at index0 + 64w + j. The
// scalar, AVX2 and AVX-512 kernels are each checked against that double
// comparison -- at thresholds that sit exactly on a drawn value and one ulp
// either side of it, at the edges of [0, 1), and from an index0 that is not
// a multiple of the 8-lane width. Kernels this CPU cannot run are skipped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace vppstudy::common::simd {
namespace {

constexpr Impl kAllImpls[] = {Impl::kScalar, Impl::kAvx2, Impl::kAvx512};
constexpr double kUlp53 = 0x1.0p-53;
constexpr std::uint64_t kPrefix = 0x243f6a8885a308d3ULL ^ 0xfeedULL;
constexpr std::uint64_t kTag = 1;

class SimdMaskWalk : public ::testing::Test {
 protected:
  void TearDown() override { force_impl(std::nullopt); }
};

std::vector<std::uint64_t> hashes_at(std::uint64_t index0, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = hash_accumulate(hash_accumulate(kPrefix, index0 + i), kTag);
  }
  return out;
}

/// Masks of `words` words from index0 at threshold t under the current
/// dispatch; a threshold no draw exceeds gives all-zero words.
std::vector<std::uint64_t> masks_at(std::uint64_t index0, std::size_t words,
                                    double t) {
  std::vector<std::uint64_t> out(words, 0);
  if (const auto min_hash = min_hash_above(t)) {
    hash_mask_walk(kPrefix, kTag, index0, words, *min_hash, out.data());
  }
  return out;
}

/// Every kernel this CPU runs reproduces `to_unit_double(h) > t` bit for bit.
void expect_masks_match_unit_doubles(std::uint64_t index0, std::size_t words,
                                     const std::vector<double>& thresholds) {
  const auto hashes = hashes_at(index0, words * 64);
  for (const Impl impl : kAllImpls) {
    if (!force_impl(impl)) continue;
    for (const double t : thresholds) {
      const auto masks = masks_at(index0, words, t);
      for (std::size_t i = 0; i < hashes.size(); ++i) {
        const bool bit = ((masks[i / 64] >> (i % 64)) & 1u) != 0;
        ASSERT_EQ(bit, to_unit_double(hashes[i]) > t)
            << active_impl_name() << " index0=" << index0 << " i=" << i
            << " t=" << t;
      }
    }
  }
}

TEST_F(SimdMaskWalk, MinHashAboveIsTheExactIntegerBoundary) {
  // Every hash passes below zero; nothing passes from 1 - 2^-53 on (the
  // largest draw) or for NaN, which no draw exceeds either.
  EXPECT_EQ(min_hash_above(-0.5), 0u);
  EXPECT_EQ(min_hash_above(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_FALSE(min_hash_above(1.0 - kUlp53).has_value());
  EXPECT_FALSE(min_hash_above(1.0).has_value());
  EXPECT_FALSE(min_hash_above(std::nan("")).has_value());
  // Elsewhere min_hash is the first hash whose draw exceeds t: the hash
  // just below it does not.
  for (const double t :
       {0.0, kUlp53, 0.5, 1.0 - 2 * kUlp53, 0.96875, 1.0 - 1e-12, 1e-300,
        std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
        std::nextafter(kUlp53, 1.0), std::nextafter(kUlp53, 0.0)}) {
    const auto min_hash = min_hash_above(t);
    ASSERT_TRUE(min_hash.has_value()) << t;
    EXPECT_GT(to_unit_double(*min_hash), t) << t;
    EXPECT_LE(to_unit_double(*min_hash - 1), t) << t;
    EXPECT_EQ(*min_hash % 2048, 0u) << t;
  }
}

TEST_F(SimdMaskWalk, KernelsMatchUnitDoublesAtEdgeThresholds) {
  expect_masks_match_unit_doubles(
      4096, 4, {-0.5, 0.0, kUlp53, 0.5, 1.0 - kUlp53, 1.0, 0.96875});
}

TEST_F(SimdMaskWalk, KernelsMatchUnitDoublesOneUlpAroundDrawnValues) {
  // Thresholds k * 2^-53 taken from the walk's own draws, and the doubles
  // on either side of them: the draw at the threshold must fail, the one
  // just above must pass, whatever its low 11 hash bits are.
  const std::uint64_t index0 = 1 << 20;
  const auto hashes = hashes_at(index0, 3 * 64);
  std::vector<double> thresholds;
  for (const std::size_t i : {0u, 5u, 63u, 64u, 100u, 191u}) {
    const double u = to_unit_double(hashes[i]);
    thresholds.push_back(u);
    thresholds.push_back(std::nextafter(u, 0.0));
    thresholds.push_back(std::nextafter(u, 1.0));
  }
  expect_masks_match_unit_doubles(index0, 3, thresholds);
}

TEST_F(SimdMaskWalk, KernelsAgreeFromAnUnalignedIndex0) {
  // index0 = 65,003 is not a multiple of 4 or 8; thresholds around 0.5
  // exercise the AVX2 sign-flip compare at its wrap point.
  expect_masks_match_unit_doubles(
      65'003, 17,
      {0.0, 0.25, std::nextafter(0.5, 0.0), 0.5, std::nextafter(0.5, 1.0),
       0.999});
  // Raw min_hash values straddling 2^63, where a signed compare would
  // invert, agree across kernels too.
  const auto hashes = hashes_at(65'003, 2 * 64);
  for (const std::uint64_t min_hash :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 63) - 1,
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1,
        ~std::uint64_t{0}, hashes[77], hashes[77] + 1}) {
    for (const Impl impl : kAllImpls) {
      if (!force_impl(impl)) continue;
      std::uint64_t masks[2];
      hash_mask_walk(kPrefix, kTag, 65'003, 2, min_hash, masks);
      for (std::size_t i = 0; i < hashes.size(); ++i) {
        const bool bit = ((masks[i / 64] >> (i % 64)) & 1u) != 0;
        ASSERT_EQ(bit, hashes[i] >= min_hash)
            << active_impl_name() << " min_hash=" << min_hash << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace vppstudy::common::simd
