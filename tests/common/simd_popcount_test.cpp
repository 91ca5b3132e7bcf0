// The flip-count kernel (common::simd::xor_popcount): the scalar and the
// dispatched (AVX2 when the CPU has it) implementations must return the
// same exact count as a byte-at-a-time definition, at lengths around the
// kernels' 8-byte and 32-byte steps and at one row image (8,192 bytes).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace vppstudy::common::simd {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(hash_key({seed, i}));
  }
  return out;
}

std::uint64_t per_byte_count(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits += static_cast<std::uint64_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return bits;
}

class SimdXorPopcount : public ::testing::Test {
 protected:
  void TearDown() override { force_impl(std::nullopt); }
};

TEST_F(SimdXorPopcount, ScalarAndDispatchedMatchThePerByteCount) {
  for (const std::size_t n : {0u, 7u, 8u, 8192u, 8193u}) {
    const auto a = random_bytes(n, 1);
    const auto b = random_bytes(n, 2);
    const std::uint64_t expected = per_byte_count(a, b);
    ASSERT_TRUE(force_impl(Impl::kScalar));
    const std::uint64_t scalar = xor_popcount(a.data(), b.data(), n);
    force_impl(std::nullopt);
    const std::uint64_t dispatched = xor_popcount(a.data(), b.data(), n);
    EXPECT_EQ(scalar, expected) << "n=" << n;
    EXPECT_EQ(dispatched, expected) << "n=" << n << " impl "
                                    << active_impl_name();
  }
}

TEST_F(SimdXorPopcount, ExtremesCountEveryOrNoBit) {
  const std::vector<std::uint8_t> zeros(8193, 0x00);
  const std::vector<std::uint8_t> ones(8193, 0xff);
  for (const std::optional<Impl> impl :
       {std::optional<Impl>(Impl::kScalar), std::optional<Impl>()}) {
    ASSERT_TRUE(force_impl(impl));
    EXPECT_EQ(xor_popcount(zeros.data(), ones.data(), 8193), 8193u * 8);
    EXPECT_EQ(xor_popcount(ones.data(), ones.data(), 8193), 0u);
  }
}

}  // namespace
}  // namespace vppstudy::common::simd
