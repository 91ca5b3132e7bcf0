// Tier-1 checks for the runtime-dispatched SIMD layer (common/simd.hpp): the
// AVX-512, AVX2 and portable scalar word-walk kernels must agree bit-for-bit
// at every layer that consumes them -- raw hash walks, per-cell threshold
// masks, the charged-polarity words, the threshold flip index, and finally
// whole-device runs (identical stored bytes and ModuleStats across VPP
// levels, with the reference full-row scan both off and on). A case that
// needs a kernel this CPU cannot run skips; the definitional checks still
// run against every kernel it can.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "dram/module.hpp"
#include "dram/physics.hpp"

namespace vppstudy::dram {
namespace {

using common::simd::Impl;

constexpr Impl kAllImpls[] = {Impl::kScalar, Impl::kAvx2, Impl::kAvx512};

ModuleProfile small_profile() {
  auto p = chips::profile_by_name("B3").value();
  p.rows_per_bank = 4096;
  return p;
}

/// Every test restores auto-detected dispatch, pass or fail: a forced
/// implementation leaking out of one test must not silently change what the
/// rest of the suite exercises.
class SimdWordWalk : public ::testing::Test {
 protected:
  void TearDown() override { common::simd::force_impl(std::nullopt); }
};

TEST_F(SimdWordWalk, ForceImplControlsDispatch) {
  // Each kernel is selectable by itself: forcing AVX2 on an AVX-512 CPU
  // still runs AVX2, which is what lets one host cover all three.
  const char* const names[] = {"scalar", "avx2", "avx512"};
  for (const Impl impl : kAllImpls) {
    const char* name = names[static_cast<int>(impl)];
    if (common::simd::impl_supported(impl)) {
      ASSERT_TRUE(common::simd::force_impl(impl)) << name;
      EXPECT_EQ(common::simd::active_impl(), impl) << name;
      EXPECT_STREQ(common::simd::active_impl_name(), name);
    } else {
      ASSERT_TRUE(common::simd::force_impl(Impl::kScalar));
      EXPECT_FALSE(common::simd::force_impl(impl)) << name;
      EXPECT_EQ(common::simd::active_impl(), Impl::kScalar) << name;
    }
  }
  EXPECT_TRUE(common::simd::impl_supported(Impl::kScalar));
}

TEST_F(SimdWordWalk, VppSimdSelectsByNameAndReportsTypos) {
  const char* saved = std::getenv("VPP_SIMD");
  const std::string restore = saved != nullptr ? saved : "";
  const auto resolve_with = [](const char* value) {
    ::setenv("VPP_SIMD", value, 1);
    common::simd::force_impl(std::nullopt);
    ::testing::internal::CaptureStderr();
    const Impl impl = common::simd::active_impl();
    return std::make_pair(impl, ::testing::internal::GetCapturedStderr());
  };
  // A valid name selects that kernel silently, even below the widest one.
  const auto [scalar, scalar_err] = resolve_with("scalar");
  EXPECT_EQ(scalar, Impl::kScalar);
  EXPECT_EQ(scalar_err, "");
  if (common::simd::impl_supported(Impl::kAvx2)) {
    const auto [avx2, avx2_err] = resolve_with("avx2");
    EXPECT_EQ(avx2, Impl::kAvx2);
    EXPECT_EQ(avx2_err, "");
  }
  // A typo falls back to auto-detection, and says so on one stderr line
  // naming the value and the kernel actually chosen.
  const auto [fallback, typo_err] = resolve_with("avx3");
  EXPECT_NE(typo_err.find("\"avx3\""), std::string::npos) << typo_err;
  EXPECT_NE(typo_err.find(common::simd::active_impl_name()), std::string::npos)
      << typo_err;
  EXPECT_EQ(std::count(typo_err.begin(), typo_err.end(), '\n'), 1)
      << typo_err;
  ::unsetenv("VPP_SIMD");
  common::simd::force_impl(std::nullopt);
  EXPECT_EQ(fallback, common::simd::active_impl());

  if (saved != nullptr) ::setenv("VPP_SIMD", restore.c_str(), 1);
}

TEST_F(SimdWordWalk, WalkMatchesHashKeyDefinition) {
  // Every implementation's batched walk must equal the one-at-a-time
  // hash_key fold it factors: hash_key({a, b, index, tag}) with the (a, b)
  // prefix folded once.
  const std::uint64_t a = 0x5eedULL;
  const std::uint64_t b = 3;  // e.g. a bank
  std::uint64_t prefix = common::hash_accumulate(common::kHashInit, a);
  prefix = common::hash_accumulate(prefix, b);

  const std::uint64_t tag = 42;
  const std::uint64_t index0 = 1'000'000;
  for (const Impl impl : kAllImpls) {
    if (!common::simd::force_impl(impl)) continue;
    std::vector<std::uint64_t> out(133);
    common::simd::hash_index_walk(prefix, tag, index0, out.size(),
                                  out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], common::hash_key({a, b, index0 + i, tag}))
          << common::simd::active_impl_name() << " " << i;
    }
  }
}

/// Hash walks of every length that straddles the 4- and 8-lane widths
/// (tails of 0..7) and of the sizes the device model issues (64-bit
/// polarity words, 1024-bit batches), scalar vs `impl`.
void expect_hash_walks_match_scalar(Impl impl) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{5},
        std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{64},
        std::size_t{65}, std::size_t{1024}}) {
    std::vector<std::uint64_t> scalar(n), simd(n);
    ASSERT_TRUE(common::simd::force_impl(Impl::kScalar));
    common::simd::hash_index_walk(0x1234, 7, 65'000, n, scalar.data());
    ASSERT_TRUE(common::simd::force_impl(impl));
    common::simd::hash_index_walk(0x1234, 7, 65'000, n, simd.data());
    EXPECT_EQ(scalar, simd) << common::simd::active_impl_name() << " n=" << n;
  }
}

TEST_F(SimdWordWalk, ScalarAndAvx2HashWalksMatchWordForWord) {
  if (!common::simd::impl_supported(Impl::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  expect_hash_walks_match_scalar(Impl::kAvx2);
}

TEST_F(SimdWordWalk, ScalarAndAvx512HashWalksMatchWordForWord) {
  if (!common::simd::impl_supported(Impl::kAvx512)) {
    GTEST_SKIP() << "CPU lacks AVX-512 F+DQ";
  }
  expect_hash_walks_match_scalar(Impl::kAvx512);
}

TEST_F(SimdWordWalk, CellUniformMasksMatchPerBitDraws) {
  const CellPhysics physics(small_profile());
  constexpr std::uint32_t kWord0 = 78;  // bit 4992
  constexpr std::uint32_t kWords = 5;
  for (const Impl impl : kAllImpls) {
    if (!common::simd::force_impl(impl)) continue;
    for (const auto what :
         {CellPhysics::CellDraw::kHammer, CellPhysics::CellDraw::kRetention,
          CellPhysics::CellDraw::kTrcd, CellPhysics::CellDraw::kPolarity}) {
      for (const double threshold : {-1.0, 0.0, 0.3, 0.99, 1.0}) {
        std::uint64_t masks[kWords];
        physics.cell_uniform_masks(0, 700, kWord0, kWords, what, threshold,
                                   masks);
        for (std::uint32_t i = 0; i < kWords * 64; ++i) {
          const std::uint32_t bit = kWord0 * 64 + i;
          EXPECT_EQ(((masks[i / 64] >> (i % 64)) & 1u) != 0,
                    physics.cell_uniform(0, 700, bit, what) > threshold)
              << common::simd::active_impl_name() << " draw "
              << static_cast<int>(what) << " t=" << threshold << " bit "
              << bit;
        }
      }
    }
  }
}

TEST_F(SimdWordWalk, PhysicsDerivedTablesMatchAcrossImpls) {
  if (!common::simd::impl_supported(Impl::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  const CellPhysics physics(small_profile());
  struct Tables {
    std::vector<std::uint64_t> words;
    /// What each flip index marks at a ladder of p, per depth and kind.
    std::vector<std::array<std::uint64_t, kColumnsPerRow>> marked;
  };
  // The index build runs the mask walk at the depth's threshold; the
  // first and the deepest depth a Module asks for.
  const auto tables = [&] {
    Tables t;
    t.words = physics.charged_words(0, 321);
    for (const auto what :
         {CellPhysics::CellDraw::kHammer, CellPhysics::CellDraw::kRetention}) {
      for (const double depth : {1.0 / 64, 1.0 / 16}) {
        const auto index = physics.build_flip_index(0, 321, what, depth);
        for (const double p : {depth, depth / 3, 1e-4}) {
          CellPhysics::RowBits bits;
          (void)index.mark(p, bits);
          t.marked.push_back(bits.words);
        }
      }
    }
    return t;
  };
  ASSERT_TRUE(common::simd::force_impl(Impl::kScalar));
  const Tables scalar = tables();
  for (const Impl impl : {Impl::kAvx2, Impl::kAvx512}) {
    if (!common::simd::force_impl(impl)) continue;
    const Tables simd = tables();
    EXPECT_EQ(scalar.words, simd.words) << common::simd::active_impl_name();
    ASSERT_EQ(scalar.marked.size(), simd.marked.size());
    for (std::size_t k = 0; k < scalar.marked.size(); ++k) {
      EXPECT_EQ(scalar.marked[k], simd.marked[k])
          << common::simd::active_impl_name() << " " << k;
    }
  }
}

/// Drive a module through hammer + retention + short-tRCD sensing and return
/// the victim row's final bytes (mirrors the determinism suite's scenario).
std::vector<std::uint8_t> run_device_scenario(Module& m, double vpp) {
  m.set_trr_enabled(false);
  m.set_vpp(vpp);
  const std::uint32_t victim = 500;
  const auto neighbors = m.mapping().physical_neighbors(victim);
  EXPECT_TRUE(neighbors.valid);

  double t = 100.0;
  (void)m.debug_row_snapshot(0, victim, t);
  EXPECT_TRUE(
      m.hammer_pair(0, neighbors.below, neighbors.above, 150000, 46.0, t).ok());
  EXPECT_TRUE(m.activate(0, victim, t).ok());
  t += 35.0;
  EXPECT_TRUE(m.precharge(0, t).ok());
  t += 300e6;  // 300ms unrefreshed
  EXPECT_TRUE(m.activate(0, victim, t).ok());
  for (std::uint32_t c = 0; c < 8; ++c) {
    auto r = m.read(0, c, t + 2.0 + 0.1 * c);
    EXPECT_TRUE(r.has_value());
  }
  t += 50.0;
  EXPECT_TRUE(m.precharge(0, t).ok());
  return m.debug_row_snapshot(0, victim, t);
}

class SimdWordWalkDevice : public ::testing::TestWithParam<double> {
 protected:
  void TearDown() override { common::simd::force_impl(std::nullopt); }
};

TEST_P(SimdWordWalkDevice, WholeDeviceRunsAreBitExactAcrossImpls) {
  if (!common::simd::impl_supported(Impl::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  const double vpp = GetParam();
  for (const bool reference_sensing : {false, true}) {
    Module::Options options;
    options.reference_sensing = reference_sensing;

    ASSERT_TRUE(common::simd::force_impl(Impl::kScalar));
    Module scalar(small_profile(), options);
    const auto scalar_bytes = run_device_scenario(scalar, vpp);

    for (const Impl impl : {Impl::kAvx2, Impl::kAvx512}) {
      if (!common::simd::force_impl(impl)) continue;
      Module simd(small_profile(), options);
      const auto simd_bytes = run_device_scenario(simd, vpp);

      EXPECT_EQ(scalar_bytes, simd_bytes)
          << common::simd::active_impl_name() << " vpp=" << vpp
          << " reference_sensing=" << reference_sensing;
      EXPECT_TRUE(scalar.stats() == simd.stats())
          << common::simd::active_impl_name() << " vpp=" << vpp
          << " reference_sensing=" << reference_sensing;
    }
  }
}

// Nominal, mid-sweep, and B3's VPPmin: the flip probability (and with it the
// fast path vs full-scan mix) changes across these levels.
INSTANTIATE_TEST_SUITE_P(VppLevels, SimdWordWalkDevice,
                         ::testing::Values(2.5, 1.9, 1.6));

}  // namespace
}  // namespace vppstudy::dram
