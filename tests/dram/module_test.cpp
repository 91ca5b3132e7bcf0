#include "dram/module.hpp"

#include <gtest/gtest.h>

#include "chips/module_db.hpp"
#include "dram/data_pattern.hpp"

namespace vppstudy::dram {
namespace {

ModuleProfile small_profile() {
  auto p = chips::profile_by_name("B3").value();
  p.rows_per_bank = 4096;  // keep tests snappy
  return p;
}

std::array<std::uint8_t, kBytesPerColumn> word_of(std::uint8_t b) {
  std::array<std::uint8_t, kBytesPerColumn> w{};
  w.fill(b);
  return w;
}

TEST(Module, WriteThenReadRoundTrips) {
  Module m(small_profile());
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 100, t).ok());
  t += 13.5;
  const auto w = word_of(0x5A);
  ASSERT_TRUE(m.write(0, 7, w, t).ok());
  t += 5.0;
  auto r = m.read(0, 7, t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, w);
}

TEST(Module, ActOnOpenBankRejected) {
  Module m(small_profile());
  ASSERT_TRUE(m.activate(0, 100, 0.0).ok());
  const auto st = m.activate(0, 101, 50.0);
  EXPECT_FALSE(st.ok());
}

TEST(Module, ReadWithoutOpenRowRejected) {
  Module m(small_profile());
  EXPECT_FALSE(m.read(0, 0, 0.0).has_value());
  EXPECT_FALSE(m.write(0, 0, word_of(0), 0.0).ok());
}

TEST(Module, PrechargeThenReactivateWorks) {
  Module m(small_profile());
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 100, t).ok());
  t += 35.0;
  ASSERT_TRUE(m.precharge(0, t).ok());
  t += 13.5;
  EXPECT_TRUE(m.activate(0, 101, t).ok());
}

TEST(Module, OutOfRangeAddressesRejected) {
  Module m(small_profile());
  EXPECT_FALSE(m.activate(99, 0, 0.0).ok());
  EXPECT_FALSE(m.activate(0, 1u << 30, 0.0).ok());
  ASSERT_TRUE(m.activate(0, 0, 0.0).ok());
  EXPECT_FALSE(m.read(0, kColumnsPerRow, 20.0).has_value());
}

TEST(Module, UnresponsiveBelowVppmin) {
  auto profile = small_profile();  // B3: VPPmin = 1.6V
  Module m(std::move(profile));
  m.set_vpp(1.5);
  EXPECT_FALSE(m.responsive());
  EXPECT_FALSE(m.activate(0, 0, 0.0).ok());
  m.set_vpp(1.6);
  EXPECT_TRUE(m.responsive());
  EXPECT_TRUE(m.activate(0, 0, 0.0).ok());
}

TEST(Module, DataSurvivesShortIdlePeriods) {
  Module m(small_profile());
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 200, t).ok());
  ASSERT_TRUE(m.write(0, 0, word_of(0xC3), t + 14.0).ok());
  ASSERT_TRUE(m.precharge(0, t + 50.0).ok());
  // 30ms idle at 50C: no retention flips expected (tests run within the
  // refresh window; section 4.1).
  t += 30e6;
  ASSERT_TRUE(m.activate(0, 200, t).ok());
  auto r = m.read(0, 0, t + 13.5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, word_of(0xC3));
}

TEST(Module, HammerPairCausesFlipsInVictim) {
  Module m(small_profile());
  m.set_trr_enabled(false);
  const std::uint32_t victim = 500;
  const auto n = m.mapping().physical_neighbors(victim);
  ASSERT_TRUE(n.valid);

  double t = 0.0;
  // Victim stores the pattern; aggressors its inverse.
  const auto fill_row = [&](std::uint32_t row, std::uint8_t value) {
    ASSERT_TRUE(m.activate(0, row, t).ok());
    t += 13.5;
    for (std::uint32_t c = 0; c < kColumnsPerRow; ++c) {
      ASSERT_TRUE(m.write(0, c, word_of(value), t).ok());
      t += 3.0;
    }
    t += 20.0;
    ASSERT_TRUE(m.precharge(0, t).ok());
    t += 13.5;
  };
  fill_row(victim, 0xAA);
  fill_row(n.below, 0x55);
  fill_row(n.above, 0x55);

  // Hammer well above this module's HCfirst anchor (16.6K).
  ASSERT_TRUE(m.hammer_pair(0, n.below, n.above, 300'000, 45.5, t).ok());

  const auto data = m.debug_row_snapshot(0, victim, t);
  std::uint64_t flips = 0;
  for (const auto b : data) {
    flips += static_cast<std::uint64_t>(__builtin_popcount(
        static_cast<unsigned>(b ^ 0xAA)));
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(m.stats().hammer_bit_flips, 0u);
  // And flips are at consistently predictable locations: re-running the same
  // experiment on a fresh module reproduces the same flipped bytes.
  Module m2(small_profile());
  m2.set_trr_enabled(false);
  double t2 = 0.0;
  const auto fill2 = [&](std::uint32_t row, std::uint8_t value) {
    ASSERT_TRUE(m2.activate(0, row, t2).ok());
    t2 += 13.5;
    for (std::uint32_t c = 0; c < kColumnsPerRow; ++c) {
      ASSERT_TRUE(m2.write(0, c, word_of(value), t2).ok());
      t2 += 3.0;
    }
    t2 += 20.0;
    ASSERT_TRUE(m2.precharge(0, t2).ok());
    t2 += 13.5;
  };
  fill2(victim, 0xAA);
  fill2(n.below, 0x55);
  fill2(n.above, 0x55);
  ASSERT_TRUE(m2.hammer_pair(0, n.below, n.above, 300'000, 45.5, t2).ok());
  EXPECT_EQ(m2.debug_row_snapshot(0, victim, t2), data);
}

TEST(Module, HammerBelowFloorCausesNoFlips) {
  Module m(small_profile());
  m.set_trr_enabled(false);
  const std::uint32_t victim = 600;
  const auto n = m.mapping().physical_neighbors(victim);
  ASSERT_TRUE(n.valid);
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, victim, t).ok());
  ASSERT_TRUE(m.write(0, 0, word_of(0xAA), t + 14).ok());
  ASSERT_TRUE(m.precharge(0, t + 50).ok());
  t += 100.0;
  // 1K activations per side: far below the 16.6K HCfirst anchor.
  ASSERT_TRUE(m.hammer_pair(0, n.below, n.above, 1000, 45.5, t).ok());
  EXPECT_EQ(m.stats().hammer_bit_flips, 0u);
}

TEST(Module, RefreshPreventsRetentionDecay) {
  auto profile = small_profile();
  Module m(std::move(profile));
  m.set_temperature(80.0);
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 50, t).ok());
  ASSERT_TRUE(m.write(0, 0, word_of(0xFF), t + 14).ok());
  ASSERT_TRUE(m.precharge(0, t + 50).ok());
  t += 100.0;
  // Refresh the whole device repeatedly over a long period: every row is
  // visited every 8192 REFs, so issue them densely and verify no decay.
  for (int i = 0; i < 8192; ++i) {
    ASSERT_TRUE(m.refresh(t).ok());
    t += 7800.0;
  }
  EXPECT_GT(m.stats().refreshes, 8000u);
}

// Regression for the refresh-stripe wrap bug: refresh() iterated
// `refresh_cursor_ + r` without reducing modulo rows_per_bank, so when the
// stripe reached past the end of the bank -- e.g. an MRS switching to FGR 2x
// widened it while the cursor sat at the last 1x position -- the wrapped tail
// rows (physical 0, 1, ...) were silently skipped for that cycle.
//
// Detection uses the neighbor-activation snapshots sensing takes: a REF that
// visits physical row 0 between two sub-threshold hammer phases absorbs the
// first phase's disturbance into a fresh snapshot, so the final sense sees
// only the second phase (below the deterministic flip floor -> zero flips).
// If the REF skips row 0, the phases add up past the floor and bits flip.
TEST(Module, RefreshStripeWrapsAroundBankEnd) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 16384;  // stripe 2 at 1x refresh, 4 under FGR 2x

  // Single-sided hammer on the physical neighbor of row 0: the victim's
  // effective count is half the aggressor activations.
  const auto victim_flips = [&](std::uint64_t aggressor_acts) -> int {
    Module m(profile);
    m.set_trr_enabled(false);
    const std::uint32_t victim = m.mapping().physical_to_logical(0);
    const std::uint32_t agg1 = m.mapping().physical_to_logical(1);
    const std::uint32_t agg3 = m.mapping().physical_to_logical(3);
    double t = 100.0;
    const auto before = m.debug_row_snapshot(0, victim, t);
    EXPECT_TRUE(m.hammer_pair(0, agg1, agg3, aggressor_acts, 46.0, t).ok());
    const auto after = m.debug_row_snapshot(0, victim, t);
    int flips = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      flips += __builtin_popcount(
          static_cast<unsigned>(before[i] ^ after[i]));
    }
    return flips;
  };

  // Calibrate: the smallest activation count that flips this victim. The
  // flip floor is a hard threshold, so any count below ~80% of this is
  // deterministically flip-free.
  std::uint64_t acts_flip = 20000;
  while (victim_flips(acts_flip) == 0) {
    acts_flip = acts_flip + acts_flip / 4;
    ASSERT_LT(acts_flip, 10'000'000u) << "no flips found during calibration";
  }
  const std::uint64_t phase_acts = acts_flip / 2;

  // The scenario: park the refresh cursor at the last 1x stripe position,
  // widen the stripe with FGR 2x, hammer, REF (must wrap onto rows 0 and 1),
  // hammer again, sense.
  Module m(profile);
  m.set_trr_enabled(false);
  const std::uint32_t victim = m.mapping().physical_to_logical(0);
  const std::uint32_t agg1 = m.mapping().physical_to_logical(1);
  const std::uint32_t agg3 = m.mapping().physical_to_logical(3);
  double t = 100.0;
  const auto initial = m.debug_row_snapshot(0, victim, t);
  for (int i = 0; i < 8191; ++i) {  // cursor: 8191 * 2 = 16382
    ASSERT_TRUE(m.refresh(t).ok());
    t += 200.0;
  }
  ModeRegisters fgr;
  fgr.refresh_mode = RefreshMode::kFgr2x;
  ASSERT_TRUE(m.load_mode_register(4, encode_mr4(fgr), t).ok());

  ASSERT_TRUE(m.hammer_pair(0, agg1, agg3, phase_acts, 46.0, t).ok());
  ASSERT_TRUE(m.refresh(t).ok());  // covers 16382, 16383, -> 0, 1
  ASSERT_TRUE(m.hammer_pair(0, agg1, agg3, phase_acts, 46.0, t).ok());

  const auto final_bytes = m.debug_row_snapshot(0, victim, t);
  EXPECT_EQ(initial, final_bytes)
      << "REF did not wrap onto physical row 0: the two sub-threshold "
         "hammer phases accumulated into a super-threshold disturbance";
  EXPECT_EQ(m.stats().hammer_bit_flips, 0u);
}

TEST(Module, RefreshRequiresPrechargedBanks) {
  Module m(small_profile());
  ASSERT_TRUE(m.activate(0, 1, 0.0).ok());
  EXPECT_FALSE(m.refresh(40.0).ok());
  ASSERT_TRUE(m.precharge(0, 40.0).ok());
  EXPECT_TRUE(m.refresh(60.0).ok());
}

TEST(Module, ShortTrcdReadsReturnErrors) {
  auto profile = chips::profile_by_name("A0").value();  // trcd0 = 12.7ns
  profile.rows_per_bank = 4096;
  Module m(std::move(profile));
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 300, t).ok());
  ASSERT_TRUE(m.write(0, 5, word_of(0xF0), t + 14).ok());
  ASSERT_TRUE(m.precharge(0, t + 60).ok());
  t += 100.0;
  ASSERT_TRUE(m.activate(0, 300, t).ok());
  // Read far too early: 6ns after ACT on a module whose tRCDmin is ~12.7ns.
  auto early = m.read(0, 5, t + 6.0);
  ASSERT_TRUE(early.has_value());
  EXPECT_NE(*early, word_of(0xF0));
  EXPECT_GT(m.stats().trcd_read_errors, 0u);
  // A nominal-latency read of the same column is clean.
  auto ok = m.read(0, 5, t + 13.5);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, word_of(0xF0));
}

TEST(Module, StatsCountCommands) {
  Module m(small_profile());
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, 1, t).ok());
  ASSERT_TRUE(m.write(0, 0, word_of(1), t + 14).ok());
  auto r = m.read(0, 0, t + 20);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(m.precharge(0, t + 50).ok());
  EXPECT_EQ(m.stats().activates, 1u);
  EXPECT_EQ(m.stats().writes, 1u);
  EXPECT_EQ(m.stats().reads, 1u);
  EXPECT_EQ(m.stats().precharges, 1u);
}

TEST(Module, OnDieEccSuppressesSingleBitFlips) {
  auto profile = small_profile();
  profile.has_ondie_ecc = true;
  Module m(std::move(profile));
  m.set_trr_enabled(false);
  const std::uint32_t victim = 500;
  const auto n = m.mapping().physical_neighbors(victim);
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, victim, t).ok());
  for (std::uint32_t c = 0; c < kColumnsPerRow; ++c) {
    ASSERT_TRUE(m.write(0, c, word_of(0xAA), t + 14 + c).ok());
  }
  ASSERT_TRUE(m.precharge(0, t + 14 + kColumnsPerRow + 20).ok());
  t += 3000.0;
  ASSERT_TRUE(m.hammer_pair(0, n.below, n.above, 40'000, 45.5, t).ok());
  (void)m.debug_row_snapshot(0, victim, t);
  // Moderate hammering produces sparse flips; on-die ECC eats the singles.
  EXPECT_GT(m.stats().ondie_ecc_corrections, 0u);
}

// One sense can see both mechanisms at once: a victim left unrefreshed for
// 30 s (~40% of its charged cells leak) while its neighbours take 2M
// activations each. That full-row scan classifies a bit that qualifies for
// both as a hammer flip, so the two lists stay disjoint and every counted
// flip is one flipped bit. (A bit in both lists would be counted twice and
// XORed back to its stored value.)
TEST(Module, HammerAndRetentionFlipsInOneSenseAreDisjoint) {
  Module m(small_profile());
  m.set_trr_enabled(false);
  m.set_temperature(85.0);
  const std::uint32_t victim = 500;
  const auto n = m.mapping().physical_neighbors(victim);
  ASSERT_TRUE(n.valid);
  double t = 0.0;
  ASSERT_TRUE(m.activate(0, victim, t).ok());
  for (std::uint32_t c = 0; c < kColumnsPerRow; ++c) {
    ASSERT_TRUE(m.write(0, c, word_of(0xAA), t + 14 + c).ok());
  }
  ASSERT_TRUE(m.precharge(0, t + 14 + kColumnsPerRow + 20).ok());
  t += 3000.0;
  ASSERT_TRUE(m.hammer_pair(0, n.below, n.above, 2'000'000, 45.5, t).ok());
  t += 30e9;
  const auto data = m.debug_row_snapshot(0, victim, t);

  std::uint64_t flipped = 0;
  for (const auto b : data) {
    flipped += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(b ^ 0xAA)));
  }
  const ModuleStats& stats = m.stats();
  EXPECT_GT(stats.hammer_bit_flips, 100u);
  EXPECT_GT(stats.retention_bit_flips, 1000u);
  EXPECT_EQ(flipped, stats.hammer_bit_flips + stats.retention_bit_flips);
}

}  // namespace
}  // namespace vppstudy::dram
