// Determinism suite for the sensing hot path: the flip-index fast path and
// the reference full-row scan (Module::Options::reference_sensing) must be
// bit-exact -- identical stored bytes, identical ModuleStats, identical
// exported CSV series -- across hammer, retention, and tRCD scenarios, at
// several VPP levels, through every flip-index depth (1/64 to 1/16), and
// past the deepest, where the fast path falls back to the full scan. The
// flip-index counters show which path each case took.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "dram/module.hpp"
#include "softmc/session.hpp"

namespace vppstudy::dram {
namespace {

ModuleProfile small_profile() {
  auto p = chips::profile_by_name("B3").value();
  p.rows_per_bank = 4096;
  return p;
}

Module::Options reference_options() {
  Module::Options o;
  o.reference_sensing = true;
  return o;
}

/// Drive `m` through a mixed scenario: double-sided hammer on a victim, a
/// long unrefreshed wait (retention + weak cells), and a short-tRCD read
/// burst. Returns the victim row's final bytes.
std::vector<std::uint8_t> run_scenario(Module& m, double vpp,
                                       std::uint64_t hc) {
  m.set_trr_enabled(false);
  m.set_vpp(vpp);
  const std::uint32_t victim = 500;
  const auto neighbors = m.mapping().physical_neighbors(victim);
  EXPECT_TRUE(neighbors.valid);

  double t = 100.0;
  (void)m.debug_row_snapshot(0, victim, t);  // initialize victim content

  // Double-sided hammer, then sense the victim.
  EXPECT_TRUE(
      m.hammer_pair(0, neighbors.below, neighbors.above, hc, 46.0, t).ok());
  EXPECT_TRUE(m.activate(0, victim, t).ok());
  t += 35.0;
  EXPECT_TRUE(m.precharge(0, t).ok());

  // Retention: a long unrefreshed window before the next sense.
  t += 300e6;  // 300ms
  EXPECT_TRUE(m.activate(0, victim, t).ok());

  // Short-tRCD reads while the row buffer is still settling.
  for (std::uint32_t c = 0; c < 8; ++c) {
    auto r = m.read(0, c, t + 2.0 + 0.1 * c);
    EXPECT_TRUE(r.has_value());
  }
  t += 50.0;
  EXPECT_TRUE(m.precharge(0, t).ok());

  return m.debug_row_snapshot(0, victim, t);
}

void expect_identical_stats(const ModuleStats& a, const ModuleStats& b) {
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.hammer_bit_flips, b.hammer_bit_flips);
  EXPECT_EQ(a.retention_bit_flips, b.retention_bit_flips);
  EXPECT_EQ(a.trcd_read_errors, b.trcd_read_errors);
  EXPECT_EQ(a.trr_mitigations, b.trr_mitigations);
  EXPECT_EQ(a.ondie_ecc_corrections, b.ondie_ecc_corrections);
}

class SensingEquivalence
    : public ::testing::TestWithParam<std::pair<double, std::uint64_t>> {};

TEST_P(SensingEquivalence, FastAndReferenceAreBitExact) {
  const auto [vpp, hc] = GetParam();
  Module fast(small_profile());
  Module reference(small_profile(), reference_options());
  ASSERT_FALSE(fast.reference_sensing());
  ASSERT_TRUE(reference.reference_sensing());

  const auto fast_bytes = run_scenario(fast, vpp, hc);
  const auto ref_bytes = run_scenario(reference, vpp, hc);

  ASSERT_EQ(fast_bytes.size(), ref_bytes.size());
  EXPECT_EQ(fast_bytes, ref_bytes);
  expect_identical_stats(fast.stats(), reference.stats());
}

// VPP levels from nominal down to VPPmin (1.6V for B3). 2M and 4M
// activations put the flip probability in the deep band (1/128 to 1/16);
// 8M pushes it past the deepest index, so the fast path takes the
// full-scan fallback (equivalence must hold there too).
INSTANTIATE_TEST_SUITE_P(
    VppLevels, SensingEquivalence,
    ::testing::Values(std::pair<double, std::uint64_t>{2.5, 120000},
                      std::pair<double, std::uint64_t>{1.8, 120000},
                      std::pair<double, std::uint64_t>{1.6, 120000},
                      std::pair<double, std::uint64_t>{2.5, 2000000},
                      std::pair<double, std::uint64_t>{1.6, 4000000},
                      std::pair<double, std::uint64_t>{2.5, 8000000}));

/// One row hammered through a ladder of counts, sensed after each rung:
/// bytes and stats equal after every rung.
TEST(SensingEquivalence, HammerLadderThroughTheDeepBand) {
  Module fast(small_profile());
  Module reference(small_profile(), reference_options());
  double t = 100.0;
  for (Module* m : {&fast, &reference}) {
    m->set_trr_enabled(false);
    (void)m->debug_row_snapshot(0, 500, t);
  }
  const auto neighbors = fast.mapping().physical_neighbors(500);
  // p from about 1e-3 to 1/30, then about 1/6, past the deepest index.
  for (const std::uint64_t hc :
       {300000u, 600000u, 1000000u, 1500000u, 2000000u, 3000000u, 8000000u}) {
    double end = t;
    for (Module* m : {&fast, &reference}) {
      end = t;
      ASSERT_TRUE(m->hammer_pair(0, neighbors.below, neighbors.above, hc,
                                 46.0, end)
                      .ok());
      ASSERT_TRUE(m->activate(0, 500, end).ok());
      ASSERT_TRUE(m->precharge(0, end + 35.0).ok());
    }
    t = end + 50.0;
    EXPECT_EQ(fast.debug_row_snapshot(0, 500, t),
              reference.debug_row_snapshot(0, 500, t))
        << "hc " << hc;
    expect_identical_stats(fast.stats(), reference.stats());
  }
  EXPECT_GT(fast.stats().hammer_bit_flips, 0u);
  const FlipIndexStats& index = fast.flip_index_stats();
  EXPECT_GE(index.builds, 2u);  // grew past the first depth
  EXPECT_GE(index.index_senses, 6u);
  EXPECT_GE(index.full_row_scans, 1u);  // the last rung
  EXPECT_EQ(reference.flip_index_stats().index_senses, 0u);
  EXPECT_EQ(reference.flip_index_stats().builds, 0u);
}

/// Alg. 3's retention windows, 16 ms to 16 s, on one row at 80C: each
/// window's p is larger than the last, so the row's index grows through
/// its depths, and only the 16 s window is past the deepest.
TEST(SensingEquivalence, RetentionWindowLadderFrom16msTo16s) {
  Module fast(small_profile());
  Module reference(small_profile(), reference_options());
  double t = 100.0;
  for (Module* m : {&fast, &reference}) {
    m->set_trr_enabled(false);
    m->set_temperature(80.0);
    (void)m->debug_row_snapshot(0, 500, t);
  }
  FlipIndexStats within_cap;
  for (double ms = 16; ms <= 16384; ms *= 2) {
    t += ms * 1e6;
    for (Module* m : {&fast, &reference}) {
      ASSERT_TRUE(m->activate(0, 500, t).ok());
      ASSERT_TRUE(m->precharge(0, t + 35.0).ok());
    }
    t += 50.0;
    EXPECT_EQ(fast.debug_row_snapshot(0, 500, t),
              reference.debug_row_snapshot(0, 500, t))
        << ms << " ms";
    expect_identical_stats(fast.stats(), reference.stats());
    if (ms == 8192) within_cap = fast.flip_index_stats();
  }
  EXPECT_GT(fast.stats().retention_bit_flips, 0u);
  // Through 8 s every p is within the deepest index: after the first
  // build, the row is never scanned, only rebuilt deeper ...
  EXPECT_EQ(within_cap.full_row_scans, 0u);
  EXPECT_GE(within_cap.builds, 2u);
  EXPECT_LE(within_cap.builds, 3u);
  EXPECT_GE(within_cap.index_senses, 5u);
  EXPECT_GT(within_cap.index_bytes, 0u);
  // ... and the 16 s window takes the full-row fallback.
  EXPECT_EQ(fast.flip_index_stats().full_row_scans, 1u);
  EXPECT_EQ(fast.flip_index_stats().builds, within_cap.builds);
  EXPECT_EQ(reference.flip_index_stats().index_senses, 0u);
}

TEST(SensingEquivalence, FlipsAccumulateIdenticallyAcrossRepeatedHammer) {
  // Repeated sub-threshold-to-threshold hammering: every sense reuses the
  // cached flip index; the reference re-scans. Stats must track exactly.
  Module fast(small_profile());
  Module reference(small_profile(), reference_options());
  for (Module* m : {&fast, &reference}) {
    m->set_trr_enabled(false);
    double t = 100.0;
    (void)m->debug_row_snapshot(0, 500, t);
    const auto neighbors = m->mapping().physical_neighbors(500);
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(m->hammer_pair(0, neighbors.below, neighbors.above, 150000,
                                 46.0, t)
                      .ok());
      ASSERT_TRUE(m->activate(0, 500, t).ok());
      t += 35.0;
      ASSERT_TRUE(m->precharge(0, t).ok());
      t += 15.0;
    }
  }
  expect_identical_stats(fast.stats(), reference.stats());
  EXPECT_GT(fast.stats().hammer_bit_flips, 0u);
  EXPECT_EQ(fast.debug_row_snapshot(0, 500, 1e9),
            reference.debug_row_snapshot(0, 500, 1e9));
}

TEST(SensingEquivalence, StudySweepCsvAndInstrumentationIdentical) {
  // End-to-end: the exported CSV series and the per-sweep instrumentation
  // sidecar of a RowHammer sweep must not depend on the sensing path. A
  // zero-worker pool runs every shard inline on arena slot 0, so the session
  // seeded there -- switched to the path under test -- is the one the whole
  // sweep reuses (reset_for_job leaves Module options as set).
  const auto run = [](bool reference) {
    common::WorkerLocal<core::SessionArena> arenas(0);
    common::ThreadPool pool(0);
    softmc::Session& session = arenas.slot(0).acquire(small_profile());
    session.module().set_reference_sensing(reference);

    core::CampaignPlan plan;
    plan.sweep = core::SweepConfig::quick();
    plan.sweep.vpp_levels = {2.5, 1.8, 1.5};
    plan.modules = {small_profile()};
    auto grids = core::CampaignEngine(std::move(plan), nullptr,
                                      {&arenas, &pool})
                     .run_hammer();
    EXPECT_TRUE(grids.has_value());
    EXPECT_EQ(arenas.slot(0).sessions.size(), 1u);
    EXPECT_EQ(arenas.slot(0).sessions.begin()->second.get(), &session);
    EXPECT_EQ(session.module().reference_sensing(), reference);
    return grids->front().to_sweep();
  };
  const core::ModuleSweepResult fast = run(false);
  const core::ModuleSweepResult reference = run(true);

  EXPECT_EQ(core::to_csv(fast).str(), core::to_csv(reference).str());
  EXPECT_EQ(fast.instrumentation, reference.instrumentation);
  EXPECT_EQ(core::instrumentation_json(fast).str(),
            core::instrumentation_json(reference).str());
}

}  // namespace
}  // namespace vppstudy::dram
