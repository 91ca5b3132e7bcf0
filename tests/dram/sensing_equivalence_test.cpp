// Determinism suite for the sensing hot path: the flip-index fast path and
// the reference full-row scan (Module::Options::reference_sensing) must be
// bit-exact -- identical stored bytes, identical ModuleStats, identical
// exported CSV series -- across hammer, retention, and tRCD scenarios, at
// several VPP levels, including the high-probability regime where the fast
// path falls back to the full scan.
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

// VPP levels from nominal down to VPPmin (1.6V for B3); the 2M-activation case
// pushes the flip probability past the index tail so the fast path takes
// the full-scan fallback (equivalence must hold there too).
INSTANTIATE_TEST_SUITE_P(
    VppLevels, SensingEquivalence,
    ::testing::Values(std::pair<double, std::uint64_t>{2.5, 120000},
                      std::pair<double, std::uint64_t>{1.8, 120000},
                      std::pair<double, std::uint64_t>{1.6, 120000},
                      std::pair<double, std::uint64_t>{2.5, 2000000}));

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
