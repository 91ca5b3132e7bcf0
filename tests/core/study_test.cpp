// Sweep-level behaviour of the paper's three algorithms on one module at a
// time: VPPmin clipping, full series, Table 3 anchors, normalization, the
// aggregate observations, and the tRCD / retention directions. Each sweep is
// a one-module CampaignPlan run inline at seed 0.
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {
namespace {

dram::ModuleProfile small_profile(const char* name) {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

CampaignEngine one_module(const char* name, const SweepConfig& sweep) {
  CampaignPlan plan;
  plan.sweep = sweep;
  plan.modules = {small_profile(name)};
  return CampaignEngine(std::move(plan));
}

common::Expected<ModuleSweepResult> rowhammer_sweep(const char* name,
                                                    const SweepConfig& sweep) {
  VPP_ASSIGN_OR_RETURN(const auto grids, one_module(name, sweep).run_hammer());
  return grids.front().to_sweep();
}

common::Expected<TrcdSweepResult> trcd_sweep(const char* name,
                                             const SweepConfig& sweep) {
  VPP_ASSIGN_OR_RETURN(const auto grids, one_module(name, sweep).run_trcd());
  return grids.front().to_sweep();
}

common::Expected<RetentionSweepResult> retention_sweep(
    const char* name, const SweepConfig& sweep) {
  VPP_ASSIGN_OR_RETURN(const auto grids,
                       one_module(name, sweep).run_retention());
  return grids.front().to_sweep();
}

SweepConfig tiny_config() {
  auto c = SweepConfig::quick();
  c.vpp_levels = {2.5, 2.0, 1.6};
  c.sampling.chunks = 2;
  c.sampling.rows_per_chunk = 6;
  return c;
}

TEST(SweepConfig, PaperGridIsFull) {
  const auto c = SweepConfig::paper();
  EXPECT_EQ(c.vpp_levels.size(), 12u);  // 2.5 .. 1.4 in 0.1 steps
  EXPECT_DOUBLE_EQ(c.vpp_levels.front(), 2.5);
  EXPECT_NEAR(c.vpp_levels.back(), 1.4, 1e-9);
  EXPECT_EQ(c.hammer.num_iterations, 10);
  EXPECT_EQ(c.sampling.rows_per_chunk * c.sampling.chunks, 4096u);
}

TEST(Study, LevelsClipAtVppmin) {
  auto sweep = rowhammer_sweep("B0", tiny_config());  // VPPmin = 2.0
  ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
  ASSERT_EQ(sweep->vpp_levels.size(), 2u);  // 2.5 and 2.0 only
  EXPECT_DOUBLE_EQ(sweep->vpp_levels.back(), 2.0);
}

TEST(Study, RowhammerSweepProducesFullSeries) {
  auto sweep = rowhammer_sweep("B3", tiny_config());
  ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
  EXPECT_FALSE(sweep->rows.empty());
  for (const auto& row : sweep->rows) {
    ASSERT_EQ(row.hc_first.size(), sweep->vpp_levels.size());
    ASSERT_EQ(row.ber.size(), sweep->vpp_levels.size());
    for (const auto hc : row.hc_first) EXPECT_GT(hc, 0u);
  }
}

TEST(Study, ModuleMinHcFirstNearTable3Anchor) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 12;
  // B3's anchors: 16.6K @2.5V, 21.1K @1.6V.
  auto sweep = rowhammer_sweep("B3", c);
  ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
  const double nominal =
      static_cast<double>(sweep->min_hc_first_at(0));
  EXPECT_NEAR(nominal, 16.6e3, 16.6e3 * 0.25);
  const double at_min = static_cast<double>(
      sweep->min_hc_first_at(sweep->vpp_levels.size() - 1));
  // B3's HCfirst increases markedly toward VPPmin (Table 3: +27%).
  EXPECT_GT(at_min, nominal * 1.02);
}

TEST(Study, NormalizedSeriesStartAtOne) {
  auto sweep = rowhammer_sweep("C0", tiny_config());
  ASSERT_TRUE(sweep.has_value());
  for (const double v : sweep->normalized_hc_first_at(0)) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
  for (const double v : sweep->normalized_ber_at(0)) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(Study, AggregateObservationsMatchHeadlineDirections) {
  // Run two modules with opposite-ish profiles and check the aggregate
  // observation machinery (exact magnitudes are covered by the calibration
  // suite over more rows).
  std::vector<ModuleSweepResult> sweeps;
  for (const char* name : {"B3", "C0"}) {
    auto sweep = rowhammer_sweep(name, tiny_config());
    ASSERT_TRUE(sweep.has_value()) << name;
    sweeps.push_back(std::move(*sweep));
  }
  const auto obs = aggregate_observations(sweeps);
  EXPECT_GT(obs.mean_hc_first_increase, 0.0);   // Obsv. 4 direction
  EXPECT_GT(obs.mean_ber_reduction, 0.0);       // Obsv. 1 direction
  EXPECT_GT(obs.fraction_rows_hc_increase, 0.5);
  EXPECT_GT(obs.fraction_rows_ber_decrease, 0.5);
  EXPECT_LE(obs.fraction_rows_hc_increase +
                obs.fraction_rows_hc_decrease, 1.0 + 1e-9);
}

TEST(Study, TrcdSweepHealthyVsFailingModules) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 4;
  {
    auto sweep = trcd_sweep("C0", c);
    ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
    for (const double t : sweep->trcd_min_ns) EXPECT_LE(t, 13.5);
  }
  {
    auto sweep = trcd_sweep("A0", c);
    ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
    EXPECT_LE(sweep->trcd_min_ns.front(), 13.5);   // fine at nominal VPP
    EXPECT_GT(sweep->trcd_min_ns.back(), 13.5);    // fails toward VPPmin
    EXPECT_LE(sweep->trcd_min_ns.back(), 24.0);    // fixed by 24ns (Obsv. 7)
  }
}

TEST(Study, RetentionSweepMeanBerGrowsWithWindowAndLowVpp) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 4;
  // C2's VPPmin is 1.5V, so the 1.6V level (with a real restoration
  // deficit) stays in the usable grid; above ~2.0V restoration is full and
  // retention is VPP-independent by design.
  auto sweep = retention_sweep("C2", c);
  ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
  ASSERT_FALSE(sweep->trefw_ms.empty());
  ASSERT_EQ(sweep->mean_ber.size(), sweep->vpp_levels.size());
  // Monotone in the refresh window at each level.
  for (const auto& series : sweep->mean_ber) {
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i], series[i - 1] - 1e-12);
    }
  }
  // At the longest window, lower VPP leaks more (Obsv. 12).
  EXPECT_GT(sweep->mean_ber.back().back(), sweep->mean_ber.front().back());
}

}  // namespace
}  // namespace vppstudy::core
