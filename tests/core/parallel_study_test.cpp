// Sharded sweep tests: stream-seed keying of the shard building blocks
// (core/parallel_study.hpp), and the CampaignEngine guarantees built on it --
// byte-identical output at any job count and any shard granularity, and a
// campaign seed that moves noise but not physics.
#include "core/parallel_study.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"

namespace vppstudy::core {
namespace {

std::vector<dram::ModuleProfile> small_modules() {
  std::vector<dram::ModuleProfile> modules;
  for (const char* name : {"A0", "B3", "C1"}) {
    auto p = chips::profile_by_name(name).value();
    p.rows_per_bank = 4096;
    modules.push_back(std::move(p));
  }
  return modules;
}

CampaignPlan small_plan(int jobs) {
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5, 2.0, 1.6};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 4;
  plan.modules = small_modules();
  plan.seed = 0;
  plan.jobs = jobs;
  return plan;
}

/// The per-module legacy CSV exports of a grid vector, concatenated.
template <typename Grids>
std::string concat_csv(const Grids& grids) {
  std::string all;
  for (const auto& grid : grids) all += to_csv(grid.to_sweep()).str();
  return all;
}

TEST(ParallelStudy, JobStreamSeedSeparatesCells) {
  const auto base = job_stream_seed(0, 11, 2500, JobPhase::kRowHammer);
  EXPECT_NE(base, job_stream_seed(1, 11, 2500, JobPhase::kRowHammer));
  EXPECT_NE(base, job_stream_seed(0, 12, 2500, JobPhase::kRowHammer));
  EXPECT_NE(base, job_stream_seed(0, 11, 1600, JobPhase::kRowHammer));
  EXPECT_NE(base, job_stream_seed(0, 11, 2500, JobPhase::kTrcd));
  // Same key, same stream: the whole determinism story rests on this.
  EXPECT_EQ(base, job_stream_seed(0, 11, 2500, JobPhase::kRowHammer));
}

TEST(ParallelStudy, VppMillivoltsIsStableUnderLevelArithmetic) {
  EXPECT_EQ(vpp_millivolts(2.5), 2500u);
  EXPECT_EQ(vpp_millivolts(2.5 - 0.1 - 0.1 - 0.1), 2200u);
  EXPECT_EQ(vpp_millivolts(1.4000000000000004), 1400u);
}

TEST(ParallelStudy, RowHammerCsvIsByteIdenticalAcrossJobCounts) {
  auto s = CampaignEngine(small_plan(1)).run_hammer();
  auto p = CampaignEngine(small_plan(8)).run_hammer();
  ASSERT_TRUE(s.has_value()) << s.error().message;
  ASSERT_TRUE(p.has_value()) << p.error().message;
  ASSERT_EQ(s->size(), 3u);
  EXPECT_EQ(concat_csv(*s), concat_csv(*p));
}

TEST(ParallelStudy, TrcdCsvIsByteIdenticalAcrossJobCounts) {
  auto s = CampaignEngine(small_plan(1)).run_trcd();
  auto p = CampaignEngine(small_plan(8)).run_trcd();
  ASSERT_TRUE(s.has_value()) << s.error().message;
  ASSERT_TRUE(p.has_value()) << p.error().message;
  EXPECT_EQ(concat_csv(*s), concat_csv(*p));
}

TEST(ParallelStudy, RetentionCsvIsByteIdenticalAcrossJobCounts) {
  auto plan = small_plan(1);
  plan.sweep.vpp_levels = {2.5, 2.0};
  auto s = CampaignEngine(plan).run_retention();
  plan.jobs = 8;
  auto p = CampaignEngine(plan).run_retention();
  ASSERT_TRUE(s.has_value()) << s.error().message;
  ASSERT_TRUE(p.has_value()) << p.error().message;
  EXPECT_EQ(concat_csv(*s), concat_csv(*p));
}

TEST(ParallelStudy, RowStreamSeedSeparatesRows) {
  const auto base = row_stream_seed(0, 11, 2500, JobPhase::kRowHammer, 500);
  EXPECT_NE(base, row_stream_seed(0, 11, 2500, JobPhase::kRowHammer, 501));
  EXPECT_NE(base, row_stream_seed(0, 11, 2500, JobPhase::kTrcd, 500));
  EXPECT_NE(base, row_stream_seed(1, 11, 2500, JobPhase::kRowHammer, 500));
  EXPECT_EQ(base, row_stream_seed(0, 11, 2500, JobPhase::kRowHammer, 500));
}

TEST(ParallelStudy, ShardGranularityIsAPurePerformanceKnob) {
  // rows_per_shard only changes how work is cut into jobs; per-row noise
  // streams make every granularity -- including 0, one shard per cell --
  // produce byte-identical CSV exports.
  auto plan = small_plan(4);
  plan.sweep.vpp_levels = {2.5, 1.6};
  std::vector<std::string> hammer_csv, trcd_csv, retention_csv;
  for (const std::uint32_t rows_per_shard : {0u, 1u, 3u, 64u}) {
    plan.rows_per_shard = rows_per_shard;
    CampaignEngine engine(plan);
    auto h = engine.run_hammer();
    ASSERT_TRUE(h.has_value()) << h.error().message;
    hammer_csv.push_back(concat_csv(*h));
    auto t = engine.run_trcd();
    ASSERT_TRUE(t.has_value()) << t.error().message;
    trcd_csv.push_back(concat_csv(*t));
    auto r = engine.run_retention();
    ASSERT_TRUE(r.has_value()) << r.error().message;
    retention_csv.push_back(concat_csv(*r));
  }
  for (std::size_t i = 1; i < hammer_csv.size(); ++i) {
    EXPECT_EQ(hammer_csv[0], hammer_csv[i]) << "granularity case " << i;
    EXPECT_EQ(trcd_csv[0], trcd_csv[i]) << "granularity case " << i;
    EXPECT_EQ(retention_csv[0], retention_csv[i]) << "granularity case " << i;
  }
}

TEST(ParallelStudy, CampaignSeedChangesNoiseNotPhysics) {
  auto plan = small_plan(2);
  plan.sweep.vpp_levels = {2.5};
  auto a = CampaignEngine(plan).run_hammer();
  plan.seed = 99;
  auto b = CampaignEngine(plan).run_hammer();
  ASSERT_TRUE(a.has_value()) << a.error().message;
  ASSERT_TRUE(b.has_value()) << b.error().message;
  // Same modules, same rows sampled (physics keyed by profile seed)...
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t m = 0; m < a->size(); ++m) {
    EXPECT_EQ((*a)[m].rows, (*b)[m].rows);
  }
}

}  // namespace
}  // namespace vppstudy::core
