// CampaignEngine contract tests: a multi-module sharded campaign is
// bit-identical to serial one-module runs of the same sweep, axis
// points seed and normalize per the core/axis.hpp contract, and a campaign
// killed mid-shard resumes from its manifest to a byte-identical merged
// result.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "harness/pattern_spec.hpp"

namespace vppstudy::core {
namespace {

SweepConfig small_sweep() {
  SweepConfig cfg;
  cfg.vpp_levels = {2.5, 2.1, 1.7};
  cfg.sampling.chunks = 2;
  cfg.sampling.rows_per_chunk = 2;
  cfg.hammer.num_iterations = 1;
  cfg.trcd.num_iterations = 1;
  cfg.retention.num_iterations = 1;
  return cfg;
}

CampaignPlan small_plan(std::uint64_t seed = 7, int jobs = 3) {
  CampaignPlan plan;
  plan.sweep = small_sweep();
  plan.modules = {chips::profile_by_name("B3").value(),
                  chips::profile_by_name("A0").value()};
  plan.seed = seed;
  plan.jobs = jobs;
  plan.rows_per_shard = 2;
  return plan;
}

/// The serial reference for module `m` of `plan`: a one-module plan at
/// jobs = 1 and the default shard granularity.
CampaignEngine serial_reference(const CampaignPlan& plan, std::size_t m) {
  CampaignPlan one;
  one.sweep = plan.sweep;
  one.modules = {plan.modules[m]};
  one.seed = plan.seed;
  return CampaignEngine(std::move(one));
}

std::string temp_manifest_path(const char* tag) {
  return ::testing::TempDir() + "campaign_manifest_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

// --- Equivalence vs serial one-module runs -----------------------------------

TEST(CampaignEngineEquivalence, HammerGridMatchesSerialStudy) {
  // A multi-module campaign on 3 workers with 2-row shards must reproduce,
  // module for module, a serial one-module run at the default granularity.
  const CampaignPlan plan = small_plan(/*seed=*/0);
  auto grids = CampaignEngine(plan).run_hammer();
  ASSERT_TRUE(grids.has_value()) << grids.error().to_string();
  ASSERT_EQ(grids->size(), plan.modules.size());

  for (std::size_t m = 0; m < plan.modules.size(); ++m) {
    auto reference_grids = serial_reference(plan, m).run_hammer();
    ASSERT_TRUE(reference_grids.has_value());
    const ModuleSweepResult reference = reference_grids->front().to_sweep();
    const ModuleSweepResult sweep = (*grids)[m].to_sweep();
    EXPECT_EQ(sweep.vpp_levels, reference.vpp_levels);
    ASSERT_EQ(sweep.rows.size(), reference.rows.size());
    for (std::size_t r = 0; r < sweep.rows.size(); ++r) {
      EXPECT_EQ(sweep.rows[r].row, reference.rows[r].row);
      EXPECT_EQ(sweep.rows[r].hc_first, reference.rows[r].hc_first);
      EXPECT_EQ(sweep.rows[r].ber, reference.rows[r].ber);  // bitwise
    }
    EXPECT_EQ(to_csv(sweep).str(), to_csv(reference).str());
  }
}

TEST(CampaignEngineEquivalence, TrcdAndRetentionGridsMatchSerialStudy) {
  const CampaignPlan plan = small_plan(/*seed=*/0);
  auto trcd_grids = CampaignEngine(plan).run_trcd();
  ASSERT_TRUE(trcd_grids.has_value()) << trcd_grids.error().to_string();
  auto ret_grids = CampaignEngine(plan).run_retention();
  ASSERT_TRUE(ret_grids.has_value()) << ret_grids.error().to_string();

  for (std::size_t m = 0; m < plan.modules.size(); ++m) {
    CampaignEngine reference = serial_reference(plan, m);
    auto trcd_ref = reference.run_trcd();
    ASSERT_TRUE(trcd_ref.has_value());
    const TrcdSweepResult trcd = (*trcd_grids)[m].to_sweep();
    const TrcdSweepResult trcd_expected = trcd_ref->front().to_sweep();
    EXPECT_EQ(trcd.vpp_levels, trcd_expected.vpp_levels);
    EXPECT_EQ(trcd.trcd_min_ns, trcd_expected.trcd_min_ns);

    auto ret_ref = reference.run_retention();
    ASSERT_TRUE(ret_ref.has_value());
    const RetentionSweepResult ret = (*ret_grids)[m].to_sweep();
    const RetentionSweepResult ret_expected = ret_ref->front().to_sweep();
    EXPECT_EQ(ret.vpp_levels, ret_expected.vpp_levels);
    EXPECT_EQ(ret.trefw_ms, ret_expected.trefw_ms);
    EXPECT_EQ(ret.mean_ber, ret_expected.mean_ber);
  }
}

// Spelling out the phase-default temperature must be indistinguishable from
// not having a temperature axis at all (the normalization contract that
// keeps legacy outputs and cache keys stable).
TEST(CampaignEngineEquivalence, DefaultAxisSpellingIsBaseline) {
  CampaignPlan bare = small_plan();
  CampaignPlan spelled = small_plan();
  spelled.axes.temperatures_c = {50.0};  // the hammer-phase default

  CampaignEngine bare_engine(std::move(bare));
  auto bare_grids = bare_engine.run_hammer();
  ASSERT_TRUE(bare_grids.has_value());
  CampaignEngine spelled_engine(std::move(spelled));
  auto spelled_grids = spelled_engine.run_hammer();
  ASSERT_TRUE(spelled_grids.has_value());

  ASSERT_EQ(bare_grids->size(), spelled_grids->size());
  for (std::size_t m = 0; m < bare_grids->size(); ++m) {
    EXPECT_EQ(grid_json((*bare_grids)[m]).str(),
              grid_json((*spelled_grids)[m]).str());
    EXPECT_EQ(grid_csv((*bare_grids)[m]).str(),
              grid_csv((*spelled_grids)[m]).str());
  }
}

// --- Axis seeding and normalization ------------------------------------------

TEST(CampaignAxisSeeding, BaselinePointUsesLegacyRowSeed) {
  const AxisPoint baseline{.vpp_v = 2.1};
  EXPECT_TRUE(baseline.baseline());
  EXPECT_EQ(point_stream_seed(7, 99, JobPhase::kRowHammer, 1234, baseline),
            row_stream_seed(7, 99, vpp_millivolts(2.1), JobPhase::kRowHammer,
                            1234));
}

TEST(CampaignAxisSeeding, OffDefaultCoordinatesExtendTheSeed) {
  const AxisPoint baseline{.vpp_v = 2.1};
  const AxisPoint hot{.vpp_v = 2.1, .temperature_c = 65.0};
  const AxisPoint hotter{.vpp_v = 2.1, .temperature_c = 80.0};
  const AxisPoint heavy{.vpp_v = 2.1, .hammer_count = 600000};
  const std::uint64_t base =
      point_stream_seed(7, 99, JobPhase::kRowHammer, 1234, baseline);
  const std::uint64_t at65 =
      point_stream_seed(7, 99, JobPhase::kRowHammer, 1234, hot);
  const std::uint64_t at80 =
      point_stream_seed(7, 99, JobPhase::kRowHammer, 1234, hotter);
  const std::uint64_t at600k =
      point_stream_seed(7, 99, JobPhase::kRowHammer, 1234, heavy);
  EXPECT_NE(base, at65);
  EXPECT_NE(at65, at80);
  EXPECT_NE(base, at600k);
  EXPECT_NE(at65, at600k);
}

TEST(CampaignAxisSeeding, NormalizationCollapsesPhaseDefaults) {
  const AxisPoint spelled{.vpp_v = 1.7,
                          .temperature_c = 50.0,
                          .hammer_count = 300000};
  const AxisPoint norm = spelled.normalized(JobPhase::kRowHammer, 300000);
  EXPECT_TRUE(norm.baseline());
  EXPECT_EQ(norm, (AxisPoint{.vpp_v = 1.7}));
  // Retention's default is 80C, so 50C stays off-default there.
  const AxisPoint ret =
      AxisPoint{.vpp_v = 1.7, .temperature_c = 50.0}.normalized(
          JobPhase::kRetention, 0);
  EXPECT_EQ(ret.temperature_c, 50.0);

  CampaignAxes axes;
  axes.temperatures_c = {50.0, 65.0};
  const auto points =
      axes.points_for({2.5, 1.7}, JobPhase::kRowHammer, 300000);
  // 2 VPP x {default, 65C}; the spelled-out default dedups with baseline.
  ASSERT_EQ(points.size(), 4u);
  EXPECT_TRUE(points[0].baseline());
  EXPECT_EQ(points[1].temperature_c, 65.0);
}

// --- Manifest round trip and plan binding ------------------------------------

TEST(CampaignManifest, CheckpointRoundTripsAndBindsToPlan) {
  const std::string path = temp_manifest_path("roundtrip");
  std::remove(path.c_str());

  CampaignPlan plan = small_plan();
  plan.manifest_path = path;
  const std::uint64_t hash = plan.digest(JobPhase::kRowHammer);
  CampaignEngine engine(std::move(plan));
  ASSERT_TRUE(engine.run_hammer().has_value());

  auto manifest = load_campaign_manifest(path);
  ASSERT_TRUE(manifest.has_value()) << manifest.error().to_string();
  EXPECT_EQ(manifest->phase, JobPhase::kRowHammer);
  EXPECT_EQ(manifest->plan_hash, hash);
  EXPECT_GT(manifest->planned_shards, 0u);
  EXPECT_EQ(manifest->shards.size(), manifest->planned_shards);
  EXPECT_EQ(manifest->modules.size(), 2u);

  auto rebuilt = plan_from_manifest(*manifest);
  ASSERT_TRUE(rebuilt.has_value()) << rebuilt.error().to_string();
  EXPECT_EQ(rebuilt->digest(JobPhase::kRowHammer), hash);
  std::remove(path.c_str());
}

// Manifests, lease ledgers and vppd manifest file names persist the plan
// digest, so a reordered or extended field fold must fail here.
TEST(CampaignManifest, PlanDigestIsPinned) {
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.modules = {chips::profile_by_name("B3").value(),
                  chips::profile_by_name("A0").value()};
  plan.seed = 7;
  plan.axes.temperatures_c = {50.0, 65.0};
  plan.axes.patterns = {harness::uniform_double_sided_spec()};
  EXPECT_EQ(plan.digest(JobPhase::kRowHammer), 0x18b51e38b993336dULL)
      << std::hex << "0x" << plan.digest(JobPhase::kRowHammer);
}

TEST(CampaignManifest, ResumeWithDifferentPlanIsRejected) {
  const std::string path = temp_manifest_path("mismatch");
  std::remove(path.c_str());

  CampaignPlan plan = small_plan(/*seed=*/7);
  plan.manifest_path = path;
  CampaignEngine engine(std::move(plan));
  ASSERT_TRUE(engine.run_hammer().has_value());

  CampaignPlan other = small_plan(/*seed=*/8);
  other.manifest_path = path;
  CampaignEngine mismatched(std::move(other));
  auto grids = mismatched.run_hammer();
  ASSERT_FALSE(grids.has_value());
  EXPECT_EQ(grids.error().code, common::ErrorCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Kill mid-shard, resume, byte-identical ----------------------------------

std::vector<std::string> grid_documents(const std::vector<HammerGrid>& grids) {
  std::vector<std::string> docs;
  for (const auto& grid : grids) {
    docs.push_back(grid_csv(grid).str());
    docs.push_back(grid_json(grid).str());
  }
  return docs;
}

TEST(CampaignResume, BudgetInterruptedCampaignResumesByteIdentical) {
  // Reference: one uninterrupted serial run.
  CampaignEngine reference(small_plan(7, 1));
  auto expected = reference.run_hammer();
  ASSERT_TRUE(expected.has_value());

  // Interrupted: at most 2 fresh shards per attempt, parallel workers, until
  // the manifest carries the whole campaign.
  const std::string path = temp_manifest_path("budget");
  std::remove(path.c_str());
  std::vector<HammerGrid> merged;
  int attempts = 0;
  for (; attempts < 64; ++attempts) {
    CampaignPlan plan = small_plan(7, 3);
    plan.manifest_path = path;
    plan.max_new_shards = 2;
    CampaignEngine engine(std::move(plan));
    auto grids = engine.run_hammer();
    if (grids.has_value()) {
      merged = *std::move(grids);
      break;
    }
    ASSERT_EQ(grids.error().code, common::ErrorCode::kCancelled)
        << grids.error().to_string();
  }
  ASSERT_GT(attempts, 0) << "budget never interrupted the campaign";
  ASSERT_FALSE(merged.empty()) << "campaign never completed";
  EXPECT_EQ(grid_documents(merged), grid_documents(*expected));
  std::remove(path.c_str());
}

TEST(CampaignResume, SigkillMidShardResumesByteIdentical) {
  CampaignEngine reference(small_plan(7, 1));
  auto expected = reference.run_hammer();
  ASSERT_TRUE(expected.has_value());

  const std::string path = temp_manifest_path("sigkill");
  std::remove(path.c_str());

  // Child: run the campaign with the deterministic kill switch armed. The
  // manifest writer SIGKILLs the process after its 2nd write -- mid-shard,
  // with completed work checkpointed.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("VPP_CAMPAIGN_KILL_AFTER", "2", 1);
    CampaignPlan plan = small_plan(7, 1);
    plan.manifest_path = path;
    CampaignEngine engine(std::move(plan));
    (void)engine.run_hammer();
    ::_exit(0);  // unreachable when the kill switch fires
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child was not killed mid-campaign";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The checkpoint is partial but loadable.
  auto manifest = load_campaign_manifest(path);
  ASSERT_TRUE(manifest.has_value()) << manifest.error().to_string();
  EXPECT_LT(manifest->shards.size(), manifest->planned_shards);

  // Resume in this process (no kill switch), different worker count.
  CampaignPlan plan = small_plan(7, 3);
  plan.manifest_path = path;
  CampaignEngine engine(std::move(plan));
  auto resumed = engine.run_hammer();
  ASSERT_TRUE(resumed.has_value()) << resumed.error().to_string();
  EXPECT_EQ(grid_documents(*resumed), grid_documents(*expected));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vppstudy::core
