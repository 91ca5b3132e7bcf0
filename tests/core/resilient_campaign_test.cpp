// Tests for the fault-tolerant campaign (CampaignEngine::run_resilient):
// retry accounting in the
// sweep instrumentation, deterministic quarantine decisions under a seeded
// fault plan, exclusion of quarantined modules from cross-module statistics,
// replayability of the quarantine evidence, and the partial-result CSV/JSON
// markers downstream consumers rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "core/export.hpp"
#include "core/campaign.hpp"
#include "softmc/trace_replayer.hpp"
#include "stats/descriptive.hpp"

namespace vppstudy::core {
namespace {

dram::ModuleProfile small_profile(const char* name = "B3") {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

/// A one-module, two-level campaign at seed 1 with a two-attempt budget and
/// 512-entry trace rings, under `fault_spec` (empty runs it clean).
CampaignResult run_tiny_campaign(const std::string& fault_spec = "") {
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5, 1.9};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 1;
  plan.modules = {small_profile()};
  plan.seed = 1;
  harness::RetryPolicy retry;
  retry.max_attempts = 2;
  softmc::FaultPlan faults;
  if (!fault_spec.empty()) {
    faults = softmc::FaultPlan::parse(fault_spec).value();
  }
  return CampaignEngine(std::move(plan)).run_resilient(faults, retry, 512);
}

TEST(ResilientStudy, CleanCampaignCompletesWithoutRetries) {
  const CampaignResult campaign = run_tiny_campaign();
  ASSERT_EQ(campaign.modules.size(), 1u);
  const ModuleCampaignResult& m = campaign.modules[0];
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.attempts, 1u);
  EXPECT_FALSE(m.has_dump);
  EXPECT_EQ(m.injections.total(), 0u);
  // Edge-of-bank rows are skipped by the sampler, so >= 1 of the 2 chunks.
  EXPECT_GE(m.sweep.rows.size(), 1u);
  EXPECT_EQ(campaign.completed_count(), 1u);
  EXPECT_TRUE(campaign.quarantines.empty());
  EXPECT_EQ(campaign.instrumentation.retries, 0u);
  EXPECT_EQ(campaign.instrumentation.quarantined_modules, 0u);
  EXPECT_GT(campaign.instrumentation.jobs, 0u);

  const std::string csv = campaign_to_csv(campaign).str();
  EXPECT_NE(csv.find("B3,completed,"), std::string::npos);
  EXPECT_EQ(csv.find("quarantined"), std::string::npos);
}

TEST(ResilientStudy, PersistentFaultQuarantinesWithoutRetry) {
  // kInvalidArgument is classified persistent: retrying cannot help, so the
  // module is quarantined after a single attempt.
  const CampaignResult campaign =
      run_tiny_campaign("seed=2;spurious@10,code=kInvalidArgument");
  ASSERT_EQ(campaign.modules.size(), 1u);
  const ModuleCampaignResult& m = campaign.modules[0];
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.attempts, 1u);
  EXPECT_EQ(m.error_code, common::ErrorCode::kInvalidArgument);
  EXPECT_TRUE(m.has_dump);
  EXPECT_EQ(campaign.instrumentation.retries, 0u);
  EXPECT_EQ(campaign.instrumentation.quarantined_modules, 1u);
  ASSERT_EQ(campaign.quarantines.size(), 1u);
  EXPECT_EQ(campaign.quarantines[0].module, "B3");
  EXPECT_EQ(campaign.quarantines[0].attempts, 1u);
}

TEST(ResilientStudy, TransientFaultBurnsRetryBudgetAndKeepsEvidence) {
  // A scheduled drop_act fires at the same command index on every attempt,
  // so both attempts die with kDeviceProtocol (transient) and the module
  // quarantines with the full budget spent and one retry on the books.
  const CampaignResult campaign = run_tiny_campaign("seed=3;drop_act@0");
  ASSERT_EQ(campaign.modules.size(), 1u);
  const ModuleCampaignResult& m = campaign.modules[0];
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.attempts, 2u);
  EXPECT_EQ(m.error_code, common::ErrorCode::kDeviceProtocol);
  EXPECT_EQ(campaign.instrumentation.retries, 1u);
  EXPECT_EQ(campaign.instrumentation.quarantined_modules, 1u);

  // The quarantine evidence is a replayable dump that reproduces the
  // original typed failure on a fresh rig.
  ASSERT_TRUE(m.has_dump);
  EXPECT_EQ(m.dump.error_code, common::ErrorCode::kDeviceProtocol);
  softmc::TraceReplayer replayer(m.dump);
  const auto report = replayer.replay_on_profile(small_profile());
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->reproduced());

  const std::string csv = campaign_to_csv(campaign).str();
  EXPECT_NE(csv.find("B3,quarantined,kDeviceProtocol,2,,,,,"),
            std::string::npos);
  const std::string json = campaign_json(campaign).str();
  EXPECT_NE(json.find("\"status\":\"quarantined\""), std::string::npos);
  EXPECT_NE(json.find("\"retries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"error_code\":\"kDeviceProtocol\""),
            std::string::npos);
}

TEST(ResilientStudy, SeededCampaignIsBitReproducible) {
  // Probability-based faults draw from (seed, attempt, kind, index) only, so
  // two identical invocations produce byte-identical exports -- the same
  // guarantee the replay-fuzz CI job asserts on vppctl inject.
  const std::string spec = "seed=9;drop_read=0.0001;flip_read=0.0001";
  const CampaignResult a = run_tiny_campaign(spec);
  const CampaignResult b = run_tiny_campaign(spec);
  EXPECT_EQ(a.modules.size(), b.modules.size());
  EXPECT_EQ(a.completed_count(), b.completed_count());
  EXPECT_EQ(a.quarantines.size(), b.quarantines.size());
  EXPECT_EQ(a.instrumentation, b.instrumentation);
  EXPECT_EQ(campaign_json(a).str(), campaign_json(b).str());
  EXPECT_EQ(campaign_to_csv(a).str(), campaign_to_csv(b).str());
}

TEST(ResilientStudy, CvExcludesQuarantinedModules) {
  auto make_completed = [](const char* name, std::uint64_t hc) {
    ModuleCampaignResult m;
    m.module_name = name;
    m.completed = true;
    m.sweep.module_name = name;
    m.sweep.vpp_levels = {2.5};
    RowSeries r;
    r.hc_first = {hc};
    r.ber = {0.0};
    m.sweep.rows.push_back(r);
    return m;
  };

  CampaignResult campaign;
  campaign.modules.push_back(make_completed("M0", 10000));
  campaign.modules.push_back(make_completed("M1", 20000));
  // A quarantined module with wild partial data that must not leak into the
  // cross-module spread.
  ModuleCampaignResult q = make_completed("M2", 999999);
  q.completed = false;
  campaign.modules.push_back(q);

  EXPECT_EQ(campaign.completed_count(), 2u);
  const double expected = stats::coefficient_of_variation(
      std::vector<double>{10000.0, 20000.0});
  EXPECT_DOUBLE_EQ(campaign.hc_first_cv(), expected);

  // With fewer than two completed modules there is no spread to report.
  campaign.modules[1].completed = false;
  EXPECT_DOUBLE_EQ(campaign.hc_first_cv(), 0.0);
}

}  // namespace
}  // namespace vppstudy::core
