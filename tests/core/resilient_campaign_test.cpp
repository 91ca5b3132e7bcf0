// Tests for the fault-tolerant campaign (CampaignEngine::run_resilient):
// retry accounting in the sweep instrumentation, deterministic quarantine
// decisions under a seeded fault plan, per-module fault schedules, identity
// across jobs counts and with the fault-free engine, exclusion of
// quarantined modules from cross-module statistics, replayability of the
// quarantine evidence, fault coverage of pattern-axis rows, and the
// partial-result CSV/JSON markers downstream consumers rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "core/export.hpp"
#include "core/campaign.hpp"
#include "harness/pattern_spec.hpp"
#include "softmc/trace_dump.hpp"
#include "softmc/trace_replayer.hpp"
#include "stats/descriptive.hpp"

namespace vppstudy::core {
namespace {

/// A plan mixing dropped and corrupted reads, duplicated ACTs and delayed
/// PREs. Over the two-module campaign below, B3 is quarantined by a dropped
/// read on a job's last attempt and A5 completes after one job retried.
constexpr const char* kMixedFaultSpec =
    "seed=95;drop_read=0.00001;flip_read=0.0002,bits=2;dup_act=0.0004;"
    "delay_pre=0.2,ns=9";
constexpr std::uint64_t kMixedFaultDigest = 0x7f8b49fe74d65bb4ULL;

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

TEST(ResilientStudy, InjectionCountsCoverEveryAttempt) {
  // The scheduled drop_act fires once per attempt. The module's tallies sum
  // both attempts, not just the last one.
  const CampaignResult campaign = run_tiny_campaign("seed=3;drop_act@0");
  ASSERT_EQ(campaign.modules.size(), 1u);
  const ModuleCampaignResult& m = campaign.modules[0];
  ASSERT_EQ(m.attempts, 2u);
  EXPECT_EQ(m.injections.dropped_acts, 2u);
  EXPECT_EQ(m.injections.total(), 2u);
}

TEST(ResilientStudy, SeededCampaignIsBitReproducible) {
  // Probability-based faults draw from (job seed, attempt, kind, index)
  // only, so two identical invocations produce byte-identical exports -- the
  // same guarantee the replay-fuzz CI job asserts on vppctl inject.
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

/// FNV-1a over `text`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ResilientStudy, MixedFaultPlanOutputIsPinned) {
  // The other tests check that a seeded campaign reproduces itself; this
  // one pins its bytes, so a change to how faulted commands are dispatched
  // cannot alter the exports or the quarantine evidence unnoticed. A
  // deliberate change to fault semantics or to the exported tallies must
  // re-record the constant.
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5, 1.9};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 1;
  plan.modules = {small_profile("B3"), small_profile("A5")};
  plan.seed = 1;
  harness::RetryPolicy retry;
  retry.max_attempts = 2;
  const softmc::FaultPlan faults =
      softmc::FaultPlan::parse(kMixedFaultSpec).value();
  const CampaignResult campaign =
      CampaignEngine(std::move(plan)).run_resilient(faults, retry, 512);

  ASSERT_EQ(campaign.modules.size(), 2u);
  const ModuleCampaignResult& b3 = campaign.modules[0];
  const ModuleCampaignResult& a5 = campaign.modules[1];
  EXPECT_FALSE(b3.completed);
  EXPECT_EQ(b3.error_code, common::ErrorCode::kReadUnderrun);
  EXPECT_NE(b3.error_message.find("1023 of 1024"), std::string::npos)
      << b3.error_message;
  EXPECT_TRUE(b3.has_dump);
  EXPECT_TRUE(a5.completed);
  EXPECT_EQ(a5.attempts, 2u);
  EXPECT_GT(b3.injections.corrupted_reads + a5.injections.corrupted_reads,
            0u);
  EXPECT_GT(b3.injections.delayed_pres + a5.injections.delayed_pres, 0u);
  ASSERT_EQ(campaign.quarantines.size(), 1u);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, campaign_to_csv(campaign).str());
  h = fnv1a(h, campaign_json(campaign).str());
  for (const ModuleCampaignResult& m : campaign.modules) {
    if (m.has_dump) h = fnv1a(h, softmc::trace_dump_json(m.dump).str());
  }
  EXPECT_EQ(h, kMixedFaultDigest) << std::hex << "0x" << h;
}

/// The campaign `vppctl inject --modules B3,A5,C9 --rows <rows> --retries 2
/// --faults <spec>` runs: the quick sweep, two sampled chunks of rows / 2
/// rows each on 4096-row banks, seed 1, 4096-entry trace rings.
CampaignResult run_inject_campaign(const std::string& fault_spec,
                                   std::uint32_t rows, int jobs) {
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = rows / 2;
  plan.modules = {small_profile("B3"), small_profile("A5"),
                  small_profile("C9")};
  plan.seed = 1;
  plan.jobs = jobs;
  harness::RetryPolicy retry;
  retry.max_attempts = 2;
  softmc::FaultPlan faults;
  if (!fault_spec.empty()) {
    faults = softmc::FaultPlan::parse(fault_spec).value();
  }
  return CampaignEngine(std::move(plan)).run_resilient(faults, retry, 4096);
}

/// Every untruncated quarantine dump must reproduce its failure on a fresh
/// rig. The plans below inject device-visible faults only (dropped and
/// duplicated ACTs, flipped reads, late PREs), whose failures replay.
void expect_dumps_replay(const CampaignResult& campaign) {
  for (const ModuleCampaignResult& m : campaign.modules) {
    if (!m.has_dump || m.dump.truncated()) continue;
    softmc::TraceReplayer replayer(m.dump);
    const auto report = replayer.replay_on_profile(small_profile(
        m.module_name.c_str()));
    ASSERT_TRUE(report.has_value()) << m.module_name;
    EXPECT_TRUE(report->reproduced()) << m.module_name;
  }
}

/// A device-visible mixed plan: duplicated ACTs fail with kDeviceProtocol
/// early in every module's WCDP prep, flipped reads and late PREs are
/// silent.
constexpr const char* kDeviceFaultSpec =
    "seed=11;dup_act=0.005;flip_read=0.0005,bits=2;delay_pre=0.2,ns=9";

TEST(ResilientStudy, ModulesUnderOnePlanFaceDifferentFaultSites) {
  // Each module's injectors are seeded by its own profile seed, so one plan
  // gives three modules three fault schedules: their outcomes (attempts,
  // error code, injection tallies) are not all the same.
  const CampaignResult campaign = run_inject_campaign(kDeviceFaultSpec, 8, 1);
  ASSERT_EQ(campaign.modules.size(), 3u);
  const auto same = [](const ModuleCampaignResult& a,
                       const ModuleCampaignResult& b) {
    return a.completed == b.completed && a.attempts == b.attempts &&
           a.error_code == b.error_code && a.injections == b.injections;
  };
  EXPECT_FALSE(same(campaign.modules[0], campaign.modules[1]) &&
               same(campaign.modules[1], campaign.modules[2]))
      << campaign_json(campaign).str();
  expect_dumps_replay(campaign);
}

TEST(ResilientStudy, MixedFaultCampaignIsIdenticalAcrossJobs) {
  // Fault draws are keyed per job, never per worker, so a pool of any size
  // gives byte-identical exports and quarantine evidence.
  const std::string spec =
      "seed=5;drop_act=0.0005;dup_act=0.0005;flip_read=0.0005,bits=2;"
      "delay_pre=0.2,ns=9";
  const CampaignResult serial = run_inject_campaign(spec, 8, 1);
  const CampaignResult pooled = run_inject_campaign(spec, 8, 4);
  EXPECT_EQ(campaign_to_csv(serial).str(), campaign_to_csv(pooled).str());
  EXPECT_EQ(campaign_json(serial).str(), campaign_json(pooled).str());
  EXPECT_EQ(serial.instrumentation, pooled.instrumentation);
  ASSERT_EQ(serial.modules.size(), pooled.modules.size());
  std::size_t dumps = 0;
  for (std::size_t m = 0; m < serial.modules.size(); ++m) {
    ASSERT_EQ(serial.modules[m].has_dump, pooled.modules[m].has_dump);
    if (!serial.modules[m].has_dump) continue;
    ++dumps;
    EXPECT_EQ(softmc::trace_dump_json(serial.modules[m].dump).str(),
              softmc::trace_dump_json(pooled.modules[m].dump).str());
  }
  EXPECT_GT(dumps, 0u) << "the plan should quarantine at least one module";
  EXPECT_LT(serial.completed_count(), serial.modules.size());
  expect_dumps_replay(serial);
}

TEST(ResilientStudy, CleanCampaignMatchesEngine) {
  // With no faults, a resilient campaign is run_hammer on the same plan.
  const CampaignResult campaign = run_inject_campaign("", 8, 1);
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 4;
  plan.modules = {small_profile("B3"), small_profile("A5"),
                  small_profile("C9")};
  plan.seed = 1;
  const std::vector<HammerGrid> grids =
      CampaignEngine(std::move(plan)).run_hammer().value();
  ASSERT_EQ(campaign.modules.size(), grids.size());
  for (std::size_t m = 0; m < grids.size(); ++m) {
    const ModuleCampaignResult& outcome = campaign.modules[m];
    ASSERT_TRUE(outcome.completed) << outcome.module_name;
    EXPECT_EQ(outcome.attempts, 1u);
    const ModuleSweepResult expected = grids[m].to_sweep();
    const ModuleSweepResult& got = outcome.sweep;
    EXPECT_EQ(got.vpp_levels, expected.vpp_levels);
    ASSERT_EQ(got.rows.size(), expected.rows.size());
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
      EXPECT_EQ(got.rows[i].row, expected.rows[i].row);
      EXPECT_EQ(got.rows[i].wcdp, expected.rows[i].wcdp);
      EXPECT_EQ(got.rows[i].hc_first, expected.rows[i].hc_first);
      EXPECT_EQ(got.rows[i].ber, expected.rows[i].ber);
    }
  }
}

TEST(ResilientStudy, PatternAxisRowsRunUnderTheFaultPlan) {
  // A pattern attack resets the rig between victim rows so TRR state cannot
  // leak from one victim to the next. That reset keeps the job's injector
  // attached: pattern rows face the fault plan like uniform rows do.
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.sweep.determine_wcdp = false;
  plan.axes.patterns = {harness::uniform_double_sided_spec()};
  plan.modules = {small_profile()};
  plan.seed = 1;
  harness::RetryPolicy retry;
  retry.max_attempts = 2;
  const softmc::FaultPlan faults =
      softmc::FaultPlan::parse("seed=95;flip_read=0.01,bits=2").value();
  const CampaignResult campaign =
      CampaignEngine(std::move(plan)).run_resilient(faults, retry, 512);
  ASSERT_EQ(campaign.modules.size(), 1u);
  const ModuleCampaignResult& m = campaign.modules[0];
  ASSERT_TRUE(m.completed);
  EXPECT_GT(m.injections.corrupted_reads, 0u);

  // Corrupted reads fail no job, so nothing retried, and the job tallies
  // cover every row of a shard, not just its last: the campaign's
  // instrumentation is its grid's.
  EXPECT_EQ(campaign.instrumentation.retries, 0u);
  EXPECT_EQ(campaign.instrumentation.jobs, m.sweep.instrumentation.jobs);
  EXPECT_EQ(campaign.instrumentation.counts, m.sweep.instrumentation.counts);
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
