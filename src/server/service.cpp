#include "server/service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "core/export.hpp"
#include "harness/retention_test.hpp"
#include "softmc/fault_injector.hpp"
#include "softmc/trace_dump.hpp"
#include "softmc/trace_replayer.hpp"

namespace vppstudy::server {

using common::CancelToken;
using common::Error;
using common::ErrorCode;

namespace {

/// The daemon's ResultCache adapted to the engine's CellStore interface.
/// Keys fold every axis coordinate of the (normalized) grid point
/// (ResultCache::point_key), so a 65C cell can never alias the 50C default
/// cell. Request-level hit/miss accounting lands in `stats`.
class CacheStore final : public core::CellStore {
 public:
  CacheStore(ResultCache& cache, std::uint64_t digest,
             std::vector<double> windows, RequestStats& stats)
      : cache_(cache),
        digest_(digest),
        windows_(std::move(windows)),
        stats_(stats) {}

  bool lookup_wcdp(const dram::ModuleProfile& profile,
                   std::vector<dram::DataPattern>* out) override {
    return cache_.lookup_wcdp(ResultCache::wcdp_key(digest_, profile.seed),
                              out);
  }
  void store_wcdp(const dram::ModuleProfile& profile,
                  const std::vector<dram::DataPattern>& wcdp) override {
    cache_.insert_wcdp(ResultCache::wcdp_key(digest_, profile.seed), wcdp);
  }

  bool lookup_hammer(const dram::ModuleProfile& profile,
                     const core::AxisPoint& point, std::uint32_t row,
                     harness::RowHammerRowResult* out) override {
    CellValue cell;
    if (!fetch(core::JobPhase::kRowHammer, profile, point, row, &cell)) {
      return false;
    }
    out->row = row;
    out->wcdp = cell.wcdp;
    out->hc_first = cell.hc_first;
    out->ber = cell.ber;
    return true;
  }
  void store_hammer(const dram::ModuleProfile& profile,
                    const core::AxisPoint& point,
                    const harness::RowHammerRowResult& row) override {
    CellValue value;
    value.wcdp = row.wcdp;
    value.hc_first = row.hc_first;
    value.ber = row.ber;
    cache_.insert(ResultCache::point_key(digest_, core::JobPhase::kRowHammer,
                                         profile.seed, point, row.row),
                  std::move(value));
  }

  bool lookup_trcd(const dram::ModuleProfile& profile,
                   const core::AxisPoint& point, std::uint32_t row,
                   harness::TrcdRowResult* out) override {
    CellValue cell;
    if (!fetch(core::JobPhase::kTrcd, profile, point, row, &cell)) {
      return false;
    }
    out->row = row;
    out->wcdp = cell.wcdp;
    out->trcd_min_ns = cell.trcd_min_ns;
    return true;
  }
  void store_trcd(const dram::ModuleProfile& profile,
                  const core::AxisPoint& point,
                  const harness::TrcdRowResult& row) override {
    CellValue value;
    value.wcdp = row.wcdp;
    value.trcd_min_ns = row.trcd_min_ns;
    cache_.insert(ResultCache::point_key(digest_, core::JobPhase::kTrcd,
                                         profile.seed, point, row.row),
                  std::move(value));
  }

  bool lookup_retention(const dram::ModuleProfile& profile,
                        const core::AxisPoint& point, std::uint32_t row,
                        harness::RetentionRowResult* out) override {
    CellValue cell;
    if (!fetch(core::JobPhase::kRetention, profile, point, row, &cell)) {
      return false;
    }
    out->row = row;
    out->wcdp = cell.wcdp;
    out->trefw_ms = windows_;
    out->ber = std::move(cell.retention_ber);
    return true;
  }
  void store_retention(const dram::ModuleProfile& profile,
                       const core::AxisPoint& point,
                       const harness::RetentionRowResult& row) override {
    CellValue value;
    value.wcdp = row.wcdp;
    value.retention_ber = row.ber;
    cache_.insert(ResultCache::point_key(digest_, core::JobPhase::kRetention,
                                         profile.seed, point, row.row),
                  std::move(value));
  }

 private:
  bool fetch(core::JobPhase phase, const dram::ModuleProfile& profile,
             const core::AxisPoint& point, std::uint32_t row,
             CellValue* cell) {
    if (!cache_.lookup(
            ResultCache::point_key(digest_, phase, profile.seed, point, row),
            cell)) {
      ++stats_.cache_misses;
      return false;
    }
    ++stats_.cache_hits;
    return true;
  }

  ResultCache& cache_;
  std::uint64_t digest_;
  std::vector<double> windows_;
  RequestStats& stats_;
};

std::string manifest_path_for(const std::string& dir, core::JobPhase phase,
                              std::uint64_t plan_hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(plan_hash));
  return dir + "/campaign-" + std::string(core::campaign_phase_name(phase)) +
         "-" + hex + ".json";
}

}  // namespace

Service::Service(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_max_cells),
      arenas_(std::max(1u, common::ThreadPool::workers_for_jobs(config_.jobs))),
      pool_(static_cast<unsigned>(arenas_.size() - 1)) {
  // A fresh --manifest-dir must not fail every checkpoint write with
  // kIoError; EEXIST (or a race with another daemon) is fine.
  if (!config_.manifest_dir.empty()) {
    ::mkdir(config_.manifest_dir.c_str(), 0755);
  }
}

common::Result<std::shared_ptr<CampaignCoordinator>> Service::open_campaign(
    const core::CampaignManifest& spec) {
  VPP_ASSIGN_OR_RETURN(core::CampaignPlan plan,
                       core::plan_from_manifest(spec));
  const std::uint64_t hash = plan.digest(spec.phase);
  if (spec.plan_hash != hash) {
    return Error{ErrorCode::kInvalidArgument,
                 "campaign spec does not hash to its declared plan hash"};
  }
  {
    // Idempotent re-open: a second campaign_open for the same plan joins
    // the existing coordinator (two clients may race to open one campaign).
    std::lock_guard lock(campaigns_mu_);
    const auto it = campaigns_.find(hash);
    if (it != campaigns_.end()) return it->second;
  }
  std::string manifest_path;
  if (!config_.manifest_dir.empty()) {
    manifest_path = manifest_path_for(config_.manifest_dir, spec.phase, hash);
  }
  auto opened = CampaignCoordinator::open(std::move(plan), spec.phase,
                                          std::move(manifest_path));
  if (!opened) return std::move(opened).error();
  std::shared_ptr<CampaignCoordinator> coordinator = std::move(*opened);
  std::lock_guard lock(campaigns_mu_);
  const auto [it, inserted] = campaigns_.emplace(hash, coordinator);
  return inserted ? coordinator : it->second;  // lost the race: join theirs
}

void Service::adopt_campaign(std::shared_ptr<CampaignCoordinator> coordinator) {
  std::lock_guard lock(campaigns_mu_);
  campaigns_.insert_or_assign(coordinator->plan_hash(),
                              std::move(coordinator));
}

common::Result<std::shared_ptr<CampaignCoordinator>> Service::find_campaign(
    std::uint64_t plan_hash) {
  std::lock_guard lock(campaigns_mu_);
  if (plan_hash != 0) {
    const auto it = campaigns_.find(plan_hash);
    if (it == campaigns_.end()) {
      return Error{ErrorCode::kInvalidArgument,
                   "no open campaign with plan hash " +
                       core::u64_hex(plan_hash) +
                       " (send campaign_open first)"};
    }
    return it->second;
  }
  if (campaigns_.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "no campaign is open on this daemon"};
  }
  if (campaigns_.size() > 1) {
    return Error{ErrorCode::kInvalidArgument,
                 "several campaigns are open; address one by plan_hash"};
  }
  return campaigns_.begin()->second;
}

common::Result<Service::Outcome> Service::sweep(const SweepRequest& request,
                                                const CancelToken& cancel) {
  VPP_RETURN_IF_ERROR(validate(request));
  const auto profile = chips::profile_by_name(request.module);
  if (!profile) {
    return Error{ErrorCode::kInvalidArgument,
                 "unknown module '" + request.module + "'"};
  }
  const core::SweepConfig cfg = sweep_config_from_request(request);
  const std::uint64_t digest = ResultCache::config_digest(cfg, request.seed);
  core::JobPhase phase = core::JobPhase::kRowHammer;
  // validate() admitted only the three shardable test names.
  (void)core::campaign_phase_from_name(request.test, phase);

  core::CampaignPlan plan;
  plan.sweep = cfg;
  plan.axes.temperatures_c = request.temps;
  plan.axes.patterns = request.patterns;
  plan.modules.push_back(*profile);
  plan.seed = request.seed;
  plan.rows_per_shard = config_.rows_per_shard;
  plan.cancel = cancel;
  if (!config_.manifest_dir.empty()) {
    plan.manifest_path =
        manifest_path_for(config_.manifest_dir, phase, plan.digest(phase));
  }
  // The request's presence of an axis selects the result kind: a bare sweep
  // answers with the legacy per-test document (byte-identical to the
  // pre-engine daemon), an axis sweep answers with the "*_grid" kind.
  const bool multi_axis = !plan.axes.vpp_only();

  Outcome out;
  CacheStore store(cache_, digest, harness::retention_windows(cfg.retention), out.stats);
  core::CampaignEngine engine(std::move(plan), &store,
                              {.arenas = &arenas_, .pool = &pool_});

  const auto finish = [&](auto grids,
                          auto sweep_to_json) -> common::Result<Outcome> {
    if (!grids) return std::move(grids).error();
    const auto& grid = grids->front();
    out.instrumentation = grid.instrumentation;
    out.result_json = multi_axis ? core::grid_json(grid).str()
                                 : sweep_to_json(grid.to_sweep());
    return std::move(out);
  };
  switch (phase) {
    case core::JobPhase::kTrcd:
      return finish(engine.run_trcd(), trcd_sweep_to_json);
    case core::JobPhase::kRetention:
      return finish(engine.run_retention(), retention_sweep_to_json);
    default:
      return finish(engine.run_hammer(), hammer_sweep_to_json);
  }
}

common::Result<InjectCampaign> inject_campaign(const InjectRequest& request) {
  VPP_RETURN_IF_ERROR(validate(request));
  auto faults = softmc::FaultPlan::parse(request.faults);
  if (!faults) return std::move(faults).error();
  InjectCampaign campaign;
  campaign.faults = std::move(*faults);
  campaign.retry.max_attempts = request.retries;
  campaign.trace_capacity = static_cast<std::size_t>(request.trace_cap);
  campaign.plan.seed = request.seed;
  campaign.plan.sweep = core::SweepConfig::quick();
  campaign.plan.sweep.sampling.chunks = 2;
  campaign.plan.sweep.sampling.rows_per_chunk = std::max(1u, request.rows / 2);
  for (const std::string& name : request.modules) {
    auto profile = chips::profile_by_name(name);
    if (!profile) {
      return Error{ErrorCode::kInvalidArgument,
                   "unknown module '" + name + "'"};
    }
    // Small banks keep the campaign fast; physics keys off the profile seed.
    profile->rows_per_bank = 4096;
    campaign.plan.modules.push_back(std::move(*profile));
  }
  return campaign;
}

core::CampaignResult InjectCampaign::run(core::CampaignExecution exec) const {
  return core::CampaignEngine(plan, nullptr, exec)
      .run_resilient(faults, retry, trace_capacity);
}

common::Result<Service::Outcome> Service::inject(const InjectRequest& request,
                                                 const CancelToken& cancel) {
  if (cancel.cancelled()) {
    return Error{ErrorCode::kCancelled, "inject cancelled before start"};
  }
  VPP_ASSIGN_OR_RETURN(const InjectCampaign campaign,
                       inject_campaign(request));
  Outcome out;
  out.result_json =
      core::campaign_json(campaign.run({.arenas = &arenas_, .pool = &pool_}))
          .str();
  return out;
}

common::Result<Service::Outcome> Service::replay(const softmc::TraceDump& dump,
                                                 const CancelToken& cancel) {
  if (cancel.cancelled()) {
    return Error{ErrorCode::kCancelled, "replay cancelled before start"};
  }
  const auto profile = chips::profile_by_name(dump.module);
  if (!profile) {
    return Error{ErrorCode::kInvalidArgument,
                 "dump names unknown module '" + dump.module + "'"};
  }
  const std::size_t entries = dump.entries.size();
  const std::uint64_t total_recorded = dump.total_recorded;
  const double vpp_v = dump.vpp_v;
  softmc::TraceReplayer replayer(dump);
  auto report = replayer.replay_on_profile(*profile);
  if (!report) return std::move(report).error();

  // Everything `vppctl replay` prints, so its output does not depend on
  // whether the replay ran in-process or on a daemon.
  common::JsonWriter w;
  w.begin_object()
      .kv("kind", "replay")
      .kv("module", profile->name)
      .kv("vpp_v", vpp_v)
      .kv("entries", static_cast<std::uint64_t>(entries))
      .kv("total_recorded", total_recorded)
      .kv("commands_replayed", report->commands_replayed)
      .kv("timing_violations",
          static_cast<std::uint64_t>(report->timing_violations))
      .kv("original_failed", report->original_failed);
  if (report->original_failed) {
    w.kv("original_code", common::error_code_name(report->original_code));
  }
  w.kv("replay_failed", report->replay_failed);
  if (report->replay_failed) w.kv("replay_message", report->replay_message);
  w.kv("reproduced", report->reproduced())
      .kv("counters", report->counters.summary())
      .end_object();
  Outcome out;
  out.result_json = w.str();
  return out;
}

}  // namespace vppstudy::server
