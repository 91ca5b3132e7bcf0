// Request execution layer of the vppd daemon: turns admitted requests into
// deterministic result documents by dispatching them through
// core::CampaignEngine, serving every grid cell it can from the
// content-addressed ResultCache and computing only the uncovered remainder
// on a long-lived shard pool.
//
// A sweep request becomes a one-module CampaignPlan (VPP levels plus the
// request's optional temperature axis) and the engine does the planning the
// service used to reimplement: usable levels, sampled rows, row-range
// shards. The cache plugs in as the engine's CellStore -- cells already
// present are merged into the result, and only the uncovered rows are
// computed. Because every cell is a pure function of its stream key, the
// merged output is bit-identical to a fresh in-process sweep, and the
// response's "result" text is byte-identical whether 0% or 100% of it came
// from the cache (tests/server/ asserts both). Completed shards are
// inserted into the cache even when a later shard fails or the request is
// cancelled: whole rows only, so partial progress is reusable but never
// torn.
//
// Checkpointing: with Config::manifest_dir set, every sweep runs with a
// campaign manifest keyed by the plan digest, so a daemon killed mid-sweep
// resumes from completed shards after restart and the merged result is
// byte-identical (the cache is in-memory and dies with the process; the
// manifest is the durable layer).
//
// Threading: handlers run on JobQueue dispatcher threads and block on shard
// futures; the shard pool workers never block on futures, so the two layers
// cannot deadlock. Worker-local Session arenas (one per (worker, module))
// are lent to each engine run via CampaignEngine::Execution.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/cancel.hpp"
#include "common/expected.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "server/coordinator.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "softmc/session.hpp"
#include "softmc/trace_dump.hpp"

namespace vppstudy::server {

/// The fault-injected RowHammer campaign an InjectRequest describes: a plan
/// over the named modules (4096-row banks; physics keys off the profile
/// seed) with the quick sweep at `rows` sampled rows, plus the fault, retry
/// and trace-ring arguments of CampaignEngine::run_resilient. `vppctl inject`
/// and the daemon's inject verb both run exactly this campaign.
struct InjectCampaign {
  core::CampaignPlan plan;
  softmc::FaultPlan faults;
  harness::RetryPolicy retry;
  std::size_t trace_capacity = 0;

  [[nodiscard]] core::CampaignResult run(
      core::CampaignExecution exec = {}) const;
};

/// kInvalidArgument on an invalid request, an unparseable fault spec or an
/// unknown module.
[[nodiscard]] common::Result<InjectCampaign> inject_campaign(
    const InjectRequest& request);

class Service {
 public:
  struct Config {
    /// Shard pool workers (the --jobs convention of vppctl); values <= 0
    /// use all hardware threads. The pool is long-lived: arenas keep one
    /// rig Session per (worker, module) warm across requests.
    int jobs = 0;
    /// Sampled rows per shard job (CampaignPlan::rows_per_shard); a pure
    /// performance knob by the determinism contract.
    std::uint32_t rows_per_shard = 4;
    /// Directory for campaign manifests (vppd --manifest-dir); empty
    /// disables checkpointing. One manifest per (plan digest, phase), so
    /// concurrent distinct sweeps never share a file.
    std::string manifest_dir;
    /// Result-cache cell bound (vppd --cache-max-cells); 0 = unbounded.
    /// Eviction is LRU and only ever costs recompute (result_cache.hpp).
    std::uint64_t cache_max_cells = 0;
  };

  explicit Service(Config config);

  struct Outcome {
    std::string result_json;  ///< the deterministic "result" member text
    RequestStats stats;
    /// The sweep's rig instrumentation, for in-process callers only: a
    /// daemon response does not carry it, and cells served from the cache
    /// ran no rig session.
    core::SweepInstrumentation instrumentation;
  };

  /// Validates the request (server::validate) before planning anything, so
  /// an in-process caller is refused with the daemon's text.
  [[nodiscard]] common::Result<Outcome> sweep(const SweepRequest& request,
                                              const common::CancelToken& cancel);
  [[nodiscard]] common::Result<Outcome> inject(const InjectRequest& request,
                                               const common::CancelToken& cancel);
  /// `dump` as decode_trace_dump returns it.
  [[nodiscard]] common::Result<Outcome> replay(const softmc::TraceDump& dump,
                                               const common::CancelToken& cancel);

  [[nodiscard]] ResultCache::Stats cache_stats() const { return cache_.stats(); }

  // --- Campaign registry -----------------------------------------------------
  // Distributed campaigns the daemon currently coordinates, keyed by plan
  // hash. `campaign_open` requests create coordinators here; `vppctl
  // campaign distribute` with in-process workers injects its own via
  // adopt_campaign so the manifest lands at the exact path the user named.

  /// Open (or idempotently re-open) a campaign from a wire spec document
  /// (a zero-shard manifest). The manifest path derives from
  /// Config::manifest_dir; with no manifest dir the campaign is in-memory.
  [[nodiscard]] common::Result<std::shared_ptr<CampaignCoordinator>>
  open_campaign(const core::CampaignManifest& spec);

  /// Register an externally created coordinator (replaces any existing
  /// coordinator of the same plan hash).
  void adopt_campaign(std::shared_ptr<CampaignCoordinator> coordinator);

  /// Look up a campaign: plan_hash 0 addresses the sole open campaign (an
  /// error when none or several are open).
  [[nodiscard]] common::Result<std::shared_ptr<CampaignCoordinator>>
  find_campaign(std::uint64_t plan_hash);

 private:
  Config config_;
  ResultCache cache_;
  // Arena before pool: the pool's destructor drains queued jobs that touch
  // their worker's arena (common/thread_pool lifetime rule).
  common::WorkerLocal<core::SessionArena> arenas_;
  common::ThreadPool pool_;

  std::mutex campaigns_mu_;
  std::map<std::uint64_t, std::shared_ptr<CampaignCoordinator>> campaigns_;
};

}  // namespace vppstudy::server
