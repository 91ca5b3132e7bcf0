#include "server/worker.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "server/client.hpp"

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;
using common::JsonValue;

namespace {

/// Per-worker WCDP prep memo: each module's prep runs at most once per
/// worker process no matter how many leases touch it. Row-level lookups
/// stay at the CellStore default (miss): leases are disjoint, so rows are
/// always computed fresh -- exactly like a storeless single-host run.
class WcdpMemoStore final : public core::CellStore {
 public:
  bool lookup_wcdp(const dram::ModuleProfile& profile,
                   std::vector<dram::DataPattern>* out) override {
    std::lock_guard lock(mu_);
    const auto it = memo_.find(profile.seed);
    if (it == memo_.end()) return false;
    *out = it->second;
    return true;
  }
  void store_wcdp(const dram::ModuleProfile& profile,
                  const std::vector<dram::DataPattern>& wcdp) override {
    std::lock_guard lock(mu_);
    memo_.insert_or_assign(profile.seed, wcdp);
  }

  /// Seed the memo from the coordinator's merged preps (shipped with every
  /// lease grant): any module another worker already prepped becomes a memo
  /// hit here instead of a duplicate compute. Already-memoized modules are
  /// left alone -- preps are deterministic, so the bytes would be equal
  /// anyway.
  void seed(const core::CampaignPlan& plan,
            const std::vector<core::ManifestWcdp>& records) {
    std::lock_guard lock(mu_);
    for (const core::ManifestWcdp& record : records) {
      for (const dram::ModuleProfile& profile : plan.modules) {
        if (profile.name != record.module) continue;
        memo_.try_emplace(profile.seed, record.wcdp);
        break;
      }
    }
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<dram::DataPattern>> memo_;
};

}  // namespace

common::Result<CampaignWorker::Summary> CampaignWorker::run(
    const Options& options) {
  if (options.worker_id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "worker needs a non-empty id"};
  }
  VPP_ASSIGN_OR_RETURN(Client client, Client::connect(options.port));

  Summary summary;
  WcdpMemoStore memo;
  bool have_plan = false;
  core::CampaignPlan plan;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  std::uint64_t plan_hash = 0;

  // Each send returns the request id its reply is awaited by. The daemon
  // answers one connection's campaign frames in order, so the replies of a
  // pipelined heartbeat, lease and submit come back in the order sent.
  const auto send_lease = [&]() -> common::Result<std::uint64_t> {
    LeaseRequest request;
    request.plan_hash = plan_hash;
    request.worker = options.worker_id;
    request.max_shards = options.lease_shards;
    request.ttl_ms = options.ttl_ms;
    request.need_plan = !have_plan;
    const std::uint64_t id = client.next_id();
    VPP_RETURN_IF_ERROR(client.send(encode_lease_request(id, request)));
    return id;
  };
  // Reads a submit reply into the summary; returns whether the campaign
  // is complete.
  const auto collect_submit = [&](std::uint64_t id) -> common::Result<bool> {
    auto result = client.wait_result(id);
    if (!result) {
      if (result.error().code == ErrorCode::kLeaseExpired) {
        // Our lease expired mid-compute and the shards were re-granted; the
        // other worker's bytes are identical by determinism, so dropping
        // this batch loses nothing.
        ++summary.dropped;
        return false;
      }
      return std::move(result).error();
    }
    VPP_ASSIGN_OR_RETURN(const SubmitOutcome outcome,
                         parse_submit_result(*result));
    ++summary.leases;
    summary.shards += outcome.accepted;
    summary.duplicates += outcome.duplicates;
    return outcome.complete;
  };

  // At most one prefetched lease and one unanswered submit are in flight.
  VPP_ASSIGN_OR_RETURN(std::uint64_t lease_id, send_lease());
  std::uint64_t submit_id = 0;  // 0: no submit awaits its reply
  int backoff_ms = std::min(1, options.poll_ms);
  for (;;) {
    VPP_ASSIGN_OR_RETURN(const JsonValue lease_result,
                         client.wait_result(lease_id));
    VPP_ASSIGN_OR_RETURN(LeaseGrant grant, parse_lease_result(lease_result));

    if (!have_plan) {
      if (!grant.has_campaign) {
        return Error{ErrorCode::kInvalidArgument,
                     "lease grant did not carry the campaign spec"};
      }
      VPP_ASSIGN_OR_RETURN(plan, core::plan_from_manifest(grant.campaign));
      phase = grant.phase;
      plan_hash = grant.plan_hash;
      // The spec must hash to the coordinator's plan hash -- a mismatch
      // means the wire document does not describe the campaign we would be
      // computing cells for.
      if (plan.digest(phase) != plan_hash) {
        return Error{ErrorCode::kInvalidArgument,
                     "campaign spec does not hash to the coordinator's "
                     "plan hash"};
      }
      plan.jobs = options.jobs;
      plan.manifest_path.clear();  // the coordinator owns the checkpoint
      have_plan = true;
    }
    memo.seed(plan, grant.wcdp);

    if (grant.shards.empty()) {
      // The grant was answered before our last submit was merged, so that
      // submit's reply may be the one that completes the campaign.
      bool complete = grant.complete;
      if (submit_id != 0) {
        VPP_ASSIGN_OR_RETURN(const bool done, collect_submit(submit_id));
        submit_id = 0;
        complete = complete || done;
      }
      if (complete) break;
      // Everything is leased out to other workers right now. Their last
      // batch is usually about to land, so poll soon and back off.
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options.poll_ms);
      VPP_ASSIGN_OR_RETURN(lease_id, send_lease());
      continue;
    }
    backoff_ms = std::min(1, options.poll_ms);

    // Renew as compute starts, so the batch starts on a fresh TTL, and ask
    // for the next lease; neither reply is awaited before the compute.
    HeartbeatRequest hb;
    hb.plan_hash = plan_hash;
    hb.token = grant.token;
    hb.ttl_ms = options.ttl_ms;
    const std::uint64_t hb_id = client.next_id();
    VPP_RETURN_IF_ERROR(client.send(encode_heartbeat_request(hb_id, hb)));
    VPP_ASSIGN_OR_RETURN(lease_id, send_lease());

    VPP_ASSIGN_OR_RETURN(
        core::CampaignShardBatch batch,
        core::run_campaign_shards(plan, phase, grant.shards, &memo));

    // The previous batch's submit was sent before this heartbeat, so its
    // reply comes first. Completion is decided by the prefetched grant.
    if (submit_id != 0) {
      VPP_RETURN_IF_ERROR(collect_submit(submit_id));
      submit_id = 0;
    }
    if (auto renewed = client.wait_result(hb_id); !renewed) {
      // The lease was already gone when compute started: its shards went
      // to another worker, so this batch is dropped unsubmitted.
      if (renewed.error().code == ErrorCode::kLeaseExpired) {
        ++summary.dropped;
        continue;
      }
      return std::move(renewed).error();
    }

    SubmitRequest submit;
    submit.plan_hash = plan_hash;
    submit.phase = phase;
    submit.worker = options.worker_id;
    submit.token = grant.token;
    submit.wcdp = std::move(batch.wcdp);
    submit.shards = std::move(batch.shards);
    submit_id = client.next_id();
    VPP_RETURN_IF_ERROR(client.send(encode_submit_request(submit_id, submit)));
  }
  return summary;
}

}  // namespace vppstudy::server
