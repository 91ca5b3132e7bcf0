#include "server/coordinator.hpp"

#include <chrono>
#include <fstream>
#include <utility>

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;
using core::CampaignLeaseLedger;
using core::LeaseState;

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::Result<std::unique_ptr<CampaignCoordinator>> CampaignCoordinator::open(
    core::CampaignPlan plan, core::JobPhase phase, std::string manifest_path) {
  std::unique_ptr<CampaignCoordinator> coord(new CampaignCoordinator());
  coord->phase_ = phase;
  coord->plan_hash_ = plan.digest(phase);
  coord->manifest_path_ = std::move(manifest_path);
  // The plan's own manifest path is not used here: the coordinator is the
  // only writer, and the workers' engine runs must not checkpoint.
  plan.manifest_path.clear();
  VPP_ASSIGN_OR_RETURN(coord->grid_,
                       core::compile_campaign_shards(plan, phase));
  coord->grid_index_ = core::ShardGridIndex(coord->grid_);
  coord->shard_modules_.reserve(coord->grid_.size());
  for (const core::ShardCoord& coord_cell : coord->grid_) {
    coord->shard_modules_.push_back(coord_cell.module_index);
  }
  coord->plan_ = std::move(plan);

  // Manifest: resume an existing checkpoint (the same opener the engine
  // uses) or start a fresh spec document. A journal holds its records in
  // arrival order; merging them into the bare spec rebuilds the canonical
  // order.
  VPP_ASSIGN_OR_RETURN(
      core::OpenedManifest opened,
      core::open_campaign_manifest(coord->manifest_path_, coord->plan_, phase,
                                   coord->grid_.size()));
  coord->manifest_ = std::move(opened.manifest);
  coord->journal_ = std::move(opened.journal);
  std::vector<core::ManifestWcdp> restored_wcdp;
  std::vector<core::ManifestShard> restored_shards;
  restored_wcdp.swap(coord->manifest_.wcdp);
  restored_shards.swap(coord->manifest_.shards);
  // Cache the zero-shard spec document shipped to need_plan workers.
  coord->spec_json_ = core::campaign_manifest_json(coord->manifest_).str();
  VPP_RETURN_IF_ERROR(core::merge_campaign_shards(
      coord->manifest_, coord->grid_, coord->plan_hash_, restored_wcdp,
      restored_shards));

  // Ledger: resume or start fresh (entries parallel to the grid).
  bool have_ledger = false;
  if (!coord->manifest_path_.empty()) {
    const std::string ledger_path =
        core::campaign_ledger_path(coord->manifest_path_);
    if (std::ifstream probe(ledger_path); probe.good()) {
      VPP_ASSIGN_OR_RETURN(coord->ledger_,
                           core::load_campaign_ledger(ledger_path));
      have_ledger = true;
      if (coord->ledger_.phase != phase ||
          coord->ledger_.plan_hash != coord->plan_hash_ ||
          coord->ledger_.entries.size() != coord->grid_.size()) {
        return Error{ErrorCode::kInvalidArgument,
                     "campaign lease ledger does not match the plan (wrong "
                     "phase, plan hash, or shard count)"};
      }
    }
  }
  if (!have_ledger) {
    coord->ledger_.phase = phase;
    coord->ledger_.plan_hash = coord->plan_hash_;
    coord->ledger_.entries.resize(coord->grid_.size());
  }

  // Reconcile: every shard already in the manifest is done, whatever the
  // ledger thinks (a crash between the journal append and the ledger flush
  // must not re-lease merged work forever). Stats stay untouched -- the
  // submitting worker was already credited when the ledger last flushed.
  // The merge above mapped every record onto the grid.
  for (const core::ManifestShard& shard : coord->manifest_.shards) {
    core::LeaseEntry& entry =
        coord->ledger_.entries[coord->grid_index_.find(shard)->index];
    if (entry.state != LeaseState::kDone) {
      entry.state = LeaseState::kDone;
      entry.token = 0;
      entry.expires_at_ms = 0;
    }
  }
  // Nothing is written yet: the first grant opens the journal and writes
  // the ledger, and a crash before it simply repeats this reconciliation.
  return coord;
}

common::Status CampaignCoordinator::flush_locked() {
  if (manifest_path_.empty()) return common::Status::ok_status();
  VPP_RETURN_IF_ERROR(journal_.open(manifest_));
  if (ledger_.complete() && journal_.needs_compaction()) {
    VPP_RETURN_IF_ERROR(journal_.compact(manifest_));
  }
  return write_ledger_locked();
}

common::Status CampaignCoordinator::write_ledger_locked() const {
  if (manifest_path_.empty()) return common::Status::ok_status();
  const std::string ledger_path = core::campaign_ledger_path(manifest_path_);
  if (!core::write_campaign_ledger(ledger_path, ledger_)) {
    return Error{ErrorCode::kIoError,
                 "failed to write campaign lease ledger " + ledger_path};
  }
  return common::Status::ok_status();
}

LeaseGrant CampaignCoordinator::grant_snapshot_locked() const {
  LeaseGrant grant;
  grant.phase = phase_;
  grant.plan_hash = plan_hash_;
  grant.done = ledger_.count(LeaseState::kDone);
  grant.remaining = ledger_.entries.size() - grant.done;
  grant.complete = ledger_.complete();
  return grant;
}

common::Result<LeaseGrant> CampaignCoordinator::lease(
    const std::string& worker, std::uint64_t max_shards, std::int64_t ttl_ms,
    std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  CampaignLeaseLedger::Grant granted =
      ledger_.lease(worker, static_cast<std::size_t>(max_shards), now_ms,
                    ttl_ms, &shard_modules_);
  if (granted.token != 0) VPP_RETURN_IF_ERROR(flush_locked());
  LeaseGrant grant = grant_snapshot_locked();
  grant.token = granted.token;
  grant.shards = std::move(granted.shards);
  // Ship every merged WCDP prep with the grant: a worker that has not yet
  // prepped one of these modules seeds its memo from the coordinator's copy
  // instead of recomputing a (deterministic) prep another worker already
  // paid for.
  grant.wcdp = manifest_.wcdp;
  return grant;
}

common::Result<SubmitOutcome> CampaignCoordinator::submit(
    const std::string& worker, std::uint64_t token, std::uint64_t plan_hash,
    const std::vector<core::ManifestWcdp>& wcdp,
    const std::vector<core::ManifestShard>& shards, std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  ledger_.expire_stale(now_ms);

  // Fencing before merging -- but only once the batch provably belongs to
  // this campaign's grid; a wrong plan hash or an off-grid record takes the
  // merge's kInvalidArgument path (which validates everything up front and
  // merges nothing on failure).
  std::vector<std::uint64_t> mergeable;
  if (plan_hash == plan_hash_) {
    for (const core::ManifestShard& shard : shards) {
      const core::ShardCoord* cell = grid_index_.find(shard);
      if (cell == nullptr) break;  // let the merge produce the typed error
      switch (ledger_.check_submit(cell->index, token)) {
        case CampaignLeaseLedger::SubmitCheck::kStale:
          return Error{ErrorCode::kLeaseExpired,
                       "stale fencing token for shard " +
                           std::to_string(cell->index) +
                           " (the lease expired and the shard was "
                           "re-granted); nothing merged"};
        case CampaignLeaseLedger::SubmitCheck::kMergeable:
          mergeable.push_back(cell->index);
          break;
        case CampaignLeaseLedger::SubmitCheck::kDuplicate:
          break;
      }
    }
  }
  VPP_ASSIGN_OR_RETURN(
      const core::ShardMergeOutcome merged,
      core::merge_campaign_shards(manifest_, grid_, plan_hash, wcdp, shards));
  for (const std::uint64_t index : mergeable) {
    ledger_.mark_done(index, worker);
  }
  if (!manifest_path_.empty()) {
    // One checkpoint: journal exactly the records the merge accepted.
    VPP_RETURN_IF_ERROR(journal_.open(manifest_));
    for (const std::size_t i : merged.new_wcdp) {
      VPP_RETURN_IF_ERROR(journal_.append(wcdp[i]));
    }
    for (const std::size_t i : merged.new_shards) {
      VPP_RETURN_IF_ERROR(journal_.append(shards[i]));
    }
    core::campaign_checkpoint_written();
  }
  VPP_RETURN_IF_ERROR(flush_locked());

  SubmitOutcome outcome;
  outcome.accepted = merged.accepted;
  outcome.duplicates = merged.duplicates;
  outcome.done = ledger_.count(LeaseState::kDone);
  outcome.remaining = ledger_.entries.size() - outcome.done;
  outcome.complete = ledger_.complete();
  return outcome;
}

common::Result<std::uint64_t> CampaignCoordinator::heartbeat(
    std::uint64_t token, std::int64_t ttl_ms, std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  const std::size_t renewed = ledger_.renew(token, now_ms, ttl_ms);
  if (renewed == 0) {
    return Error{ErrorCode::kLeaseExpired,
                 "no shard remains leased under token " +
                     core::u64_hex(token) + "; re-lease"};
  }
  VPP_RETURN_IF_ERROR(write_ledger_locked());
  return static_cast<std::uint64_t>(renewed);
}

bool CampaignCoordinator::complete() const {
  std::lock_guard lock(mu_);
  return ledger_.complete();
}

core::CampaignManifest CampaignCoordinator::manifest() const {
  std::lock_guard lock(mu_);
  return manifest_;
}

CampaignCoordinator::Status CampaignCoordinator::status() const {
  std::lock_guard lock(mu_);
  Status s;
  s.phase = phase_;
  s.plan_hash = plan_hash_;
  s.planned = ledger_.entries.size();
  s.open = ledger_.count(LeaseState::kOpen);
  s.leased = ledger_.count(LeaseState::kLeased);
  s.done = ledger_.count(LeaseState::kDone);
  s.complete = ledger_.complete();
  return s;
}

std::vector<core::LeaseWorkerStats> CampaignCoordinator::worker_stats() const {
  std::lock_guard lock(mu_);
  return ledger_.workers;
}

}  // namespace vppstudy::server
