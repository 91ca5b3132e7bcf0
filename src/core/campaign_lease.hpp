// Campaign distribution primitives: the canonical shard grid, the lease
// ledger, and the partial-manifest merge.
//
// A CampaignPlan compiles to a *canonical shard grid* -- the flat
// (module, point, row-range) unit list in the engine's fixed
// (module-major, then point, then shard) order. Distribution never changes
// that grid: a coordinator leases disjoint index subsets of it to workers,
// each worker computes its shards with run_campaign_shards (bit-identical
// to the single-host engine, because every row is a pure function of its
// stream key), and the coordinator merges returned ManifestShard records
// back into one manifest in canonical order. On disk the coordinator
// appends each accepted record to the manifest journal
// (core/campaign_journal.hpp) in arrival order; a restart re-merges the
// journal into canonical order, and completion compacts it into one
// canonical document. The merged manifest is therefore indistinguishable
// from a single-host checkpoint, and resuming the engine over it reproduces
// the single-host CSV/JSON byte for byte.
//
// Fencing: each lease grant carries a monotonically increasing token and an
// expiry deadline. A crashed or stalled worker's shards expire and are
// re-leased under a *new* token; a late submission under the old token is
// rejected with kLeaseExpired and nothing is merged -- results are never
// double-counted even though (by determinism) a duplicate would carry the
// same bytes. The ledger is versioned JSON persisted durably beside the
// manifest (campaign_ledger_path) so a restarted coordinator resumes leases
// too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {

// --- Canonical shard grid ----------------------------------------------------

/// One cell of the canonical shard grid: the flat index plus the grid
/// coordinates a ManifestShard record carries.
struct ShardCoord {
  std::uint64_t index = 0;
  std::size_t module_index = 0;  ///< position in CampaignPlan::modules
  std::string module;
  AxisPoint point;  ///< normalized
  std::uint32_t row_begin = 0;  ///< index range into the sampled row list
  std::uint32_t row_end = 0;

  friend bool operator==(const ShardCoord&, const ShardCoord&) = default;
};

/// Compile the plan into the canonical shard grid for `phase` -- the same
/// unit set, in the same order, the engine executes. Fails like the engine
/// does (kNoUsableLevels / kEmptySample).
[[nodiscard]] common::Expected<std::vector<ShardCoord>> compile_campaign_shards(
    const CampaignPlan& plan, JobPhase phase);

/// Coordinate -> grid index lookup, hashed on ShardKey (which quantizes the
/// axis doubles the way stream seeds do, so a manifest record round-tripped
/// through JSON maps back to its cell exactly).
class ShardGridIndex {
 public:
  ShardGridIndex() = default;
  explicit ShardGridIndex(const std::vector<ShardCoord>& grid);

  /// The grid cell a shard record names, or nullptr if it is not a cell of
  /// this campaign.
  [[nodiscard]] const ShardCoord* find(const ManifestShard& shard) const;

 private:
  std::unordered_map<ShardKey, const ShardCoord*, ShardKey::Hash> cells_;
};

// --- Worker-side shard execution ---------------------------------------------

/// The records one worker computed for a leased shard subset: a WCDP prep
/// record for each module whose prep this batch ran a session for (none
/// when the CellStore served it -- a per-worker memo makes that at most
/// once per module per worker), plus one ManifestShard per leased index, in
/// ascending index order. Byte-identical to what a single-host engine run
/// records for the same cells.
struct CampaignShardBatch {
  std::vector<ManifestWcdp> wcdp;
  std::vector<ManifestShard> shards;
};

/// Execute a shard index subset of the canonical grid: the engine's own
/// unit pipeline (same resolve order, same per-point stream seeds, same
/// pool) over the sorted, deduplicated indices. An index past the grid is
/// kInvalidArgument before anything runs. `store` is consulted like the
/// engine consults it, for WCDP preps and for rows; pass a per-worker memo
/// so repeated leases of one module's shards run its prep once. A shard
/// whose rows all came from the store has counted=false; a memo that serves
/// no rows leaves every shard counted=true, like a storeless single-host
/// run. plan.max_new_shards caps the computed shards as it does for the
/// engine. Never reads or writes plan.manifest_path: the coordinator owns
/// the checkpoint.
[[nodiscard]] common::Expected<CampaignShardBatch> run_campaign_shards(
    const CampaignPlan& plan, JobPhase phase,
    const std::vector<std::uint64_t>& indices, CellStore* store,
    CampaignExecution exec = {});

// --- Lease ledger ------------------------------------------------------------

enum class LeaseState : std::uint8_t { kOpen = 0, kLeased, kDone };

[[nodiscard]] std::string_view lease_state_name(LeaseState state) noexcept;

/// Lease bookkeeping of one grid cell. `worker`/`token`/`expires_at_ms` are
/// meaningful for kLeased; kDone keeps `worker` as the submitter of record.
struct LeaseEntry {
  LeaseState state = LeaseState::kOpen;
  std::string worker;
  std::uint64_t token = 0;
  std::int64_t expires_at_ms = 0;
};

/// Cumulative per-worker accounting. `leased` counts shard grants (not
/// currently-held shards), `expired` counts shards this worker lost to lease
/// expiry, `completed` counts shards it submitted -- so a crashed worker's
/// history survives re-leasing its shards to someone else.
struct LeaseWorkerStats {
  std::string worker;
  std::uint64_t leased = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
};

/// The versioned lease ledger persisted beside the manifest. Entries are
/// parallel to the canonical shard grid; all state transitions are explicit
/// in `now_ms` so expiry and fencing are unit-testable without clocks.
struct CampaignLeaseLedger {
  static constexpr int kVersion = 1;
  static constexpr std::string_view kSchemaPrefix = "vppstudy-campaign-leases/";

  int version = kVersion;
  JobPhase phase = JobPhase::kRowHammer;
  std::uint64_t plan_hash = 0;
  /// Fencing tokens are ledger-scoped and strictly increasing; 0 is never a
  /// valid token.
  std::uint64_t next_token = 1;
  std::vector<LeaseEntry> entries;
  std::vector<LeaseWorkerStats> workers;  ///< first-lease order

  [[nodiscard]] LeaseWorkerStats& worker_stats(const std::string& worker);

  /// Expire every lease past its deadline (entries reopen, the holder's
  /// `expired` count grows). Returns how many expired.
  std::size_t expire_stale(std::int64_t now_ms);

  struct Grant {
    std::uint64_t token = 0;  ///< 0 when no shard was available
    std::vector<std::uint64_t> shards;  ///< canonical order, disjoint
  };
  /// Lease up to `max_shards` open shards to `worker` under one fresh
  /// fencing token. Expires stale leases first.
  ///
  /// Without `modules`, shards are granted in canonical grid order. With
  /// `modules` (one module index per entry, parallel to the grid), grants
  /// are *module-affine*: (1) modules this worker is already working
  /// (live leases or completed shards), then (2) modules no other worker
  /// holds live leases in, then (3) anything still open -- each tier in
  /// canonical order, and the returned grant is sorted. Affinity keeps
  /// concurrent workers on disjoint modules so each module's WCDP prep runs
  /// once fleet-wide instead of once per worker; which worker computes a
  /// shard never affects its bytes, so the merged manifest is unchanged.
  [[nodiscard]] Grant lease(const std::string& worker, std::size_t max_shards,
                            std::int64_t now_ms, std::int64_t ttl_ms,
                            const std::vector<std::size_t>* modules = nullptr);

  /// Extend the deadline of every shard still leased under `token`. Returns
  /// how many were renewed (0 = the lease is gone; the worker should
  /// re-lease).
  std::size_t renew(std::uint64_t token, std::int64_t now_ms,
                    std::int64_t ttl_ms);

  enum class SubmitCheck : std::uint8_t {
    kMergeable,  ///< leased under this token; accept and mark done
    kDuplicate,  ///< already done; idempotent no-op
    kStale,      ///< open or leased under a different token; reject
  };
  [[nodiscard]] SubmitCheck check_submit(std::uint64_t index,
                                         std::uint64_t token) const;

  /// Record a merged shard: entry -> kDone, worker's `completed` grows.
  void mark_done(std::uint64_t index, const std::string& worker);

  [[nodiscard]] std::uint64_t count(LeaseState state) const;
  [[nodiscard]] bool complete() const {
    return count(LeaseState::kDone) == entries.size();
  }
};

[[nodiscard]] common::JsonWriter campaign_ledger_json(
    const CampaignLeaseLedger& ledger);
[[nodiscard]] common::Result<CampaignLeaseLedger> parse_campaign_ledger(
    const common::JsonValue& doc);
[[nodiscard]] common::Result<CampaignLeaseLedger> load_campaign_ledger(
    const std::string& path);
/// Durable atomic write (common/durable_file.hpp), like the manifest's
/// compaction and without the kill-after-write switch: lease state is
/// control-plane, not results. Durability keeps fencing tokens strictly
/// increasing across a power loss -- a token granted before the cut is
/// never granted again.
[[nodiscard]] bool write_campaign_ledger(const std::string& path,
                                         const CampaignLeaseLedger& ledger);
/// Where the ledger lives for a given manifest: `<manifest>.leases.json`.
[[nodiscard]] std::string campaign_ledger_path(
    const std::string& manifest_path);

// --- Partial-manifest merge --------------------------------------------------

struct ShardMergeOutcome {
  std::size_t accepted = 0;    ///< new shard records inserted
  std::size_t duplicates = 0;  ///< already present (idempotent)
  /// Batch positions of the inserted records, in batch order: what a
  /// checkpoint journal must append.
  std::vector<std::size_t> new_wcdp;
  std::vector<std::size_t> new_shards;
};

/// Merge a worker's batch into the manifest, keeping `manifest.shards`
/// sorted in canonical grid order and `manifest.wcdp` in module plan order.
/// All-or-nothing validation: a submitted plan hash that differs from the
/// manifest's, or any record that does not map onto the grid, rejects the
/// whole batch (kInvalidArgument) with nothing merged. Records already
/// present count as duplicates and are left untouched -- by determinism the
/// bytes are identical, so first-wins is also last-wins.
[[nodiscard]] common::Result<ShardMergeOutcome> merge_campaign_shards(
    CampaignManifest& manifest, const std::vector<ShardCoord>& grid,
    std::uint64_t submitted_plan_hash, const std::vector<ManifestWcdp>& wcdp,
    const std::vector<ManifestShard>& shards);

}  // namespace vppstudy::core
