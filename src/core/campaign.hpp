// The campaign engine: the one sweep API.
//
// A declarative CampaignPlan -- sweep + extra axes + modules + seed + shard
// granularity -- is compiled into (module, grid point, row-range shard) units
// and executed by CampaignEngine on a work-stealing pool with worker-local
// session arenas. Benches, vppctl, the vppd service and distributed workers
// all run their sweeps through it. A VPP-only plan produces exactly the job
// set, stream keys, and assembly order of the paper's (module x VPP) grid
// (core/axis.hpp explains the seed-normalization rule that makes this hold),
// and each grid's to_sweep() reduces it to the per-module result structs of
// core/study.hpp. Every shard of Algs. 1-3 runs one per-row loop templated
// on its harness test (core/campaign_engine.cpp); a phase differs only in
// its row type, its test, its ManifestShard vector and its CellStore entry
// points. CampaignEngine::run_resilient is the retry/quarantine form of the
// RowHammer campaign under injected faults, on the same pipeline and loop,
// so pattern-axis rows run under the fault plan too.
//
// Layers the engine composes:
//
//  * CellStore -- an optional per-row result store consulted before any
//    session runs. The vppd daemon adapts its content-addressed ResultCache
//    to this interface; rows served from the store are merged with computed
//    rows and the merged output is bit-identical to a fresh run, because
//    every row is a pure function of its stream key.
//
//  * Campaign manifest -- optional checkpoint/resume. When
//    CampaignPlan::manifest_path is set, the engine checkpoints a manifest
//    (plan hash + full plan spec + completed-shard records with per-row
//    results and session counts, versioned JSON like softmc/trace_dump).
//    On disk it is an append-only, checksummed journal
//    (core/campaign_journal.hpp): each WCDP prep and each completed shard
//    appends one fdatasync'ed line, so a checkpoint costs O(record), not
//    O(manifest). A torn last line is dropped on load. A run that finishes
//    without error compacts the journal into one plain document in
//    canonical order. A killed campaign re-run against the same manifest
//    skips completed shards and the merged result -- rows, reductions,
//    instrumentation -- is byte-identical to an uninterrupted run. The
//    manifest embeds the plan spec, so plan_from_manifest reconstructs the
//    campaign from the file alone (vppctl campaign resume).
//
// Determinism: unit order (module, point, shard) is the assembly and
// error-priority order regardless of scheduling; manifest records are
// journaled in drain order, so "the first N shards" of a partial manifest
// is a deterministic set for any fixed jobs count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "common/expected.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/axis.hpp"
#include "core/parallel_study.hpp"
#include "core/study.hpp"
#include "dram/profile.hpp"
#include "harness/recovery.hpp"
#include "softmc/fault_injector.hpp"
#include "softmc/trace_dump.hpp"

namespace vppstudy::softmc {
class Session;
}  // namespace vppstudy::softmc

namespace vppstudy::core {

/// A declarative multi-axis campaign: what to sweep (VPP levels come from
/// `sweep.vpp_levels`, extra axes from `axes`), on which modules, with which
/// seed, plus execution and checkpoint knobs.
struct CampaignPlan {
  SweepConfig sweep;
  CampaignAxes axes;
  std::vector<dram::ModuleProfile> modules;
  /// Base seed of the per-row noise streams. Campaigns with different seeds
  /// see independent measurement noise; the device physics (which cells are
  /// weak, where flips land) is keyed by each module's own profile seed and
  /// does not change.
  std::uint64_t seed = 0;
  /// Worker threads: 1 runs jobs inline on the calling thread (serial),
  /// >= 2 spawns that many workers, 0 or negative uses all hardware threads.
  /// The engine additionally drops to inline execution when the planned job
  /// count is too small for a pool to pay off, and never spawns more workers
  /// than there are jobs. Not part of the plan identity: any jobs count
  /// produces byte-identical results.
  int jobs = 1;
  /// Shard granularity: sampled rows per shard job within one (module, grid
  /// point) cell. Smaller shards expose more parallelism when the grid has
  /// fewer cells than cores; 0 means one shard per cell. Per-row noise
  /// streams make results bit-identical at any value, but the value fixes
  /// the manifest's canonical shard grid, so it is part of digest().
  std::uint32_t rows_per_shard = 4;
  /// Cooperative cancellation: shard jobs poll this between sampled rows and
  /// fail with kCancelled, so a cancelled campaign drains in at most one
  /// row's worth of work per in-flight shard. Rows finished before the
  /// cancel are complete and valid (never torn) -- the vppd result cache
  /// relies on that. Default token never cancels.
  common::CancelToken cancel;
  /// Checkpoint file; empty disables checkpointing. The manifest is keyed
  /// by digest(phase), so one path serves one (plan, phase) pair.
  std::string manifest_path;
  /// Stop submitting new shard computations after this many (0 = no limit)
  /// and fail with kCancelled once completed work is checkpointed -- the
  /// deterministic "kill mid-campaign" used by the resume tests, and a
  /// budget knob for incremental fill-in of big grids.
  std::uint32_t max_new_shards = 0;

  /// Hash of every result-affecting plan input for `phase`: seed, sampling,
  /// phase configs, VPP levels, axes, shard granularity (the manifest's
  /// canonical shard grid), and module identities. jobs and manifest_path
  /// are excluded -- they do not change results.
  [[nodiscard]] std::uint64_t digest(JobPhase phase) const;
};

/// Optional per-row result store the engine consults before computing a
/// row and feeds after computing one. All methods take the *normalized*
/// grid point (core/axis.hpp), so implementations key by the same axis
/// coordinates the stream seeds use. Default implementation stores nothing.
class CellStore {
 public:
  virtual ~CellStore() = default;

  [[nodiscard]] virtual bool lookup_wcdp(const dram::ModuleProfile& profile,
                                         std::vector<dram::DataPattern>* out) {
    (void)profile;
    (void)out;
    return false;
  }
  virtual void store_wcdp(const dram::ModuleProfile& profile,
                          const std::vector<dram::DataPattern>& wcdp) {
    (void)profile;
    (void)wcdp;
  }

  [[nodiscard]] virtual bool lookup_hammer(const dram::ModuleProfile& profile,
                                           const AxisPoint& point,
                                           std::uint32_t row,
                                           harness::RowHammerRowResult* out) {
    (void)profile;
    (void)point;
    (void)row;
    (void)out;
    return false;
  }
  virtual void store_hammer(const dram::ModuleProfile& profile,
                            const AxisPoint& point,
                            const harness::RowHammerRowResult& row) {
    (void)profile;
    (void)point;
    (void)row;
  }

  [[nodiscard]] virtual bool lookup_trcd(const dram::ModuleProfile& profile,
                                         const AxisPoint& point,
                                         std::uint32_t row,
                                         harness::TrcdRowResult* out) {
    (void)profile;
    (void)point;
    (void)row;
    (void)out;
    return false;
  }
  virtual void store_trcd(const dram::ModuleProfile& profile,
                          const AxisPoint& point,
                          const harness::TrcdRowResult& row) {
    (void)profile;
    (void)point;
    (void)row;
  }

  [[nodiscard]] virtual bool lookup_retention(
      const dram::ModuleProfile& profile, const AxisPoint& point,
      std::uint32_t row, harness::RetentionRowResult* out) {
    (void)profile;
    (void)point;
    (void)row;
    (void)out;
    return false;
  }
  virtual void store_retention(const dram::ModuleProfile& profile,
                               const AxisPoint& point,
                               const harness::RetentionRowResult& row) {
    (void)profile;
    (void)point;
    (void)row;
  }
};

/// One reusable rig session per (worker, module name). Shared by the engine
/// and the vppd service (many requests, hence name keying; a slot whose
/// profile differs from the requested one, as inject's smaller bank does, is
/// rebuilt).
struct SessionArena {
  std::map<std::string, std::unique_ptr<softmc::Session>> sessions;
  softmc::Session& acquire(const dram::ModuleProfile& profile);
};

// --- Grid results ------------------------------------------------------------
// One grid per module per phase: `cells[point][i]` is the result of sampled
// row `rows[i]` at `points[point]`. For a VPP-only plan the points are
// exactly the usable VPP levels and to_sweep() reproduces the legacy result
// structs byte for byte.

struct HammerGrid {
  std::string module_name;
  dram::Manufacturer mfr = dram::Manufacturer::kMfrA;
  double vppmin_v = 0.0;
  std::vector<std::uint32_t> rows;
  std::vector<dram::DataPattern> wcdp;  ///< parallel to rows
  std::vector<AxisPoint> points;        ///< normalized, VPP-major
  std::vector<std::vector<harness::RowHammerRowResult>> cells;
  SweepInstrumentation instrumentation;

  [[nodiscard]] ModuleSweepResult to_sweep() const;
};

struct TrcdGrid {
  std::string module_name;
  double vppmin_v = 0.0;
  std::vector<std::uint32_t> rows;
  std::vector<AxisPoint> points;
  std::vector<std::vector<harness::TrcdRowResult>> cells;
  SweepInstrumentation instrumentation;

  [[nodiscard]] TrcdSweepResult to_sweep() const;
};

struct RetentionGrid {
  std::string module_name;
  dram::Manufacturer mfr = dram::Manufacturer::kMfrA;
  std::vector<std::uint32_t> rows;
  std::vector<AxisPoint> points;
  std::vector<std::vector<harness::RetentionRowResult>> cells;
  SweepInstrumentation instrumentation;

  [[nodiscard]] RetentionSweepResult to_sweep() const;
};

// --- Campaign manifest -------------------------------------------------------

/// One completed shard: its grid coordinates, the row results, and the
/// session counts that produced them (absent for shards served entirely
/// from a CellStore -- no session ran).
struct ManifestShard {
  std::string module;
  AxisPoint point;  ///< normalized
  std::uint32_t row_begin = 0;  ///< index range into the sampled row list
  std::uint32_t row_end = 0;
  bool counted = false;  ///< a session ran; counts below are meaningful
  softmc::CommandCounts counts;
  /// Exactly one of these is populated, per the manifest's phase.
  std::vector<harness::RowHammerRowResult> hammer;
  std::vector<harness::TrcdRowResult> trcd;
  std::vector<harness::RetentionRowResult> retention;
};

/// Hashable identity of one shard cell: the module, the point's axis
/// coordinates quantized the way stream seeds quantize them (so a record
/// round-tripped through JSON maps back to its cell exactly), and the row
/// range. Manifest lookups and the shard grid index key on it.
struct ShardKey {
  std::string module;
  std::int64_t vpp_mv = 0;
  std::int64_t temp_mc = 0;
  std::uint64_t hammer_count = 0;
  std::int64_t act_ps = 0;
  std::uint64_t pattern_hash = 0;
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;

  [[nodiscard]] static ShardKey of(const std::string& module,
                                   const AxisPoint& point,
                                   std::uint32_t row_begin,
                                   std::uint32_t row_end);
  [[nodiscard]] static ShardKey of(const ManifestShard& shard) {
    return of(shard.module, shard.point, shard.row_begin, shard.row_end);
  }
  friend bool operator==(const ShardKey&, const ShardKey&) = default;

  struct Hash {
    [[nodiscard]] std::size_t operator()(const ShardKey& key) const noexcept;
  };
};

struct ManifestWcdp {
  std::string module;
  std::vector<dram::DataPattern> wcdp;
  bool counted = false;
  softmc::CommandCounts counts;
};

/// The checkpoint document: plan hash + the full plan spec (so resume can
/// reconstruct the campaign from the file alone) + completed work.
/// Versioned like softmc/trace_dump: unknown major versions are rejected,
/// unknown keys ignored.
struct CampaignManifest {
  static constexpr int kVersion = 1;
  static constexpr std::string_view kSchemaPrefix =
      "vppstudy-campaign-manifest/";

  int version = kVersion;
  JobPhase phase = JobPhase::kRowHammer;
  std::uint64_t plan_hash = 0;

  // Plan spec (modules by (name, rows_per_bank); profiles are rebuilt from
  // chips/module_db on resume).
  SweepConfig sweep;
  CampaignAxes axes;
  std::uint64_t seed = 0;
  std::uint32_t rows_per_shard = 4;
  std::vector<std::pair<std::string, std::uint32_t>> modules;

  std::vector<ManifestWcdp> wcdp;
  std::vector<ManifestShard> shards;

  /// Total shard units the plan compiles to (for status displays).
  std::uint64_t planned_shards = 0;
};

/// Stable phase tag used in manifests and status output: "wcdp",
/// "rowhammer", "trcd", or "retention".
[[nodiscard]] std::string_view campaign_phase_name(JobPhase phase) noexcept;
/// Reverse of campaign_phase_name; false for unrecognized names.
[[nodiscard]] bool campaign_phase_from_name(std::string_view name,
                                            JobPhase& out) noexcept;

// --- Record-level serialization ---------------------------------------------
// The wcdp/shard record encodings are shared by the manifest writer/parser,
// the manifest journal's record lines (core/campaign_journal.hpp), and the
// vppd lease protocol (workers stream ManifestShard records over the wire
// in `submit` frames); all producers and consumers must stay
// byte-compatible.

/// 64-bit hashes and seeds round-trip the JSON layer as hex strings: the
/// JsonValue DOM stores numbers as doubles, which would silently truncate
/// values past 2^53.
[[nodiscard]] std::string u64_hex(std::uint64_t v);
[[nodiscard]] bool parse_u64_hex(const std::string& s, std::uint64_t& out);

void manifest_wcdp_json(common::JsonWriter& json, const ManifestWcdp& record);
void manifest_shard_json(common::JsonWriter& json, const ManifestShard& shard,
                         JobPhase phase);
[[nodiscard]] common::Result<ManifestWcdp> parse_manifest_wcdp(
    const common::JsonValue& item);
[[nodiscard]] common::Result<ManifestShard> parse_manifest_shard(
    const common::JsonValue& item, JobPhase phase);

[[nodiscard]] common::JsonWriter campaign_manifest_json(
    const CampaignManifest& manifest);
[[nodiscard]] common::Result<CampaignManifest> parse_campaign_manifest(
    const common::JsonValue& doc);
/// Read a manifest file -- a plain document or a journal -- with every
/// intact journal record folded in (core/campaign_journal.hpp).
[[nodiscard]] common::Result<CampaignManifest> load_campaign_manifest(
    const std::string& path);
/// Durable atomic write of one plain document (common/durable_file.hpp):
/// the journal's compaction, and a way to seed a checkpoint from a merged
/// manifest.
[[nodiscard]] bool write_campaign_manifest(const std::string& path,
                                           const CampaignManifest& manifest);
/// The zero-record manifest a fresh checkpoint of `plan` starts from: plan
/// hash and spec for `phase` (planned_shards left for the caller).
[[nodiscard]] CampaignManifest campaign_manifest_spec(const CampaignPlan& plan,
                                                      JobPhase phase);
/// kInvalidArgument unless `manifest` checkpoints `phase` of the plan with
/// digest `plan_hash` -- the check every resume applies.
[[nodiscard]] common::Status check_manifest_plan(
    const CampaignManifest& manifest, JobPhase phase, std::uint64_t plan_hash);
/// Advance the shared VPP_CAMPAIGN_KILL_AFTER=N counter: the process
/// SIGKILLs itself after the Nth checkpoint -- the deterministic
/// mid-campaign kill the resume tests and CI smoke jobs use. Checkpoints
/// are counted by their writers: one per engine manifest record, one per
/// coordinator submit, one per fuzz manifest write (core/fuzz_campaign), so
/// a kill boundary can land between fuzz generations as well as between
/// shards. Journal compaction is not a checkpoint and does not count.
void campaign_checkpoint_written();
/// Reconstruct the plan a manifest was checkpointing (vppctl campaign
/// resume). Fails if a module name is not in the module DB.
[[nodiscard]] common::Result<CampaignPlan> plan_from_manifest(
    const CampaignManifest& manifest);

// --- Resilient campaign results ---------------------------------------------

/// Outcome of one module's resilient campaign (CampaignEngine::run_resilient).
struct ModuleCampaignResult {
  std::string module_name;
  bool completed = false;
  std::uint32_t attempts = 0;  ///< the most any one of its jobs used
  /// The final failure (quarantined modules only).
  common::ErrorCode error_code = common::ErrorCode::kUnknown;
  std::string error_message;
  /// Valid when completed.
  ModuleSweepResult sweep;
  /// Injection tallies of every attempt of every job, failed ones included.
  softmc::FaultInjector::InjectionCounts injections;
  /// Replayable evidence of the failing job (quarantined modules only).
  bool has_dump = false;
  softmc::TraceDump dump;
};

/// A resilient campaign. Quarantined modules keep their failure evidence and
/// are excluded from cross-module statistics (hc_first_cv); partial results
/// export via core/export's campaign CSV/JSON with explicit status markers.
struct CampaignResult {
  std::vector<ModuleCampaignResult> modules;  ///< plan order
  /// All job attempts the campaign ran, failed ones included, with retry
  /// and quarantine accounting.
  SweepInstrumentation instrumentation;
  std::vector<harness::QuarantineRecord> quarantines;

  [[nodiscard]] std::size_t completed_count() const noexcept;
  /// Coefficient of variation of module-min HCfirst at the nominal level,
  /// across *completed* modules only -- quarantined modules carry partial
  /// or no data and would bias the spread (the paper's CV-across-repeats
  /// methodology, section 4.6, applied across modules). 0 with fewer than
  /// two completed modules.
  [[nodiscard]] double hc_first_cv() const;
};

/// External execution context: the vppd daemon keeps a long-lived pool with
/// warm session arenas across requests and lends it to each engine run. Both
/// pointers must outlive the engine; pass {} to let each run build its own
/// right-sized pool.
struct CampaignExecution {
  common::WorkerLocal<SessionArena>* arenas = nullptr;
  common::ThreadPool* pool = nullptr;
};

class CampaignEngine {
 public:
  using Execution = CampaignExecution;

  explicit CampaignEngine(CampaignPlan plan, CellStore* store = nullptr,
                          Execution exec = {});

  [[nodiscard]] const CampaignPlan& plan() const noexcept { return plan_; }

  /// Alg. 1 over the grid: one HammerGrid per module, in plan order. Fails
  /// on the first failing unit in (module, point, shard) order.
  [[nodiscard]] common::Expected<std::vector<HammerGrid>> run_hammer();
  /// Alg. 2 over the grid (VPP x temperature).
  [[nodiscard]] common::Expected<std::vector<TrcdGrid>> run_trcd();
  /// Alg. 3 over the grid (VPP x temperature).
  [[nodiscard]] common::Expected<std::vector<RetentionGrid>> run_retention();

  /// The fault-tolerant RowHammer campaign: run_hammer's grid with `faults`
  /// injected by deterministic FaultInjectors standing in for the
  /// misbehaving silicon the paper's rig saw at reduced VPP. Each job (a
  /// module's WCDP prep or one unit) has its own injector, seeded from (fault
  /// plan seed, module seed, job key), and retries in place under the
  /// harness retry policy (harness/recovery). A job that fails persistently
  /// or exhausts its budget quarantines its module, with the trace dump of
  /// the first such job in (module, point, shard) order; `trace_capacity`
  /// sizes every attempt's trace ring. Byte-identical at any jobs count.
  /// Ignores the manifest and the CellStore: a faulted row is not a pure
  /// function of its cell key. Always returns a result: per-module failures
  /// are recorded as quarantines, never propagated as campaign failure.
  [[nodiscard]] CampaignResult run_resilient(
      const softmc::FaultPlan& faults, const harness::RetryPolicy& retry,
      std::size_t trace_capacity);

 private:
  CampaignPlan plan_;
  CellStore* store_ = nullptr;
  Execution exec_;
};

}  // namespace vppstudy::core
