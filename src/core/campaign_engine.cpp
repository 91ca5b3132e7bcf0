// CampaignEngine execution: plan compilation into (module, point, shard)
// units, and one unit pipeline -- the layered resolve order (manifest ->
// CellStore -> compute) and the deterministic drain -- that runs the whole
// grid for CampaignEngine::run_* (with checkpoint journal, compaction and
// grid assembly) and a leased index subset for run_campaign_shards (no
// checkpoint; records returned to the coordinator). Manifest/plan
// serialization lives in campaign.cpp.
#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/campaign_lease.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/wcdp.hpp"
#include "softmc/session.hpp"
#include "stats/descriptive.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;

namespace {

/// Below this many planned jobs the pool is pure overhead (thread spin-up,
/// futures, arenas migrating between cores): run everything inline instead.
constexpr std::size_t kMinJobsForPool = 8;

unsigned workers_for(int jobs, std::size_t planned_jobs) {
  if (planned_jobs < kMinJobsForPool) return 0;
  const unsigned workers = common::ThreadPool::workers_for_jobs(jobs);
  return static_cast<unsigned>(std::min<std::size_t>(workers, planned_jobs));
}

/// A [begin, end) index range into the sampled row list.
struct ShardSpec {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<ShardSpec> shard_ranges(std::size_t rows,
                                    std::uint32_t rows_per_shard) {
  const std::size_t step = rows_per_shard == 0 ? rows : rows_per_shard;
  std::vector<ShardSpec> out;
  for (std::size_t b = 0; b < rows; b += step) {
    out.push_back({b, std::min(rows, b + step)});
  }
  return out;
}

/// Per-module compilation of the plan: usable levels expanded into grid
/// points, the sampled rows, and the shard grid over them.
struct ModulePlan {
  std::vector<AxisPoint> points;
  double nominal_vpp = 0.0;  ///< highest usable level (WCDP prep runs here)
  std::shared_ptr<const std::vector<std::uint32_t>> rows;
  std::vector<ShardSpec> shards;
};

common::Expected<std::vector<ModulePlan>> plan_modules(
    const CampaignPlan& plan, JobPhase phase) {
  std::vector<ModulePlan> plans(plan.modules.size());
  for (std::size_t m = 0; m < plan.modules.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    const std::vector<double> levels =
        usable_vpp_levels(plan.sweep, profile.vppmin_v);
    if (levels.empty()) {
      return Error{ErrorCode::kNoUsableLevels,
                   "no usable VPP levels for module " + profile.name}
          .with_module(profile.name);
    }
    plans[m].nominal_vpp = levels.front();
    plans[m].points =
        plan.axes.points_for(levels, phase, plan.sweep.hammer.ber_hc);
    auto rows = sample_campaign_rows(profile, plan.sweep.sampling);
    if (rows.empty()) {
      return Error{ErrorCode::kEmptySample, "row sampling produced no rows"}
          .with_module(profile.name);
    }
    plans[m].shards = shard_ranges(rows.size(), plan.rows_per_shard);
    plans[m].rows =
        std::make_shared<const std::vector<std::uint32_t>>(std::move(rows));
  }
  return plans;
}

/// Checkpoint state of one run: the manifest read at start (spec plus the
/// records it restores, hashed for O(1) lookups) and the journal this run's
/// records append to.
struct ManifestCtx {
  bool enabled = false;
  CampaignManifest doc;
  ManifestJournal journal;
  std::unordered_map<std::string, std::size_t> wcdp_at;
  std::unordered_map<ShardKey, std::size_t, ShardKey::Hash> shard_at;

  [[nodiscard]] const ManifestWcdp* find_wcdp(const std::string& module) const {
    const auto it = wcdp_at.find(module);
    return it == wcdp_at.end() ? nullptr : &doc.wcdp[it->second];
  }
  [[nodiscard]] const ManifestShard* find_shard(const std::string& module,
                                                const AxisPoint& point,
                                                std::uint32_t row_begin,
                                                std::uint32_t row_end) const {
    const auto it =
        shard_at.find(ShardKey::of(module, point, row_begin, row_end));
    return it == shard_at.end() ? nullptr : &doc.shards[it->second];
  }
  /// One checkpoint: journal `record`. The first append creates the file
  /// with `doc` -- the spec plus the restored records -- as its line 1.
  template <typename Record>
  [[nodiscard]] common::Status append(const Record& record) {
    VPP_RETURN_IF_ERROR(journal.open(doc));
    VPP_RETURN_IF_ERROR(journal.append(record));
    campaign_checkpoint_written();
    return common::Status::ok_status();
  }
};

common::Expected<ManifestCtx> init_manifest(const CampaignPlan& plan,
                                            JobPhase phase,
                                            std::uint64_t planned_shards) {
  ManifestCtx ctx;
  if (plan.manifest_path.empty()) return ctx;
  ctx.enabled = true;
  VPP_ASSIGN_OR_RETURN(OpenedManifest opened,
                       open_campaign_manifest(plan.manifest_path, plan, phase,
                                              planned_shards));
  ctx.doc = std::move(opened.manifest);
  ctx.journal = std::move(opened.journal);
  for (std::size_t i = 0; i < ctx.doc.wcdp.size(); ++i) {
    ctx.wcdp_at.try_emplace(ctx.doc.wcdp[i].module, i);
  }
  for (std::size_t i = 0; i < ctx.doc.shards.size(); ++i) {
    ctx.shard_at.try_emplace(ShardKey::of(ctx.doc.shards[i]), i);
  }
  return ctx;
}

/// Execution context of one run: the injected pool/arenas (vppd's warm
/// sessions) or a locally built, right-sized pair. Member order matters:
/// arenas must outlive the pool (its destructor drains queued jobs that
/// touch their worker's arena).
struct Exec {
  std::unique_ptr<common::WorkerLocal<SessionArena>> own_arenas;
  std::unique_ptr<common::ThreadPool> own_pool;
  common::WorkerLocal<SessionArena>* arenas = nullptr;
  common::ThreadPool* pool = nullptr;
};

Exec make_exec(const CampaignEngine::Execution& injected, int jobs,
               std::size_t planned_jobs) {
  Exec exec;
  if (injected.pool != nullptr && injected.arenas != nullptr) {
    exec.arenas = injected.arenas;
    exec.pool = injected.pool;
    return exec;
  }
  const unsigned workers = workers_for(jobs, planned_jobs);
  exec.own_arenas = std::make_unique<common::WorkerLocal<SessionArena>>(workers);
  exec.own_pool = std::make_unique<common::ThreadPool>(workers);
  exec.arenas = exec.own_arenas.get();
  exec.pool = exec.own_pool.get();
  return exec;
}

// --- Phase traits ------------------------------------------------------------
// One trait set per characterization phase binds the shard primitive, the
// CellStore entry points, and the manifest payload vector; the generic
// runner below is phase-agnostic.

struct HammerTraits {
  using RowResult = harness::RowHammerRowResult;
  using Cell = HammerCell;
  using Grid = HammerGrid;
  static constexpr JobPhase kPhase = JobPhase::kRowHammer;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.hammer; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.hammer;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_hammer(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_hammer(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes& axes,
                                    std::uint64_t seed, const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern> wcdp,
                                    const common::CancelToken& cancel) {
    if (point.pattern_hash != 0) {
      const harness::PatternSpec* spec = axes.find_pattern(point.pattern_hash);
      if (spec == nullptr) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "campaign point references a pattern hash absent "
                             "from the pattern axis"};
      }
      return run_pattern_rows(session, sweep, seed, point, *spec, rows, wcdp,
                              cancel);
    }
    return run_hammer_rows(session, sweep, seed, point, rows, wcdp, cancel);
  }
};

struct TrcdTraits {
  using RowResult = harness::TrcdRowResult;
  using Cell = TrcdCell;
  using Grid = TrcdGrid;
  static constexpr JobPhase kPhase = JobPhase::kTrcd;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.trcd; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.trcd;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_trcd(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_trcd(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes&, std::uint64_t seed,
                                    const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern>,
                                    const common::CancelToken& cancel) {
    return run_trcd_rows(session, sweep, seed, point, rows, cancel);
  }
};

struct RetentionTraits {
  using RowResult = harness::RetentionRowResult;
  using Cell = RetentionCell;
  using Grid = RetentionGrid;
  static constexpr JobPhase kPhase = JobPhase::kRetention;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.retention; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.retention;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_retention(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_retention(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes&, std::uint64_t seed,
                                    const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern>,
                                    const common::CancelToken& cancel) {
    return run_retention_rows(session, sweep, seed, point, rows, cancel);
  }
};

/// Resolved WCDP prep of one module (hammer phase A): restored from a
/// manifest or CellStore, or computed by a prep job.
struct PrepState {
  std::vector<dram::DataPattern> wcdp;
  bool counted = false;  ///< a prep session ran (restored-from-store: false)
  softmc::CommandCounts counts;
  bool restored = false;   ///< already recorded in the manifest
  bool submitted = false;  ///< a prep job is in flight
  std::future<common::Expected<WcdpPrep>> future;
};

/// One (module, point, shard) unit of the grid: indices into
/// CampaignPlan::modules, that module's points, and its shards.
struct UnitRef {
  std::size_t m = 0;
  std::size_t p = 0;
  std::size_t s = 0;
};

/// Every unit of the grid, in canonical (module, point, shard) order.
std::vector<UnitRef> grid_units(const std::vector<ModulePlan>& plans) {
  std::vector<UnitRef> refs;
  for (std::size_t m = 0; m < plans.size(); ++m) {
    for (std::size_t p = 0; p < plans[m].points.size(); ++p) {
      for (std::size_t s = 0; s < plans[m].shards.size(); ++s) {
        refs.push_back({m, p, s});
      }
    }
  }
  return refs;
}

/// The units at flat canonical-grid `indices`, sorted and deduplicated;
/// kInvalidArgument for an index past the grid.
common::Expected<std::vector<UnitRef>> units_at(
    const std::vector<ModulePlan>& plans, std::vector<std::uint64_t> indices) {
  std::vector<std::uint64_t> offsets(plans.size() + 1, 0);
  for (std::size_t m = 0; m < plans.size(); ++m) {
    offsets[m + 1] =
        offsets[m] + plans[m].points.size() * plans[m].shards.size();
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  if (!indices.empty() && indices.back() >= offsets.back()) {
    return Error{ErrorCode::kInvalidArgument,
                 "shard index " + std::to_string(indices.back()) +
                     " is outside the campaign grid (" +
                     std::to_string(offsets.back()) + " shards)"};
  }
  std::vector<UnitRef> refs;
  refs.reserve(indices.size());
  std::size_t m = 0;
  for (const std::uint64_t index : indices) {
    while (offsets[m + 1] <= index) ++m;
    const std::uint64_t local = index - offsets[m];
    const std::size_t shards = plans[m].shards.size();
    refs.push_back({m, static_cast<std::size_t>(local / shards),
                    static_cast<std::size_t>(local % shards)});
  }
  return refs;
}

/// One unit through the resolve pipeline.
template <typename Traits>
struct UnitState {
  bool resolved = false;    ///< rows fully populated
  bool in_manifest = false; ///< restored from the manifest (no re-append)
  bool counted = false;     ///< a session ran; counts are meaningful
  bool submitted = false;
  bool budget_skipped = false;  ///< max_new_shards exhausted
  softmc::CommandCounts counts;
  std::vector<typename Traits::RowResult> rows;  ///< full shard, merged
  std::vector<std::uint32_t> missing;       ///< row addresses to compute
  std::vector<std::size_t> missing_index;   ///< their indices within the shard
  std::future<common::Expected<typename Traits::Cell>> future;
};

/// The engine's unit pipeline over a list of units in canonical order --
/// the whole grid for CampaignEngine::run_*, a leased subset for
/// run_campaign_shards. run() resolves the WCDP prep of every module the
/// units reference, then every unit, each in the layered order manifest ->
/// CellStore -> compute, and drains them in list order.
template <typename Traits>
struct UnitPipeline {
  static constexpr bool kHasPrep = Traits::kPhase == JobPhase::kRowHammer;

  UnitPipeline(const CampaignPlan& plan_in, std::vector<ModulePlan> plans_in,
               std::vector<UnitRef> refs_in)
      : plan(plan_in),
        plans(std::move(plans_in)),
        refs(std::move(refs_in)),
        preps(plans.size()) {}

  const CampaignPlan& plan;
  std::vector<ModulePlan> plans;
  std::vector<UnitRef> refs;
  std::vector<PrepState> preps;          ///< per module
  std::vector<UnitState<Traits>> units;  ///< parallel to refs

  /// The records of a resolved prep and unit, shared by the journal
  /// appends, the compaction and the leased batch.
  [[nodiscard]] ManifestWcdp wcdp_record(std::size_t m) const {
    ManifestWcdp record;
    record.module = plan.modules[m].name;
    record.wcdp = preps[m].wcdp;
    record.counted = preps[m].counted;
    record.counts = preps[m].counts;
    return record;
  }
  [[nodiscard]] ManifestShard shard_record(std::size_t u) const {
    const UnitRef& ref = refs[u];
    const ShardSpec shard = plans[ref.m].shards[ref.s];
    ManifestShard record;
    record.module = plan.modules[ref.m].name;
    record.point = plans[ref.m].points[ref.p];
    record.row_begin = static_cast<std::uint32_t>(shard.begin);
    record.row_end = static_cast<std::uint32_t>(shard.end);
    record.counted = units[u].counted;
    record.counts = units[u].counts;
    Traits::rows(record) = units[u].rows;
    return record;
  }

  /// Resolve and execute every unit, appending each new record to
  /// `manifest` when it is enabled. The first failing unit in list order
  /// is the run's error.
  [[nodiscard]] common::Status run(ManifestCtx& manifest, CellStore* store,
                                   const CampaignEngine::Execution& injected);
};

template <typename Traits>
common::Status UnitPipeline<Traits>::run(
    ManifestCtx& manifest, CellStore* store,
    const CampaignEngine::Execution& injected) {
  const SweepConfig& sweep = plan.sweep;
  const std::uint64_t seed = plan.seed;

  std::vector<bool> referenced(plans.size(), false);
  for (const UnitRef& ref : refs) referenced[ref.m] = true;
  std::size_t planned_jobs = refs.size();
  if constexpr (kHasPrep) {
    planned_jobs += std::count(referenced.begin(), referenced.end(), true);
  }
  Exec exec = make_exec(injected, plan.jobs, planned_jobs);
  auto& arenas = *exec.arenas;
  auto& pool = *exec.pool;

  std::optional<Error> first_error;

  // Phase A (hammer only): resolve each referenced module's WCDP prep --
  // manifest record, then CellStore, then a prep job; all prep jobs in
  // flight at once.
  if constexpr (kHasPrep) {
    for (std::size_t m = 0; m < plans.size(); ++m) {
      if (!referenced[m]) continue;
      const dram::ModuleProfile& profile = plan.modules[m];
      if (const ManifestWcdp* rec = manifest.find_wcdp(profile.name)) {
        preps[m].wcdp = rec->wcdp;
        preps[m].counted = rec->counted;
        preps[m].counts = rec->counts;
        preps[m].restored = true;
        continue;
      }
      if (store != nullptr && store->lookup_wcdp(profile, &preps[m].wcdp)) {
        continue;  // served from the store: no session, not counted
      }
      if (plan.cancel.cancelled()) {
        // Record, don't return: already-submitted preps must drain below
        // (an injected pool may outlive this call's captures otherwise).
        first_error =
            Error{ErrorCode::kCancelled, "sweep cancelled before WCDP prep"}
                .with_module(profile.name);
        break;
      }
      preps[m].submitted = true;
      preps[m].future = pool.submit(
          [&arenas, &pool, &profile, &sweep, seed,
           nominal = plans[m].nominal_vpp,
           rows = plans[m].rows]() -> common::Expected<WcdpPrep> {
            return run_wcdp_prep(arenas.local(pool).acquire(profile), sweep,
                                 seed, nominal, *rows);
          });
    }
  }

  // The unit table is compiled only now, with the prep jobs in flight.
  units.resize(refs.size());

  // Submission: at a module's first unit, drain its prep; then fan out the
  // unit. A unit resolves against the manifest first, then row by row
  // against the CellStore (on this thread, in list order, so store hit/miss
  // accounting is deterministic), and only the still-missing rows are
  // computed.
  std::uint32_t new_shards = 0;
  for (std::size_t u = 0; u < refs.size(); ++u) {
    const auto [m, p, s] = refs[u];
    const dram::ModuleProfile& profile = plan.modules[m];
    if constexpr (kHasPrep) {
      if (u == 0 || refs[u - 1].m != m) {
        if (preps[m].submitted) {
          auto prep = preps[m].future.get();
          if (!prep) {
            if (!first_error) first_error = std::move(prep).error();
            continue;
          }
          preps[m].wcdp = std::move(prep->wcdp);
          preps[m].counts = prep->counts;
          preps[m].counted = true;
          if (store != nullptr) store->store_wcdp(profile, preps[m].wcdp);
        }
        if (manifest.enabled && !preps[m].restored && !first_error) {
          if (auto st = manifest.append(wcdp_record(m)); !st.ok()) {
            first_error = std::move(st).error();
          }
        }
      }
    }
    if (first_error) continue;  // keep draining preps; stop submitting units

    const AxisPoint& point = plans[m].points[p];
    const ShardSpec shard = plans[m].shards[s];
    UnitState<Traits>& unit = units[u];
    if (const ManifestShard* rec = manifest.find_shard(
            profile.name, point, static_cast<std::uint32_t>(shard.begin),
            static_cast<std::uint32_t>(shard.end))) {
      unit.resolved = true;
      unit.in_manifest = true;
      unit.counted = rec->counted;
      unit.counts = rec->counts;
      unit.rows = Traits::rows(*rec);
      continue;
    }
    const std::vector<std::uint32_t>& rows = *plans[m].rows;
    const std::size_t size = shard.end - shard.begin;
    unit.rows.resize(size);
    std::vector<dram::DataPattern> missing_wcdp;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t row = rows[shard.begin + i];
      typename Traits::RowResult cached;
      if (store != nullptr &&
          Traits::lookup(*store, profile, point, row, &cached)) {
        unit.rows[i] = std::move(cached);
      } else {
        unit.missing.push_back(row);
        unit.missing_index.push_back(i);
        if constexpr (kHasPrep) {
          missing_wcdp.push_back(preps[m].wcdp[shard.begin + i]);
        }
      }
    }
    if (unit.missing.empty()) {
      unit.resolved = true;  // fully served from the store; not counted
      continue;
    }
    if (plan.max_new_shards != 0 && new_shards >= plan.max_new_shards) {
      unit.budget_skipped = true;
      continue;
    }
    ++new_shards;
    unit.submitted = true;
    unit.future = pool.submit(
        [&arenas, &pool, &profile, &sweep, &axes = plan.axes, seed, point,
         cancel = plan.cancel, missing = unit.missing,
         wcdp = std::move(missing_wcdp)] {
          return Traits::run(arenas.local(pool).acquire(profile), sweep, axes,
                             seed, point, std::span(missing), std::span(wcdp),
                             cancel);
        });
  }

  // Drain every in-flight unit in list order -- even after a failure, so a
  // shared pool never runs jobs whose captures are gone and completed work
  // still reaches the checkpoint. The first failing unit in this fixed
  // order is the run's error.
  for (std::size_t u = 0; u < refs.size(); ++u) {
    const dram::ModuleProfile& profile = plan.modules[refs[u].m];
    UnitState<Traits>& unit = units[u];
    if (unit.budget_skipped) {
      if (!first_error) {
        first_error = Error{ErrorCode::kCancelled,
                            "campaign shard budget exhausted "
                            "(max_new_shards reached)"}
                          .with_module(profile.name);
      }
      continue;
    }
    if (unit.submitted) {
      auto cell = unit.future.get();
      if (!cell) {
        if (!first_error) first_error = std::move(cell).error();
        continue;
      }
      unit.counted = true;
      unit.counts = cell->counts;
      const AxisPoint& point = plans[refs[u].m].points[refs[u].p];
      for (std::size_t k = 0; k < unit.missing.size(); ++k) {
        unit.rows[unit.missing_index[k]] = cell->rows[k];
        if (store != nullptr) {
          Traits::insert(*store, profile, point,
                         unit.rows[unit.missing_index[k]]);
        }
      }
      unit.resolved = true;
    }
    if (unit.resolved && !unit.in_manifest && manifest.enabled) {
      if (auto st = manifest.append(shard_record(u)); !st.ok()) {
        if (!first_error) first_error = std::move(st).error();
      }
    }
  }
  if (first_error) return *std::move(first_error);
  return common::Status::ok_status();
}

template <typename Traits>
common::Expected<std::vector<typename Traits::Grid>> run_grid_phase(
    const CampaignPlan& plan, CellStore* store,
    const CampaignEngine::Execution& injected) {
  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, Traits::kPhase));
  std::vector<UnitRef> refs = grid_units(plans);
  UnitPipeline<Traits> pipeline(plan, std::move(plans), std::move(refs));
  VPP_ASSIGN_OR_RETURN(
      ManifestCtx manifest,
      init_manifest(plan, Traits::kPhase, pipeline.refs.size()));
  VPP_RETURN_IF_ERROR(pipeline.run(manifest, store, injected));

  // The run finished: compact the journal into one canonical document --
  // the spec, then every record in (module, point, shard) order.
  if (manifest.journal.needs_compaction()) {
    CampaignManifest canonical = std::move(manifest.doc);
    canonical.wcdp.clear();
    canonical.shards.clear();
    if constexpr (UnitPipeline<Traits>::kHasPrep) {
      for (std::size_t m = 0; m < pipeline.plans.size(); ++m) {
        canonical.wcdp.push_back(pipeline.wcdp_record(m));
      }
    }
    for (std::size_t u = 0; u < pipeline.refs.size(); ++u) {
      canonical.shards.push_back(pipeline.shard_record(u));
    }
    VPP_RETURN_IF_ERROR(manifest.journal.compact(canonical));
  }

  // Assembly in (module, point, shard) order: instrumentation job order and
  // per-row series match the pre-engine drivers exactly.
  std::vector<typename Traits::Grid> grids(pipeline.plans.size());
  for (std::size_t m = 0; m < pipeline.plans.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    typename Traits::Grid& grid = grids[m];
    grid.module_name = profile.name;
    if constexpr (std::is_same_v<typename Traits::Grid, HammerGrid>) {
      grid.mfr = profile.mfr;
      grid.vppmin_v = profile.vppmin_v;
      grid.wcdp = pipeline.preps[m].wcdp;
      if (pipeline.preps[m].counted) {
        grid.instrumentation.add_job(pipeline.preps[m].counts);
      }
    } else if constexpr (std::is_same_v<typename Traits::Grid, TrcdGrid>) {
      grid.vppmin_v = profile.vppmin_v;
    } else {
      grid.mfr = profile.mfr;
    }
    grid.rows = *pipeline.plans[m].rows;
    grid.points = pipeline.plans[m].points;
    grid.cells.assign(
        grid.points.size(),
        std::vector<typename Traits::RowResult>(grid.rows.size()));
  }
  for (std::size_t u = 0; u < pipeline.refs.size(); ++u) {
    const UnitRef& ref = pipeline.refs[u];
    const ShardSpec shard = pipeline.plans[ref.m].shards[ref.s];
    UnitState<Traits>& unit = pipeline.units[u];
    typename Traits::Grid& grid = grids[ref.m];
    if (unit.counted) grid.instrumentation.add_job(unit.counts);
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      grid.cells[ref.p][i] = std::move(unit.rows[i - shard.begin]);
    }
  }
  return grids;
}

/// run_campaign_shards for one phase: the unit pipeline over the leased
/// subset. The coordinator owns the checkpoint, so this never touches
/// plan.manifest_path.
template <typename Traits>
common::Expected<CampaignShardBatch> run_shard_units(
    const CampaignPlan& plan, const std::vector<std::uint64_t>& indices,
    CellStore* store, const CampaignEngine::Execution& injected) {
  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, Traits::kPhase));
  VPP_ASSIGN_OR_RETURN(std::vector<UnitRef> refs, units_at(plans, indices));
  UnitPipeline<Traits> pipeline(plan, std::move(plans), std::move(refs));
  ManifestCtx no_manifest;
  VPP_RETURN_IF_ERROR(pipeline.run(no_manifest, store, injected));

  CampaignShardBatch batch;
  for (std::size_t m = 0; m < pipeline.preps.size(); ++m) {
    if (pipeline.preps[m].counted) {
      batch.wcdp.push_back(pipeline.wcdp_record(m));
    }
  }
  batch.shards.reserve(pipeline.refs.size());
  for (std::size_t u = 0; u < pipeline.refs.size(); ++u) {
    batch.shards.push_back(pipeline.shard_record(u));
  }
  return batch;
}

}  // namespace

common::Expected<std::vector<ShardCoord>> compile_campaign_shards(
    const CampaignPlan& plan, JobPhase phase) {
  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, phase));
  const std::vector<UnitRef> refs = grid_units(plans);
  std::vector<ShardCoord> grid(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto [m, p, s] = refs[i];
    grid[i].index = i;
    grid[i].module_index = m;
    grid[i].module = plan.modules[m].name;
    grid[i].point = plans[m].points[p];
    grid[i].row_begin = static_cast<std::uint32_t>(plans[m].shards[s].begin);
    grid[i].row_end = static_cast<std::uint32_t>(plans[m].shards[s].end);
  }
  return grid;
}

common::Expected<CampaignShardBatch> run_campaign_shards(
    const CampaignPlan& plan, JobPhase phase,
    const std::vector<std::uint64_t>& indices, CellStore* store,
    CampaignExecution exec) {
  switch (phase) {
    case JobPhase::kRowHammer:
      return run_shard_units<HammerTraits>(plan, indices, store, exec);
    case JobPhase::kTrcd:
      return run_shard_units<TrcdTraits>(plan, indices, store, exec);
    case JobPhase::kRetention:
      return run_shard_units<RetentionTraits>(plan, indices, store, exec);
    case JobPhase::kWcdp:
      break;
  }
  return Error{ErrorCode::kInvalidArgument,
               "run_campaign_shards: wcdp is not a shardable phase"};
}

CampaignEngine::CampaignEngine(CampaignPlan plan, CellStore* store,
                               Execution exec)
    : plan_(std::move(plan)), store_(store), exec_(exec) {}

common::Expected<std::vector<HammerGrid>> CampaignEngine::run_hammer() {
  return run_grid_phase<HammerTraits>(plan_, store_, exec_);
}

common::Expected<std::vector<TrcdGrid>> CampaignEngine::run_trcd() {
  return run_grid_phase<TrcdTraits>(plan_, store_, exec_);
}

common::Expected<std::vector<RetentionGrid>> CampaignEngine::run_retention() {
  return run_grid_phase<RetentionTraits>(plan_, store_, exec_);
}

namespace {

/// One full per-module RowHammer sweep (run_wcdp_prep + every usable
/// level), run serially in sessions that carry the attempt's fault injector
/// and a trace ring. On failure, `failure_dump` holds the failing session's
/// ring with the error recorded -- captured before the session is torn down.
/// The whole-cell job_stream_seed keying and the serial session-per-level
/// structure are part of the resilient campaign's byte-compatibility
/// contract (quarantine dumps replay command for command).
common::Expected<ModuleSweepResult> attempt_module_sweep(
    const dram::ModuleProfile& profile, const SweepConfig& sweep,
    std::uint64_t seed, std::size_t trace_capacity,
    softmc::FaultInjector* injector, SweepInstrumentation& instr,
    softmc::TraceDump& failure_dump, bool& has_failure_dump) {
  const std::vector<double> levels =
      usable_vpp_levels(sweep, profile.vppmin_v);
  if (levels.empty()) {
    return Error{ErrorCode::kNoUsableLevels,
                 "no usable VPP levels for module " + profile.name}
        .with_module(profile.name);
  }
  const double nominal = levels.front();

  const auto fail = [&](softmc::Session& session,
                        common::Error error) -> common::Error {
    failure_dump = softmc::capture_trace_dump(session, &error);
    has_failure_dump = true;
    instr.add_job(session.counters());
    return error;
  };

  ModuleSweepResult result;
  result.module_name = profile.name;
  result.mfr = profile.mfr;
  result.vppmin_v = profile.vppmin_v;
  result.vpp_levels = levels;

  // Phase A: row sampling + per-row WCDP at the nominal level.
  std::vector<std::uint32_t> rows;
  std::vector<dram::DataPattern> wcdp;
  {
    softmc::Session session(profile);
    session.enable_trace(trace_capacity);
    if (injector != nullptr) session.set_fault_injector(injector);
    rows = sweep.sampling.sample(session.module().mapping());
    auto prep = run_wcdp_prep(session, sweep, seed, nominal, rows);
    if (!prep) return fail(session, std::move(prep).error());
    if (rows.empty()) {
      return fail(session,
                  Error{ErrorCode::kEmptySample, "row sampling produced no rows"}
                      .with_module(profile.name));
    }
    wcdp = std::move(prep->wcdp);
    instr.add_job(session.counters());
  }
  result.rows.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    result.rows[i].row = rows[i];
    result.rows[i].wcdp = wcdp[i];
  }

  // Phase B: one session per VPP level, highest first.
  for (const double vpp : levels) {
    const auto vpp_mv = static_cast<std::int64_t>(vpp_millivolts(vpp));
    softmc::Session session(profile);
    session.enable_trace(trace_capacity);
    if (injector != nullptr) session.set_fault_injector(injector);
    session.set_auto_refresh(false);
    common::Status st = session.set_temperature(common::kHammerTestTempC);
    if (st.ok()) st = session.set_vpp(vpp);
    if (!st.ok()) {
      return fail(session, std::move(st)
                               .error()
                               .with_module(profile.name)
                               .with_vpp_mv(vpp_mv)
                               .with_context("hammer session setup"));
    }
    session.set_noise_stream(job_stream_seed(
        seed, profile.seed, vpp_millivolts(vpp), JobPhase::kRowHammer));
    harness::RowHammerTest test(session, sweep.hammer);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto row = test.test_row(sweep.sampling.bank, rows[i], wcdp[i]);
      if (!row) {
        return fail(session, std::move(row)
                                 .error()
                                 .with_module(profile.name)
                                 .with_vpp_mv(vpp_mv));
      }
      result.rows[i].hc_first.push_back(row->hc_first);
      result.rows[i].ber.push_back(row->ber);
    }
    instr.add_job(session.counters());
    result.instrumentation.add_job(session.counters());
  }
  return result;
}

}  // namespace

std::size_t CampaignResult::completed_count() const noexcept {
  std::size_t n = 0;
  for (const ModuleCampaignResult& m : modules) {
    if (m.completed) ++n;
  }
  return n;
}

double CampaignResult::hc_first_cv() const {
  std::vector<double> values;
  values.reserve(modules.size());
  for (const ModuleCampaignResult& m : modules) {
    if (!m.completed) continue;  // quarantined: partial data, excluded
    const std::uint64_t hc = m.sweep.min_hc_first_at(0);
    if (hc > 0) values.push_back(static_cast<double>(hc));
  }
  if (values.size() < 2) return 0.0;
  return stats::coefficient_of_variation(values);
}

CampaignResult CampaignEngine::run_resilient(const softmc::FaultPlan& faults,
                                             const harness::RetryPolicy& retry,
                                             std::size_t trace_capacity) {
  CampaignResult campaign;
  campaign.modules.reserve(plan_.modules.size());

  for (const dram::ModuleProfile& profile : plan_.modules) {
    ModuleCampaignResult outcome;
    outcome.module_name = profile.name;

    softmc::FaultInjector injector(faults);
    softmc::FaultInjector* active = faults.empty() ? nullptr : &injector;

    const std::uint32_t budget = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
      // Re-salting the draws means a retry faces *different* fault sites
      // than the attempt that failed -- deterministic progress instead of
      // deterministic re-failure.
      injector.set_attempt(attempt);
      outcome.attempts = attempt + 1;
      if (attempt > 0) ++campaign.instrumentation.retries;

      auto sweep = attempt_module_sweep(profile, plan_.sweep, plan_.seed,
                                        trace_capacity, active,
                                        campaign.instrumentation, outcome.dump,
                                        outcome.has_dump);
      outcome.injections += injector.counts();
      if (sweep) {
        outcome.completed = true;
        outcome.error_code = ErrorCode::kUnknown;
        outcome.error_message.clear();
        outcome.has_dump = false;
        outcome.sweep = std::move(*sweep);
        break;
      }
      outcome.error_code = sweep.error().code;
      outcome.error_message = sweep.error().to_string();
      if (!retry.should_retry(sweep.error().code, attempt + 1)) break;
    }

    if (!outcome.completed) {
      ++campaign.instrumentation.quarantined_modules;
      harness::QuarantineRecord record;
      record.module = profile.name;
      record.code = outcome.error_code;
      record.message = outcome.error_message;
      record.attempts = outcome.attempts;
      campaign.quarantines.push_back(std::move(record));
    }
    campaign.modules.push_back(std::move(outcome));
  }
  return campaign;
}

}  // namespace vppstudy::core
