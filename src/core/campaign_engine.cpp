// CampaignEngine execution: plan compilation into (module, point, shard)
// units, the one per-row shard loop of Algs. 1-3 with the phase traits that
// pick its test, and one unit pipeline -- the layered resolve order
// (manifest -> CellStore -> compute) and the deterministic drain -- that
// runs the whole grid for CampaignEngine::run_* (with checkpoint journal,
// compaction and grid assembly), a leased index subset for
// run_campaign_shards (no checkpoint; records returned to the coordinator),
// and run_resilient's fault-injected grid. Manifest/plan serialization lives
// in campaign.cpp.
#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/campaign_lease.hpp"
#include "harness/attack_patterns.hpp"
#include "harness/retention_test.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/trcd_test.hpp"
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

common::Expected<ModulePlan> plan_module(const CampaignPlan& plan,
                                         const dram::ModuleProfile& profile,
                                         JobPhase phase) {
  const std::vector<double> levels =
      usable_vpp_levels(plan.sweep, profile.vppmin_v);
  if (levels.empty()) {
    return Error{ErrorCode::kNoUsableLevels,
                 "no usable VPP levels for module " + profile.name}
        .with_module(profile.name);
  }
  ModulePlan out;
  out.nominal_vpp = levels.front();
  out.points = plan.axes.points_for(levels, phase, plan.sweep.hammer.ber_hc);
  auto rows = sample_campaign_rows(profile, plan.sweep.sampling);
  if (rows.empty()) {
    return Error{ErrorCode::kEmptySample, "row sampling produced no rows"}
        .with_module(profile.name);
  }
  out.shards = shard_ranges(rows.size(), plan.rows_per_shard);
  out.rows =
      std::make_shared<const std::vector<std::uint32_t>>(std::move(rows));
  return out;
}

common::Expected<std::vector<ModulePlan>> plan_modules(
    const CampaignPlan& plan, JobPhase phase) {
  std::vector<ModulePlan> plans;
  plans.reserve(plan.modules.size());
  for (const dram::ModuleProfile& profile : plan.modules) {
    VPP_ASSIGN_OR_RETURN(ModulePlan module, plan_module(plan, profile, phase));
    plans.push_back(std::move(module));
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

// --- The per-row shard loop --------------------------------------------------

/// The rows one shard job computed, in input order, and its session counts.
template <typename RowResult>
struct ShardRows {
  std::vector<RowResult> rows;
  softmc::CommandCounts counts;
};

/// Alg. 1 with a non-uniform hammer pattern: each sampled row is the victim
/// of one harness::AttackKind::kFuzzed attack running `spec`, scored by
/// post-TRR flips. The result reuses RowHammerRowResult so manifests, caches
/// and grids carry pattern cells unchanged: hc_first holds the post-TRR flip
/// count across the pattern's victim set (the fuzzer's fitness), ber the
/// matching bit error rate.
class PatternRowTest {
 public:
  PatternRowTest(softmc::Session& session, const harness::PatternSpec& spec,
                 std::uint64_t hammer_count)
      : session_(session), spec_(spec), hammer_count_(hammer_count) {}

  [[nodiscard]] common::Expected<harness::RowHammerRowResult> test_row(
      std::uint32_t bank, std::uint32_t row, dram::DataPattern wcdp) {
    // A spec whose widest offset falls off the bank at this victim cannot
    // attack it: record a zero-flip row instead of failing the campaign, so
    // every pattern is scored over the same row sample (edge rows simply
    // contribute nothing for patterns too wide to reach them).
    const dram::RowMapping& mapping = session_.module().mapping();
    const std::int64_t victim =
        static_cast<std::int64_t>(mapping.logical_to_physical(row));
    for (const harness::AggressorSpec& a : spec_.aggressors) {
      const std::int64_t phys = victim + a.offset;
      if (phys < 0 || phys >= static_cast<std::int64_t>(mapping.rows())) {
        return harness::RowHammerRowResult{row, wcdp, 0, 0.0};
      }
    }
    harness::AttackConfig attack;
    attack.kind = harness::AttackKind::kFuzzed;
    attack.pattern = &spec_;
    attack.hammer_count = hammer_count_;
    attack.victim_pattern = wcdp;
    VPP_ASSIGN_OR_RETURN(const harness::AttackOutcome r,
                         harness::run_attack(session_, bank, row, attack));
    harness::RowHammerRowResult out;
    out.row = row;
    out.wcdp = wcdp;
    out.hc_first = r.total_flips;
    out.ber = r.victim_rows == 0
                  ? 0.0
                  : static_cast<double>(r.total_flips) /
                        (static_cast<double>(r.victim_rows) *
                         static_cast<double>(dram::kBitsPerRow));
    return out;
  }

 private:
  softmc::Session& session_;
  const harness::PatternSpec& spec_;
  std::uint64_t hammer_count_;
};

/// Unlike the refresh-free tests of Algs. 1-3, a pattern attack issues REF,
/// so TRR tracker state would leak from one victim's attack into the next.
/// The shard loop resets the rig before each such row and sums per-row
/// counts, which keeps every result a pure function of its row key (and
/// shard regrouping byte-identical).
template <typename Test>
constexpr bool kResetsPerRow = std::is_same_v<Test, PatternRowTest>;

/// The one per-row loop of Algs. 1-3, for the phase of `Traits` (below):
/// set up the session at the point's VPP and temperature, then per row poll
/// `cancel`, re-key the noise stream (point_stream_seed), run
/// `test.test_row`, and attach the module/VPP context to any error. `what`
/// names the shard in errors ("hammer shard cancelled"). Phases without a
/// WCDP prep pass an empty `wcdp` and test every row with the checkerboard.
template <typename Traits, typename Test>
common::Expected<ShardRows<typename Traits::RowResult>> run_shard_rows(
    softmc::Session& session, Test& test, const char* what,
    std::uint64_t seed, const AxisPoint& point, std::uint32_t bank,
    std::span<const std::uint32_t> rows,
    std::span<const dram::DataPattern> wcdp,
    const common::CancelToken& cancel) {
  constexpr JobPhase phase = Traits::kPhase;
  const dram::ModuleProfile& profile = session.module().profile();
  const auto in_cell = [&](Error error) {
    return std::move(error).with_module(profile.name).with_vpp_mv(
        static_cast<std::int64_t>(vpp_millivolts(point.vpp_v)));
  };
  const auto setup = [&]() -> common::Status {
    if (auto st = setup_shard_session(
            session, point.resolved_temperature(phase), point.vpp_v);
        !st.ok()) {
      return in_cell(std::move(st).error())
          .with_context(std::string(what) + " shard setup");
    }
    return common::Status::ok_status();
  };
  if constexpr (!kResetsPerRow<Test>) VPP_RETURN_IF_ERROR(setup());
  ShardRows<typename Traits::RowResult> out;
  out.rows.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (cancel.cancelled()) {
      return in_cell(Error{ErrorCode::kCancelled,
                           std::string(what) + " shard cancelled"});
    }
    if constexpr (kResetsPerRow<Test>) {
      session.reset_rig();
      VPP_RETURN_IF_ERROR(setup());
    }
    session.set_noise_stream(
        point_stream_seed(seed, profile.seed, phase, rows[i], point));
    auto r = test.test_row(
        bank, rows[i], wcdp.empty() ? dram::DataPattern::kCheckerAA : wcdp[i]);
    if (!r) return in_cell(std::move(r).error());
    out.rows.push_back(std::move(*r));
    if constexpr (kResetsPerRow<Test>) out.counts += session.counters();
  }
  if constexpr (!kResetsPerRow<Test>) out.counts = session.counters();
  return out;
}

// --- Phase traits ------------------------------------------------------------
// One trait set per characterization phase names what differs between
// phases: the row type, the test its shards run (with_test builds it and
// hands it to the shard loop), the ManifestShard vector, and the CellStore
// entry points. The unit pipeline below is phase-agnostic.

/// The hammer config at one grid point: a baseline point uses the sweep's
/// config untouched (byte-compat with a VPP-only sweep); a hammer-count
/// axis overrides the fixed BER hammer count, an on-time axis overrides the
/// aggressor ACT-to-ACT spacing.
harness::RowHammerConfig hammer_config_at(const SweepConfig& sweep,
                                          const AxisPoint& point) {
  harness::RowHammerConfig config = sweep.hammer;
  if (point.hammer_count != 0) config.ber_hc = point.hammer_count;
  if (point.act_to_act_ns > 0.0) config.act_to_act_ns = point.act_to_act_ns;
  return config;
}

struct HammerTraits {
  using RowResult = harness::RowHammerRowResult;
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
  /// Alg. 1 at a uniform point; a pattern point attacks with its spec.
  template <typename Run>
  static common::Expected<ShardRows<RowResult>> with_test(
      softmc::Session& session, const CampaignPlan& plan,
      const AxisPoint& point, Run&& run) {
    const harness::RowHammerConfig config = hammer_config_at(plan.sweep, point);
    if (point.pattern_hash == 0) {
      harness::RowHammerTest test(session, config);
      return run(test, "hammer");
    }
    const harness::PatternSpec* spec =
        plan.axes.find_pattern(point.pattern_hash);
    if (spec == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "campaign point references a pattern hash absent "
                   "from the pattern axis"};
    }
    PatternRowTest test(session, *spec, config.ber_hc);
    return run(test, "pattern");
  }
};

/// tRCD varies over VPP x temperature and ignores the hammer axes.
struct TrcdTraits {
  using RowResult = harness::TrcdRowResult;
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
  template <typename Run>
  static common::Expected<ShardRows<RowResult>> with_test(
      softmc::Session& session, const CampaignPlan& plan, const AxisPoint&,
      Run&& run) {
    harness::TrcdTest test(session, plan.sweep.trcd);
    return run(test, "trcd");
  }
};

/// Retention varies over VPP x temperature and ignores the hammer axes.
struct RetentionTraits {
  using RowResult = harness::RetentionRowResult;
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
  template <typename Run>
  static common::Expected<ShardRows<RowResult>> with_test(
      softmc::Session& session, const CampaignPlan& plan, const AxisPoint&,
      Run&& run) {
    harness::RetentionTest test(session, plan.sweep.retention);
    return run(test, "retention");
  }
};

// --- Fault campaigns ---------------------------------------------------------

/// The fault context of CampaignEngine::run_resilient: the plan every job's
/// injector derives from, the per-job retry budget, and the trace-ring size.
struct FaultCtx {
  const softmc::FaultPlan& plan;
  const harness::RetryPolicy& retry;
  std::size_t trace_capacity = 0;
};

/// What one job of a fault campaign did over all its attempts.
struct JobFaults {
  std::uint64_t seed = 0;     ///< its injector's plan seed (set at submit)
  std::uint32_t attempts = 0; ///< 0: the job never ran
  softmc::FaultInjector::InjectionCounts injections;
  SweepInstrumentation instrumentation;  ///< one job per attempt, + retries
  std::optional<Error> error;  ///< the final attempt's failure
  softmc::TraceDump dump;      ///< that attempt's trace ring
};

/// Run one job's `body` on its worker's arena session. Without a fault
/// context that is all. With one, each attempt gets a fresh session with a
/// trace ring and the job's injector re-salted by attempt number, and the
/// job retries in place until it succeeds or the retry policy says stop;
/// `job` records every attempt and the last failure's trace dump.
template <typename Body>
auto run_job(SessionArena& arena, const dram::ModuleProfile& profile,
             const FaultCtx* faults, JobFaults* job, Body&& body) {
  if (faults == nullptr) return body(arena.acquire(profile));
  softmc::FaultPlan plan = faults->plan;
  plan.seed = job->seed;
  softmc::FaultInjector injector(std::move(plan));
  for (std::uint32_t attempt = 0;; ++attempt) {
    softmc::Session& session = arena.acquire(profile);
    session.enable_trace(faults->trace_capacity);
    injector.set_attempt(attempt);
    if (!faults->plan.empty()) session.set_fault_injector(&injector);
    auto result = body(session);
    session.set_fault_injector(nullptr);
    job->attempts = attempt + 1;
    job->injections += injector.counts();
    // A shard that resets the rig per row sums its counts itself; the
    // session's counters then hold only its last row.
    job->instrumentation.add_job(result ? result->counts : session.counters());
    if (attempt > 0) ++job->instrumentation.retries;
    if (result) return result;
    if (faults->retry.should_retry(result.error().code, attempt + 1)) continue;
    job->error = result.error();
    job->dump = softmc::capture_trace_dump(session, &*job->error);
    return result;
  }
}

/// Resolved WCDP prep of one module (hammer phase A): restored from a
/// manifest or CellStore, or computed by a prep job.
struct PrepState {
  std::vector<dram::DataPattern> wcdp;
  bool counted = false;  ///< a prep session ran (restored-from-store: false)
  softmc::CommandCounts counts;
  bool restored = false;   ///< already recorded in the manifest
  bool submitted = false;  ///< a prep job is in flight
  bool failed = false;     ///< the prep job failed: no unit of it runs
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
  std::future<common::Expected<ShardRows<typename Traits::RowResult>>> future;
};

/// The engine's unit pipeline over a list of units in canonical order --
/// the whole grid for CampaignEngine::run_*, a leased subset for
/// run_campaign_shards. run() resolves the WCDP prep of every module the
/// units reference, then every unit, each in the layered order manifest ->
/// CellStore -> compute, and drains them in list order. With a fault context
/// (run_resilient), a failed job is recorded in prep_faults / unit_faults
/// instead of failing the run, and a failed prep skips its module's units.
template <typename Traits>
struct UnitPipeline {
  static constexpr bool kHasPrep = Traits::kPhase == JobPhase::kRowHammer;

  UnitPipeline(const CampaignPlan& plan_in, std::vector<ModulePlan> plans_in,
               std::vector<UnitRef> refs_in,
               const FaultCtx* faults_in = nullptr)
      : plan(plan_in),
        plans(std::move(plans_in)),
        refs(std::move(refs_in)),
        faults(faults_in),
        preps(plans.size()),
        prep_faults(faults != nullptr ? plans.size() : 0),
        unit_faults(faults != nullptr ? refs.size() : 0) {}

  const CampaignPlan& plan;
  std::vector<ModulePlan> plans;
  std::vector<UnitRef> refs;
  const FaultCtx* faults = nullptr;
  std::vector<PrepState> preps;          ///< per module
  std::vector<UnitState<Traits>> units;  ///< parallel to refs
  std::vector<JobFaults> prep_faults;    ///< per module (fault context only)
  std::vector<JobFaults> unit_faults;    ///< parallel to refs (ditto)

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
      JobFaults* job = nullptr;
      if (faults != nullptr) {
        job = &prep_faults[m];
        job->seed = common::hash_key(
            {faults->plan.seed, profile.seed,
             static_cast<std::uint64_t>(JobPhase::kWcdp)});
      }
      preps[m].future = pool.submit(
          [&arenas, &pool, &profile, &sweep, seed, faults = faults, job,
           nominal = plans[m].nominal_vpp,
           rows = plans[m].rows]() -> common::Expected<WcdpPrep> {
            return run_job(arenas.local(pool), profile, faults, job,
                           [&](softmc::Session& session) {
                             return run_wcdp_prep(session, sweep, seed,
                                                  nominal, *rows);
                           });
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
          if (!prep) {  // a fault campaign records it in prep_faults[m]
            preps[m].failed = true;
            if (!faults && !first_error) first_error = std::move(prep).error();
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
    if (first_error || preps[m].failed) continue;  // keep draining preps

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
    JobFaults* job = nullptr;
    if (faults != nullptr) {
      job = &unit_faults[u];
      job->seed = common::hash_key(
          {point_stream_seed(faults->plan.seed, profile.seed, Traits::kPhase,
                             static_cast<std::uint32_t>(shard.begin), point),
           shard.end});
    }
    unit.future = pool.submit(
        [&arenas, &pool, &profile, &plan = plan, seed, point,
         cancel = plan.cancel, faults = faults, job, missing = unit.missing,
         wcdp = std::move(missing_wcdp)] {
          return run_job(
              arenas.local(pool), profile, faults, job,
              [&](softmc::Session& session) {
                return Traits::with_test(
                    session, plan, point, [&](auto& test, const char* what) {
                      return run_shard_rows<Traits>(
                          session, test, what, seed, point,
                          plan.sweep.sampling.bank, missing, wcdp, cancel);
                    });
              });
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
      if (!cell) {  // a fault campaign records it in unit_faults[u]
        if (!faults && !first_error) first_error = std::move(cell).error();
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

/// Assembly in (module, point, shard) order, moving the unit rows out of
/// `pipeline`: instrumentation job order and per-row series match the
/// pre-engine drivers exactly. In run_resilient, an unplanned module's grid
/// stays empty and a quarantined one keeps default rows where units failed.
template <typename Traits>
std::vector<typename Traits::Grid> assemble_grids(
    const CampaignPlan& plan, UnitPipeline<Traits>& pipeline) {
  std::vector<typename Traits::Grid> grids(pipeline.plans.size());
  for (std::size_t m = 0; m < pipeline.plans.size(); ++m) {
    if (pipeline.plans[m].rows == nullptr) continue;
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
    if (!unit.resolved) continue;  // a quarantined module's failed unit
    typename Traits::Grid& grid = grids[ref.m];
    if (unit.counted) grid.instrumentation.add_job(unit.counts);
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      grid.cells[ref.p][i] = std::move(unit.rows[i - shard.begin]);
    }
  }
  return grids;
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

  return assemble_grids(plan, pipeline);
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
  // The hammer grid under a fault context, with no manifest and no CellStore
  // (a faulted row is not a pure function of its cell key). A module that
  // cannot be planned has no units and is quarantined with that error.
  const std::size_t n = plan_.modules.size();
  std::vector<ModulePlan> plans(n);
  std::vector<std::optional<Error>> errors(n);
  for (std::size_t m = 0; m < n; ++m) {
    if (auto module =
            plan_module(plan_, plan_.modules[m], JobPhase::kRowHammer)) {
      plans[m] = std::move(*module);
    } else {
      errors[m] = std::move(module).error();
    }
  }
  std::vector<UnitRef> refs = grid_units(plans);
  const FaultCtx ctx{faults, retry, trace_capacity};
  UnitPipeline<HammerTraits> pipeline(plan_, std::move(plans), std::move(refs),
                                      &ctx);
  ManifestCtx no_manifest;
  // Job failures are recorded per job, so the run itself fails only when it
  // is cancelled before a prep is submitted.
  const common::Status run = pipeline.run(no_manifest, nullptr, exec_);
  std::vector<HammerGrid> grids = assemble_grids(plan_, pipeline);

  // Fold each module's jobs in canonical order (prep, then units): the first
  // failure is its quarantine error and dump.
  CampaignResult campaign;
  campaign.modules.reserve(n);
  std::size_t u = 0;
  for (std::size_t m = 0; m < n; ++m) {
    ModuleCampaignResult outcome;
    outcome.module_name = plan_.modules[m].name;
    std::optional<Error>& error = errors[m];
    if (error) outcome.attempts = 1;
    const auto fold = [&](JobFaults& job) {
      outcome.attempts = std::max(outcome.attempts, job.attempts);
      outcome.injections += job.injections;
      campaign.instrumentation += job.instrumentation;
      if (job.error && !error) {
        error = std::move(job.error);
        outcome.dump = std::move(job.dump);
        outcome.has_dump = true;
      }
    };
    fold(pipeline.prep_faults[m]);
    for (; u < pipeline.refs.size() && pipeline.refs[u].m == m; ++u) {
      fold(pipeline.unit_faults[u]);
    }
    if (!error && !run.ok()) error = run.error();
    if (!error) {
      outcome.completed = true;
      outcome.sweep = grids[m].to_sweep();
    } else {
      outcome.error_code = error->code;
      outcome.error_message = error->to_string();
      ++campaign.instrumentation.quarantined_modules;
      campaign.quarantines.push_back({outcome.module_name, outcome.error_code,
                                      outcome.error_message, outcome.attempts});
    }
    campaign.modules.push_back(std::move(outcome));
  }
  return campaign;
}

}  // namespace vppstudy::core
