// Traced runs. Each re-runs a seeded sample of its workload's work one
// layer down at a time through that layer's public calls, records a span
// around every call, checks that every replayed result equals the result of
// the call it decomposes, and derives the per-layer metrics from the spans.
// Timings here carry tracing overhead and are never mixed into the
// end-to-end numbers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/export.hpp"
#include "core/parallel_study.hpp"
#include "replay.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/service.hpp"
#include "server/worker.hpp"

namespace vppbench {

namespace {

/// Modules in a traced campaign sample, and cells replayed per workload.
constexpr std::size_t kSampleModules = 4;
constexpr std::size_t kSampleCells = 16;
/// Requests of the vppd sequence a traced run replays, and how many
/// distinct ones it decomposes below the service.
constexpr std::size_t kTraceRequests = 120;
constexpr std::size_t kTraceEngineRequests = 8;
/// Manifest reads and writes timed per traced run.
constexpr int kManifestReps = 5;

struct Trace {
  explicit Trace(Report& r) : report(r) {}
  Tracer tracer;
  ReplayStats stats;
  Report& report;
  ReplayContext ctx{tracer, report, stats};
};

double p50(const Trace& t, std::string_view name, double unit_s) {
  return quantile(t.tracer.durations(name, unit_s), 0.5);
}

/// Per-worker WCDP memo for run_campaign_shards, as CampaignWorker keeps.
class WcdpMemo final : public core::CellStore {
 public:
  bool lookup_wcdp(const dram::ModuleProfile& profile,
                   std::vector<dram::DataPattern>* out) override {
    const auto it = memo_.find(profile.name);
    if (it == memo_.end()) return false;
    *out = it->second;
    return true;
  }
  void store_wcdp(const dram::ModuleProfile& profile,
                  const std::vector<dram::DataPattern>& wcdp) override {
    memo_.insert_or_assign(profile.name, wcdp);
  }

 private:
  std::map<std::string, std::vector<dram::DataPattern>> memo_;
};

// --- Phase dispatch ----------------------------------------------------------------

common::Expected<std::vector<core::HammerGrid>> run_engine(
    core::CampaignEngine& e, const core::HammerGrid*) {
  return e.run_hammer();
}
common::Expected<std::vector<core::TrcdGrid>> run_engine(
    core::CampaignEngine& e, const core::TrcdGrid*) {
  return e.run_trcd();
}
common::Expected<std::vector<core::RetentionGrid>> run_engine(
    core::CampaignEngine& e, const core::RetentionGrid*) {
  return e.run_retention();
}

std::string sweep_json(const core::HammerGrid& g) {
  return server::hammer_sweep_to_json(g.to_sweep());
}
std::string sweep_json(const core::TrcdGrid& g) {
  return server::trcd_sweep_to_json(g.to_sweep());
}
std::string sweep_json(const core::RetentionGrid& g) {
  return server::retention_sweep_to_json(g.to_sweep());
}

void replay_grid_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                      const dram::ModuleProfile& profile,
                      const core::AxisPoint& point,
                      const harness::RowHammerRowResult& expected,
                      Tracer::Id parent) {
  replay_hammer_cell(ctx, plan, profile, point, expected, parent);
}
void replay_grid_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                      const dram::ModuleProfile& profile,
                      const core::AxisPoint& point,
                      const harness::TrcdRowResult& expected,
                      Tracer::Id parent) {
  replay_trcd_cell(ctx, plan, profile, point, expected, parent);
}
void replay_grid_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                      const dram::ModuleProfile& profile,
                      const core::AxisPoint& point,
                      const harness::RetentionRowResult& expected,
                      Tracer::Id parent) {
  replay_retention_cell(ctx, plan, profile, point, expected, parent);
}

/// One campaign run through CampaignEngine as a core span.
template <typename Grid>
struct EngineRun {
  common::Expected<std::vector<Grid>> grids;
  double wall_s = 0.0;
  Tracer::Id span = Tracer::kNone;
};

template <typename Grid>
EngineRun<Grid> run_campaign(Trace& t, const core::CampaignPlan& plan,
                             std::string key) {
  const Clock::time_point t0 = Clock::now();
  Scope span(t.tracer, "core.campaign", Layer::kCore, Tracer::kNone,
             std::move(key));
  core::CampaignEngine engine(plan);
  auto grids = run_engine(engine, static_cast<const Grid*>(nullptr));
  span.close();
  if (!grids) t.report.fail("campaign: " + grids.error().to_string());
  return {std::move(grids), seconds_between(t0, Clock::now()), span.id()};
}

// --- Core layer: shards one at a time ------------------------------------------------

struct ShardReplays {
  double busy_s = 0.0;
  std::vector<std::pair<core::ShardCoord, Tracer::Id>> spans;
};

/// Every shard of `plan` through core::run_campaign_shards, one index at a
/// time on this thread, after each module's WCDP prep through
/// core::run_wcdp_prep (itself decomposed row by row). Like one engine
/// worker, the replays share one session arena, so a module's physics
/// caches stay warm across its shards. Each record must equal the grids.
template <typename Grid>
ShardReplays replay_shards(Trace& t, const core::CampaignPlan& plan,
                           core::JobPhase phase, const std::vector<Grid>& grids,
                           Tracer::Id parent) {
  ShardReplays out;
  auto grid = core::compile_campaign_shards(plan, phase);
  if (!grid) {
    t.report.fail("shard grid: " + grid.error().to_string());
    return out;
  }
  common::WorkerLocal<core::SessionArena> arenas(0);
  common::ThreadPool inline_pool(0);
  const core::CampaignExecution exec{&arenas, &inline_pool};
  WcdpMemo memo;
  if constexpr (std::is_same_v<Grid, core::HammerGrid>) {
    for (std::size_t m = 0; m < plan.modules.size(); ++m) {
      const dram::ModuleProfile& profile = plan.modules[m];
      const std::vector<std::uint32_t> rows =
          core::sample_campaign_rows(profile, plan.sweep.sampling);
      const std::vector<double> levels =
          core::usable_vpp_levels(plan.sweep, profile.vppmin_v);
      if (levels.empty()) continue;
      const Clock::time_point t0 = Clock::now();
      Scope span(t.tracer, "core.wcdp_prep", Layer::kCore, parent,
                 profile.name);
      auto prep = core::run_wcdp_prep(
          arenas.local(inline_pool).acquire(profile), plan.sweep, plan.seed,
          levels.front(), rows);
      span.close();
      out.busy_s += seconds_between(t0, Clock::now());
      if (!prep || prep->wcdp != grids[m].wcdp) {
        t.report.fail("WCDP prep replay of " + profile.name + " differs");
        continue;
      }
      memo.store_wcdp(profile, prep->wcdp);
      replay_wcdp(t.ctx, plan, profile, rows, prep->wcdp, span.id());
    }
  }
  for (const core::ShardCoord& coord : *grid) {
    const Clock::time_point t0 = Clock::now();
    Scope span(t.tracer, "core.shard", Layer::kCore, parent,
               coord.module + " #" + std::to_string(coord.index));
    auto batch =
        core::run_campaign_shards(plan, phase, {coord.index}, &memo, exec);
    span.close();
    out.busy_s += seconds_between(t0, Clock::now());
    out.spans.emplace_back(coord, span.id());
    if (!batch || batch->shards.size() != 1 ||
        shard_bytes(batch->shards.front(), phase) !=
            shard_bytes(shard_from_grids(grids, coord), phase)) {
      t.report.fail("shard replay of " + coord.module + " #" +
                    std::to_string(coord.index) + " differs");
    }
  }
  return out;
}

/// Replay `count` seeded cells of `grids` down the harness, softmc and dram
/// layers, each under the span of the shard that computed it.
template <typename Grid>
void replay_cells(Trace& t, const core::CampaignPlan& plan,
                  const std::vector<Grid>& grids, const ShardReplays& shards,
                  std::uint64_t seed, std::size_t count) {
  common::Xoshiro256 rng(common::hash_key({seed, 0x63656c6cULL}));
  for (std::size_t k = 0; k < count && !grids.empty(); ++k) {
    const std::size_t m = rng.bounded(grids.size());
    const Grid& g = grids[m];
    if (g.points.empty() || g.rows.empty()) continue;
    const std::size_t p = rng.bounded(g.points.size());
    const auto r = static_cast<std::uint32_t>(rng.bounded(g.rows.size()));
    Tracer::Id parent = Tracer::kNone;
    for (const auto& [coord, span] : shards.spans) {
      if (coord.module_index == m && coord.point == g.points[p] &&
          coord.row_begin <= r && r < coord.row_end) {
        parent = span;
      }
    }
    replay_grid_cell(t.ctx, plan, plan.modules[m], g.points[p], g.cells[p][r],
                     parent);
  }
}

// --- Metrics ------------------------------------------------------------------------

/// SweepInstrumentation command counts per grid cell. A hammer loop is one
/// instruction the host builds and dispatches, however many ACTs it
/// expands to on the device.
struct CommandTally {
  std::uint64_t commands = 0;
  std::uint64_t columns = 0;
  std::uint64_t cells = 0;

  template <typename Grid>
  void add(const std::vector<Grid>& grids) {
    for (const Grid& g : grids) {
      const softmc::CommandCounts& c = g.instrumentation.counts;
      commands += c.total_commands() - c.hammer_activations + c.hammer_loops;
      columns += c.reads + c.writes;
    }
    cells += cell_count(grids);
  }
  void emit(Report& report) const {
    if (cells == 0) return;
    const auto c = static_cast<double>(cells);
    report.metric("softmc.commands_per_cell", static_cast<double>(commands) / c,
                  "count");
    report.metric("softmc.column_cmds_per_cell",
                  static_cast<double>(columns) / c, "count");
  }
};

/// The metrics every traced run derives from its spans and replay tallies.
/// A metric whose spans the workload never produced is omitted.
void emit_layer_metrics(const Trace& t) {
  Report& report = t.report;
  const auto has = [&](std::string_view name) {
    return t.tracer.count(name) > 0;
  };
  const auto timing = [&](std::string_view span, std::string metric,
                          double unit_s, std::string unit) {
    if (has(span)) report.metric(std::move(metric), p50(t, span, unit_s), std::move(unit));
  };
  timing("softmc.init_row", "softmc.init_row_us", 1e-6, "us");
  timing("softmc.read_row", "softmc.read_row_us", 1e-6, "us");
  timing("softmc.hammer", "softmc.hammer_us", 1e-6, "us");
  timing("softmc.read_column", "softmc.read_column_us", 1e-6, "us");
  timing("softmc.wait", "softmc.wait_us", 1e-6, "us");
  const double build = t.tracer.total_s("softmc.build");
  const double execute = t.tracer.total_s("softmc.execute");
  const double direct = t.tracer.total_s("dram.program");
  if (execute > 0.0) {
    report.metric("softmc.build_share", build / (build + execute), "ratio");
    report.metric("softmc.dispatch_share", (execute - direct) / execute,
                  "ratio");
  }
  timing("dram.activate_readback", "dram.activate_us", 1e-6, "us");
  if (t.stats.column_ops > 0) {
    report.metric("dram.column_ns",
                  t.stats.column_s * 1e9 / static_cast<double>(t.stats.column_ops),
                  "ns");
  }
  timing("dram.hammer_pair", "dram.hammer_pair_ns", 1e-9, "ns");
  if (t.stats.cells > 0) {
    report.metric("dram.flips_per_cell",
                  static_cast<double>(t.stats.flips) /
                      static_cast<double>(t.stats.cells),
                  "count");
  }
  timing("harness.measure_ber", "harness.measure_ber_us", 1e-6, "us");
  if (has("harness.test_row")) {
    report.metric("harness.measure_ber_calls_per_row",
                  static_cast<double>(t.tracer.count("harness.measure_ber")) /
                      static_cast<double>(t.tracer.count("harness.test_row")),
                  "count");
  }
  timing("harness.test_row", "harness.test_row_ms", 1e-3, "ms");
  timing("harness.wcdp_row", "harness.wcdp_row_ms", 1e-3, "ms");
  timing("harness.trcd_row", "harness.trcd_row_ms", 1e-3, "ms");
  timing("harness.retention_row", "harness.retention_row_ms", 1e-3, "ms");
  if (has("core.shard")) {
    const std::vector<double> ms = t.tracer.durations("core.shard", 1e-3);
    report.metric("core.shard_ms_p50", quantile(ms, 0.5), "ms");
    report.metric("core.shard_ms_p95", quantile(ms, 0.95), "ms");
  }
  report.count_ops(t.tracer.count("core.shard") + t.stats.cells, 0);
}

void emit_pool_efficiency(Report& report, double busy_s, double wall_s,
                          int threads) {
  report.metric("core.pool_efficiency",
                busy_s / (wall_s * static_cast<double>(threads)), "ratio");
}

/// Time manifest reads, parses and writes of a finished checkpoint, and
/// check its records against the grids it checkpointed.
template <typename Grid>
void trace_manifest_io(Trace& t, const core::CampaignPlan& plan,
                       core::JobPhase phase, const std::string& path,
                       const std::vector<Grid>& grids) {
  std::optional<core::CampaignManifest> doc;
  for (int i = 0; i < kManifestReps; ++i) {
    Scope span(t.tracer, "core.manifest_load", Layer::kCore);
    auto loaded = core::load_campaign_manifest(path);
    span.close();
    if (!loaded) {
      t.report.fail("manifest load: " + loaded.error().to_string());
      return;
    }
    doc = std::move(*loaded);
  }
  for (int i = 0; i < kManifestReps; ++i) {
    Scope span(t.tracer, "common.json_parse", Layer::kCommon);
    auto parsed = common::parse_json_file(path);
    span.close();
    if (!parsed) t.report.fail("manifest parse: " + parsed.error().to_string());
  }
  const std::string copy = path + ".copy";
  for (int i = 0; i < kManifestReps; ++i) {
    Scope span(t.tracer, "core.manifest_write", Layer::kCore);
    const bool ok = core::write_campaign_manifest(copy, *doc);
    span.close();
    if (!ok) t.report.fail("manifest write failed");
  }
  remove_manifest(copy);
  auto grid = core::compile_campaign_shards(plan, phase);
  if (!grid || doc->shards.size() != grid->size()) {
    t.report.fail("manifest does not hold every shard of the campaign");
    return;
  }
  const core::ShardGridIndex index(*grid);
  for (const core::ManifestShard& record : doc->shards) {
    const core::ShardCoord* coord = index.find(record);
    if (coord == nullptr || shard_bytes(record, phase) !=
                                shard_bytes(shard_from_grids(grids, *coord), phase)) {
      t.report.fail("manifest record of " + record.module +
                    " differs from the campaign's grid");
    }
  }
  t.report.metric("core.manifest_load_ms", p50(t, "core.manifest_load", 1e-3),
                  "ms");
  t.report.metric("core.manifest_write_ms",
                  p50(t, "core.manifest_write", 1e-3), "ms");
  t.report.metric("common.json_parse_ms", p50(t, "common.json_parse", 1e-3),
                  "ms");
}

void emit_checkpoint_bytes(Report& report, std::uint64_t bytes,
                           std::uint64_t shards) {
  report.metric("core.checkpoint_bytes", static_cast<double>(bytes), "B");
  report.metric("core.checkpoint_bytes_per_shard",
                shards == 0 ? 0.0
                            : static_cast<double>(bytes) /
                                  static_cast<double>(shards),
                "B");
}

/// Derive the layer metrics and write the Chrome trace and the per-span
/// self times.
void finish(Trace& t, const Options& options) {
  emit_layer_metrics(t);
  const std::string path =
      options.out_dir + "/trace-" + options.workload + ".json";
  if (!t.tracer.write_chrome_trace(path)) t.report.fail("cannot write " + path);
  common::JsonWriter spans;
  t.tracer.self_times(spans);
  const std::string self_path =
      options.out_dir + "/spans-" + options.workload + ".json";
  if (!spans.write_file(self_path)) t.report.fail("cannot write " + self_path);
}

}  // namespace

void trace_alg1_campaign(const Options& options, Report& report) {
  Trace t(report);
  const core::JobPhase phase = core::JobPhase::kRowHammer;
  const core::CampaignPlan full = alg1_plan(options.seed);

  // Checkpoint cost: the whole campaign with and without its manifest.
  core::CampaignPlan with_manifest = full;
  with_manifest.manifest_path = options.out_dir + "/trace-alg1-manifest.json";
  remove_manifest(with_manifest.manifest_path);
  const std::uint64_t before = bytes_written();
  const auto on = run_campaign<core::HammerGrid>(t, with_manifest, "manifest on");
  const std::uint64_t written = bytes_written() - before;
  const auto off = run_campaign<core::HammerGrid>(t, full, "manifest off");
  if (!on.grids || !off.grids) return;
  if (grid_digests("", *on.grids) != grid_digests("", *off.grids)) {
    report.fail("manifest on and off produce different grids");
  }
  emit_checkpoint_bytes(report, written, planned_shards(full, phase));
  report.metric("core.manifest_overhead_frac",
                (on.wall_s - off.wall_s) / on.wall_s, "ratio");
  trace_manifest_io(t, full, phase, with_manifest.manifest_path, *on.grids);
  remove_manifest(with_manifest.manifest_path);
  CommandTally tally;
  tally.add(*on.grids);
  tally.emit(report);

  // Layer decomposition of a seeded module sample.
  const core::CampaignPlan sample =
      sample_modules(full, options.seed, kSampleModules);
  const auto run = run_campaign<core::HammerGrid>(t, sample, "sample");
  if (!run.grids) return;
  const ShardReplays shards = replay_shards(t, sample, phase, *run.grids, run.span);
  emit_pool_efficiency(report, shards.busy_s, run.wall_s, sample.jobs);
  replay_cells(t, sample, *run.grids, shards, options.seed, kSampleCells);
  finish(t, options);
}

void trace_alg23_campaign(const Options& options, Report& report) {
  Trace t(report);
  const core::CampaignPlan trcd = trcd_plan(options.seed);
  const core::CampaignPlan retention = retention_plan(options.seed);

  const std::uint64_t before = bytes_written();
  const auto trcd_run = run_campaign<core::TrcdGrid>(t, trcd, "trcd");
  const auto retention_run =
      run_campaign<core::RetentionGrid>(t, retention, "retention");
  const std::uint64_t written = bytes_written() - before;
  if (!trcd_run.grids || !retention_run.grids) return;
  emit_checkpoint_bytes(report, written,
                        planned_shards(trcd, core::JobPhase::kTrcd) +
                            planned_shards(retention, core::JobPhase::kRetention));
  CommandTally tally;
  tally.add(*trcd_run.grids);
  tally.add(*retention_run.grids);
  tally.emit(report);

  const core::CampaignPlan trcd_sample =
      sample_modules(trcd, options.seed, kSampleModules);
  const core::CampaignPlan retention_sample =
      sample_modules(retention, options.seed, kSampleModules);
  const auto ts = run_campaign<core::TrcdGrid>(t, trcd_sample, "trcd sample");
  const auto rs = run_campaign<core::RetentionGrid>(t, retention_sample,
                                                    "retention sample");
  if (!ts.grids || !rs.grids) return;
  const ShardReplays trcd_shards = replay_shards(
      t, trcd_sample, core::JobPhase::kTrcd, *ts.grids, ts.span);
  const ShardReplays retention_shards = replay_shards(
      t, retention_sample, core::JobPhase::kRetention, *rs.grids, rs.span);
  emit_pool_efficiency(report, trcd_shards.busy_s + retention_shards.busy_s,
                       ts.wall_s + rs.wall_s, trcd.jobs);
  replay_cells(t, trcd_sample, *ts.grids, trcd_shards, options.seed,
               kSampleCells / 2);
  replay_cells(t, retention_sample, *rs.grids, retention_shards,
               options.seed + 1, kSampleCells / 2);
  finish(t, options);
}

// --- vppd_mix ------------------------------------------------------------------------

namespace {

/// The wire run: kVppdClients closed-loop clients, one server.request span
/// per request; returns each response's canonical result text.
std::vector<std::string> serve_traced(
    Trace& t, std::vector<server::Client>& clients,
    const std::vector<server::SweepRequest>& requests, const char* pass) {
  std::vector<std::string> texts(requests.size());
  std::atomic<std::size_t> next{0};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (server::Client& client : clients) {
    threads.emplace_back([&, c = &client] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        try {
          Scope span(t.tracer, "server.request", Layer::kServer, Tracer::kNone,
                     std::to_string(i) + " " + pass);
          auto response = c->sweep(requests[i]);
          span.close();
          if (response) {
            texts[i] = json_text(response->result);
            continue;
          }
          std::lock_guard lock(failures_mu);
          failures.push_back(response.error().to_string());
        } catch (const std::exception& e) {
          std::lock_guard lock(failures_mu);
          failures.push_back(e.what());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& f : failures) t.report.fail("vppd request: " + f);
  t.report.count_ops(requests.size(), failures.size());
  return texts;
}

/// Decode and re-encode a legacy sweep result (grid kinds have no decoder):
/// server.decode / server.encode spans; the re-encoding must equal `text`.
void trace_codec(Trace& t, const std::string& text) {
  auto doc = common::parse_json(text);
  if (!doc) return;
  const std::string kind = doc->string_or("kind", "");
  for (int rep = 0; rep < 3; ++rep) {
    std::string encoded;
    const auto round_trip = [&](auto decode, auto encode) {
      Scope d(t.tracer, "server.decode", Layer::kServer, Tracer::kNone, kind);
      auto typed = decode(*doc);
      d.close();
      if (!typed) return;
      Scope e(t.tracer, "server.encode", Layer::kServer, Tracer::kNone, kind);
      encoded = encode(*typed);
    };
    if (kind == "rowhammer") {
      round_trip(server::hammer_sweep_from_json, server::hammer_sweep_to_json);
    } else if (kind == "trcd") {
      round_trip(server::trcd_sweep_from_json, server::trcd_sweep_to_json);
    } else if (kind == "retention") {
      round_trip(server::retention_sweep_from_json,
                 server::retention_sweep_to_json);
    } else {
      return;
    }
    if (encoded != text) {
      t.report.fail("decode + encode of a " + kind + " result changed it");
      return;
    }
  }
}

/// Service::sweep one layer down: the request's plan through CampaignEngine
/// (must render the service's result) and then shard by shard.
template <typename Grid>
void trace_request_engine(Trace& t, const server::SweepRequest& request,
                          const std::string& text, std::uint64_t seed,
                          CommandTally& tally) {
  const core::CampaignPlan plan = request_plan(request);
  const auto run = run_campaign<Grid>(t, plan, request_key(request));
  if (!run.grids) return;
  const std::string rendered = plan.axes.vpp_only()
                                   ? sweep_json(run.grids->front())
                                   : core::grid_json(run.grids->front()).str();
  if (rendered != text) {
    t.report.fail("engine replay of " + request_key(request) +
                  " differs from the service's result");
  }
  tally.add(*run.grids);
  const ShardReplays shards =
      replay_shards(t, plan, request_phase(request), *run.grids, run.span);
  replay_cells(t, plan, *run.grids, shards, seed, 2);
}

}  // namespace

void trace_vppd_mix(const Options& options, Report& report) {
  Trace t(report);
  std::vector<server::SweepRequest> sample = vppd_sequence(options.seed);
  sample.resize(kTraceRequests);

  // Over the wire: the enclosing calls.
  auto started = server::Server::start(vppd_config());
  if (!started) {
    report.fail("vppd start: " + started.error().to_string());
    return;
  }
  std::unique_ptr<server::Server> daemon = std::move(*started);
  std::vector<server::Client> clients;
  for (int c = 0; c < kVppdClients; ++c) {
    auto client = server::Client::connect(daemon->port());
    if (!client) {
      report.fail("vppd connect: " + client.error().to_string());
      return;
    }
    clients.push_back(std::move(*client));
  }
  const std::vector<std::string> texts = serve_traced(t, clients, sample, "cold");
  if (serve_traced(t, clients, sample, "cached") != texts) {
    report.fail("cached responses differ from the cold ones");
  }
  const server::ResultCache::Stats cache = daemon->service().cache_stats();
  const server::JobQueue::Stats queue = daemon->queue_stats();
  clients.clear();
  daemon.reset();
  report.metric("server.cache_hit_frac",
                static_cast<double>(cache.hits) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, cache.hits + cache.misses)),
                "ratio");
  report.metric("server.cache_cells", static_cast<double>(cache.cells), "count");
  report.metric("server.cache_evictions", static_cast<double>(cache.evictions),
                "count");
  report.metric("server.queue_rejected",
                static_cast<double>(queue.rejected_full + queue.rejected_quota),
                "count");

  // The service in-process on the same sequence, cold then cached.
  server::Service service(vppd_config().service);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      Scope span(t.tracer, "server.service", Layer::kServer, Tracer::kNone,
                 std::to_string(i));
      auto out = service.sweep(sample[i], common::CancelToken{});
      span.close();
      if (!out || out->result_json != texts[i]) {
        report.fail("Service::sweep replay of request " + std::to_string(i) +
                    " differs from its wire response");
      }
    }
  }
  const double service_ms = p50(t, "server.service", 1e-3);
  report.metric("server.service_ms_p50", service_ms, "ms");
  report.metric("server.wire_queue_ms_p50",
                p50(t, "server.request", 1e-3) - service_ms, "ms");

  std::map<std::string, std::size_t> first_of;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (first_of.emplace(request_key(sample[i]), i).second) {
      trace_codec(t, texts[i]);
    }
  }
  report.metric("server.decode_us", p50(t, "server.decode", 1e-6), "us");
  report.metric("server.encode_us", p50(t, "server.encode", 1e-6), "us");

  // Below the service: a seeded subset of distinct requests, covering every
  // test kind the sample holds.
  common::Xoshiro256 rng(common::hash_key({options.seed, 0x656e67ULL}));
  std::vector<std::size_t> distinct;
  for (const auto& [key, i] : first_of) distinct.push_back(i);
  for (std::size_t i = distinct.size(); i > 1; --i) {
    std::swap(distinct[i - 1], distinct[rng.bounded(i)]);
  }
  std::vector<std::size_t> chosen;
  for (const char* test : {"rowhammer", "trcd", "retention"}) {
    for (const std::size_t i : distinct) {
      if (sample[i].test == test) {
        chosen.push_back(i);
        break;
      }
    }
  }
  for (const std::size_t i : distinct) {
    if (chosen.size() >= kTraceEngineRequests) break;
    if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) {
      chosen.push_back(i);
    }
  }
  CommandTally tally;
  for (const std::size_t i : chosen) {
    switch (request_phase(sample[i])) {
      case core::JobPhase::kTrcd:
        trace_request_engine<core::TrcdGrid>(t, sample[i], texts[i],
                                             options.seed + i, tally);
        break;
      case core::JobPhase::kRetention:
        trace_request_engine<core::RetentionGrid>(t, sample[i], texts[i],
                                                  options.seed + i, tally);
        break;
      default:
        trace_request_engine<core::HammerGrid>(t, sample[i], texts[i],
                                               options.seed + i, tally);
        break;
    }
  }
  tally.emit(report);
  finish(t, options);
}

// --- distributed_2w ---------------------------------------------------------------

namespace {

/// CampaignWorker::run one layer down: its loop rebuilt from Client::lease,
/// Client::heartbeat, core::run_campaign_shards and Client::submit, each
/// call a span. Submitted batches are kept for the merge replay.
struct ReplayWorker {
  double wall_s = 0.0;
  double compute_s = 0.0;
  std::string error;
};

void replay_worker(Trace& t, std::uint16_t port, const std::string& id,
                   std::mutex& batches_mu,
                   std::vector<core::CampaignShardBatch>& batches,
                   ReplayWorker& out) {
  const Clock::time_point start = Clock::now();
  auto connected = server::Client::connect(port);
  if (!connected) {
    out.error = connected.error().to_string();
    return;
  }
  server::Client client = std::move(*connected);
  WcdpMemo memo;
  core::CampaignPlan plan;
  bool have_plan = false;
  std::uint64_t plan_hash = 0;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  for (;;) {
    server::LeaseRequest request;
    request.plan_hash = plan_hash;
    request.worker = id;
    request.max_shards = kLeaseShards;
    request.need_plan = !have_plan;
    Scope lease_span(t.tracer, "server.lease", Layer::kServer, Tracer::kNone, id);
    auto grant = client.lease(request);
    lease_span.close();
    if (!grant) {
      out.error = grant.error().to_string();
      break;
    }
    if (!have_plan) {
      auto spec = core::plan_from_manifest(grant->campaign);
      if (!grant->has_campaign || !spec) {
        out.error = "lease grant did not carry a usable campaign spec";
        break;
      }
      plan = std::move(*spec);
      plan.jobs = 1;
      plan.manifest_path.clear();
      plan_hash = grant->plan_hash;
      phase = grant->phase;
      have_plan = true;
    }
    for (const core::ManifestWcdp& record : grant->wcdp) {
      for (const dram::ModuleProfile& profile : plan.modules) {
        std::vector<dram::DataPattern> known;
        if (profile.name == record.module && !memo.lookup_wcdp(profile, &known)) {
          memo.store_wcdp(profile, record.wcdp);
        }
      }
    }
    if (grant->shards.empty()) {
      if (grant->complete) break;
      Scope idle(t.tracer, "server.idle", Layer::kServer, Tracer::kNone, id);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          server::CampaignWorker::Options{}.poll_ms));
      continue;
    }
    server::HeartbeatRequest hb;
    hb.plan_hash = plan_hash;
    hb.token = grant->token;
    Scope hb_span(t.tracer, "server.heartbeat", Layer::kServer, Tracer::kNone, id);
    auto renewed = client.heartbeat(hb);
    hb_span.close();
    if (!renewed) {
      out.error = renewed.error().to_string();
      break;
    }
    const Clock::time_point c0 = Clock::now();
    Scope batch_span(t.tracer, "core.shard_batch", Layer::kCore, lease_span.id(), id);
    auto batch = core::run_campaign_shards(plan, phase, grant->shards, &memo);
    batch_span.close();
    out.compute_s += seconds_between(c0, Clock::now());
    if (!batch) {
      out.error = batch.error().to_string();
      break;
    }
    server::SubmitRequest submit;
    submit.plan_hash = plan_hash;
    submit.phase = phase;
    submit.worker = id;
    submit.token = grant->token;
    submit.wcdp = batch->wcdp;
    submit.shards = batch->shards;
    Scope submit_span(t.tracer, "server.submit", Layer::kServer, batch_span.id(), id);
    auto outcome = client.submit(submit);
    submit_span.close();
    if (!outcome) {
      out.error = outcome.error().to_string();
      break;
    }
    {
      std::lock_guard lock(batches_mu);
      batches.push_back(std::move(*batch));
    }
    if (outcome->complete) break;
  }
  out.wall_s = seconds_between(start, Clock::now());
}

/// Full record bytes (session counts included) of a manifest's shards and
/// WCDP preps, in file order.
std::string manifest_records(const core::CampaignManifest& m) {
  common::JsonWriter w;
  w.begin_array();
  for (const core::ManifestWcdp& r : m.wcdp) core::manifest_wcdp_json(w, r);
  for (const core::ManifestShard& s : m.shards) {
    core::manifest_shard_json(w, s, m.phase);
  }
  w.end_array();
  return w.str();
}

}  // namespace

void trace_distributed_2w(const Options& options, Report& report) {
  Trace t(report);
  const core::JobPhase phase = core::JobPhase::kRowHammer;
  const core::CampaignPlan plan =
      sample_modules(distributed_plan(options.seed), options.seed,
                     kSampleModules);
  auto started = server::Server::start(server::Server::Config{});
  if (!started) {
    report.fail("coordinator start: " + started.error().to_string());
    return;
  }
  std::unique_ptr<server::Server> daemon = std::move(*started);
  const auto open = [&](const std::string& manifest)
      -> std::shared_ptr<server::CampaignCoordinator> {
    remove_manifest(manifest);
    auto coordinator =
        server::CampaignCoordinator::open(plan, phase, manifest);
    if (!coordinator) {
      report.fail("coordinator open: " + coordinator.error().to_string());
      return nullptr;
    }
    std::shared_ptr<server::CampaignCoordinator> coord = std::move(*coordinator);
    daemon->service().adopt_campaign(coord);
    return coord;
  };

  // The enclosing call: CampaignWorker::run on two threads.
  const std::string manifest_a = options.out_dir + "/trace-dist-a.json";
  if (!open(manifest_a)) return;
  std::vector<server::CampaignWorker::Summary> summaries(kDistributedWorkers);
  const std::uint64_t before = bytes_written();
  {
    Scope span(t.tracer, "server.distributed_run", Layer::kServer,
               Tracer::kNone, "CampaignWorker::run");
    std::vector<std::thread> workers;
    for (int w = 0; w < kDistributedWorkers; ++w) {
      workers.emplace_back([&, w] {
        server::CampaignWorker::Options o;
        o.port = daemon->port();
        o.worker_id = "w" + std::to_string(w + 1);
        o.lease_shards = kLeaseShards;
        o.jobs = 1;
        auto summary = server::CampaignWorker::run(o);
        if (summary) summaries[w] = *summary;
      });
    }
    for (std::thread& th : workers) th.join();
  }
  const std::uint64_t written = bytes_written() - before;
  std::uint64_t dropped = 0;
  std::uint64_t duplicates = 0;
  for (const auto& s : summaries) {
    dropped += s.dropped;
    duplicates += s.duplicates;
  }
  core::CampaignPlan export_plan = plan;
  export_plan.manifest_path = manifest_a;
  const auto exported = run_campaign<core::HammerGrid>(t, export_plan, "export");
  auto merged_a = core::load_campaign_manifest(manifest_a);
  if (!exported.grids || !merged_a) {
    report.fail("distributed run did not produce a complete manifest");
    return;
  }

  // One layer down: the worker loop from its public calls.
  const std::string manifest_b = options.out_dir + "/trace-dist-b.json";
  if (!open(manifest_b)) return;
  std::mutex batches_mu;
  std::vector<core::CampaignShardBatch> batches;
  std::vector<ReplayWorker> replayed(kDistributedWorkers);
  const Clock::time_point r0 = Clock::now();
  {
    Scope span(t.tracer, "server.distributed_run", Layer::kServer,
               Tracer::kNone, "replayed workers");
    std::vector<std::thread> workers;
    for (int w = 0; w < kDistributedWorkers; ++w) {
      workers.emplace_back([&, w] {
        replay_worker(t, daemon->port(), "r" + std::to_string(w + 1),
                      batches_mu, batches, replayed[w]);
      });
    }
    for (std::thread& th : workers) th.join();
  }
  const double replay_wall = seconds_between(r0, Clock::now());
  daemon.reset();
  double worker_wall = 0.0;
  double compute = 0.0;
  for (const ReplayWorker& w : replayed) {
    if (!w.error.empty()) report.fail("replayed worker: " + w.error);
    worker_wall += w.wall_s;
    compute += w.compute_s;
  }
  auto merged_b = core::load_campaign_manifest(manifest_b);
  if (!merged_b || manifest_records(*merged_b) != manifest_records(*merged_a)) {
    report.fail("replayed workers merged a different manifest");
  }

  // The coordinator's merge, replayed batch by batch into an empty manifest.
  auto grid = core::compile_campaign_shards(plan, phase);
  if (merged_b && grid) {
    core::CampaignManifest merged = *merged_b;
    merged.shards.clear();
    merged.wcdp.clear();
    for (const core::CampaignShardBatch& batch : batches) {
      Scope span(t.tracer, "core.merge", Layer::kCore);
      auto outcome = core::merge_campaign_shards(
          merged, *grid, plan.digest(phase), batch.wcdp, batch.shards);
      if (!outcome) report.fail("merge: " + outcome.error().to_string());
    }
    if (manifest_records(merged) != manifest_records(*merged_b)) {
      report.fail("replayed merge differs from the coordinator's manifest");
    }
  }
  trace_manifest_io(t, plan, phase, manifest_b, *exported.grids);
  remove_manifest(manifest_a);
  remove_manifest(manifest_b);

  report.metric("server.lease_rtt_ms", p50(t, "server.lease", 1e-3), "ms");
  report.metric("server.submit_rtt_ms", p50(t, "server.submit", 1e-3), "ms");
  report.metric("server.worker_idle_frac",
                worker_wall > 0.0 ? (worker_wall - compute) / worker_wall : 0.0,
                "ratio");
  report.metric("server.dropped_batches", static_cast<double>(dropped), "count");
  report.metric("server.duplicate_shards", static_cast<double>(duplicates),
                "count");
  report.metric("core.merge_ms", p50(t, "core.merge", 1e-3), "ms");
  emit_checkpoint_bytes(report, written, planned_shards(plan, phase));
  emit_pool_efficiency(report, compute, replay_wall, kDistributedWorkers);
  CommandTally tally;
  tally.add(*exported.grids);
  tally.emit(report);

  const ShardReplays shards =
      replay_shards(t, plan, phase, *exported.grids, exported.span);
  replay_cells(t, plan, *exported.grids, shards, options.seed, kSampleCells);
  finish(t, options);
}

}  // namespace vppbench
