// Performance microbenchmarks (google-benchmark) for the hot paths of the
// simulation stack: counter-RNG synthesis, whole-row flip evaluation,
// Alg. 1's measure_BER, the circuit solver, dense LU, and the per-shard
// checkpoint append -- plus an end-to-end study sweep parameterized by
// --jobs, so serial-vs-parallel speedup is one
// `--benchmark_filter=BM_StudySweep` run away.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "chips/module_db.hpp"
#include "circuit/dram_cell.hpp"
#include "circuit/matrix.hpp"
#include "common/rng.hpp"
#include "core/campaign_journal.hpp"
#include "dram/data_pattern.hpp"
#include "dram/module.hpp"
#include "harness/pattern_fuzzer.hpp"
#include "harness/pattern_spec.hpp"
#include "harness/rowhammer_test.hpp"
#include "softmc/session.hpp"

namespace {

using namespace vppstudy;

/// The module's flip-index counters (dram::FlipIndexStats) as bench
/// counters: how its senses were served, and the index memory they left.
void report_flip_index(benchmark::State& state, const dram::Module& module) {
  const dram::FlipIndexStats& stats = module.flip_index_stats();
  state.counters["index_builds"] = static_cast<double>(stats.builds);
  state.counters["index_senses"] = static_cast<double>(stats.index_senses);
  state.counters["full_row_scans"] = static_cast<double>(stats.full_row_scans);
  state.counters["index_bytes"] = static_cast<double>(stats.index_bytes);
}

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = common::mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_CellUniform(benchmark::State& state) {
  const dram::CellPhysics phys(chips::profile_by_name("B3").value());
  std::uint32_t bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phys.cell_uniform(
        0, 500, bit++, dram::CellPhysics::CellDraw::kHammer));
  }
}
BENCHMARK(BM_CellUniform);

void BM_RowParams(benchmark::State& state) {
  const dram::CellPhysics phys(chips::profile_by_name("B3").value());
  std::uint32_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phys.row_params(0, row++ % 4096));
  }
}
BENCHMARK(BM_RowParams);

void BM_MeasureBer(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  softmc::Session session(profile);
  harness::RowHammerConfig cfg;
  cfg.num_iterations = 1;
  harness::RowHammerTest test(session, cfg);
  for (auto _ : state) {
    auto ber = test.measure_ber(0, 500, dram::DataPattern::kCheckerAA,
                                static_cast<std::uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(ber);
  }
}
BENCHMARK(BM_MeasureBer)->Arg(1000)->Arg(300000);

// Victim sensing after a double-sided hammer burst, directly on the device
// model: each iteration is hammer_pair (O(1) bulk accounting) followed by the
// ACT+PRE that evaluates the accumulated disturbance on the victim. range(0)
// is the per-side hammer count; range(1) == 1 evaluates flips with the
// reference full-row scan instead of the flip-index fast path, so fast vs
// reference is a pair of adjacent bench rows. 120K keeps the flip
// probability within the row's first index (p ~ 2e-4), 2M puts it in the
// deep band (p ~ 1/55, the index grown to 1/32), and 8M past the deepest
// index (p ~ 1/6), where both modes take the bit-exact full-scan fallback.
// The flip-index counters say which path served the senses.
void BM_SenseRestore(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  dram::Module::Options opts;
  opts.reference_sensing = state.range(1) != 0;
  dram::Module module(std::move(profile), opts);
  module.set_trr_enabled(false);
  const std::uint32_t victim = 500;
  const auto neighbors = module.mapping().physical_neighbors(victim);
  if (!neighbors.valid) {
    state.SkipWithError("victim has no double-sided neighborhood");
    return;
  }
  (void)module.debug_row_snapshot(0, victim, 0.0);  // initialize row content
  const auto hc = static_cast<std::uint64_t>(state.range(0));
  const dram::ModuleStats before = module.stats();
  double now = 100.0;
  for (auto _ : state) {
    auto st =
        module.hammer_pair(0, neighbors.below, neighbors.above, hc, 45.0, now);
    if (st.ok()) st = module.activate(0, victim, now);
    now += 35.0;
    if (st.ok()) st = module.precharge(0, now);
    now += 15.0;
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      break;
    }
  }
  const dram::ModuleStats& after = module.stats();
  state.counters["flips_per_s"] = benchmark::Counter(
      static_cast<double>((after.hammer_bit_flips + after.retention_bit_flips) -
                          (before.hammer_bit_flips +
                           before.retention_bit_flips)),
      benchmark::Counter::kIsRate);
  report_flip_index(state, module);
}
BENCHMARK(BM_SenseRestore)
    ->Args({120000, 0})
    ->Args({120000, 1})
    ->Args({2000000, 0})
    ->Args({2000000, 1})
    ->Args({8000000, 0})
    ->Args({8000000, 1});

// Retention-dominated flip evaluation: the victim sits unrefreshed for
// 500ms, then one ACT+PRE applies leakage and weak-cell physics. range(0)
// == 1 uses the reference full-row scan (as above).
void BM_ApplyFlips(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  dram::Module::Options opts;
  opts.reference_sensing = state.range(0) != 0;
  dram::Module module(std::move(profile), opts);
  module.set_trr_enabled(false);
  (void)module.debug_row_snapshot(0, 500, 0.0);
  double now = 100.0;
  for (auto _ : state) {
    auto st = module.activate(0, 500, now);
    now += 35.0;
    if (st.ok()) st = module.precharge(0, now);
    now += 500e6;  // half a second without refresh before the next sense
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      break;
    }
  }
  report_flip_index(state, module);
}
BENCHMARK(BM_ApplyFlips)->Arg(0)->Arg(1);

// Alg. 3's retention windows on one row at 80C: each iteration rewrites the
// row, then senses it after 16 ms, 32 ms, ... 8 s unrefreshed -- eleven
// senses whose p climbs to about 1/30, all within the row's deepest flip
// index, which the first iteration grows and every later one reuses.
// range(0) == 1 uses the reference full-row scan.
void BM_ApplyFlipsLadder(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  dram::Module::Options opts;
  opts.reference_sensing = state.range(0) != 0;
  dram::Module module(std::move(profile), opts);
  module.set_trr_enabled(false);
  module.set_temperature(80.0);
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  double now = 100.0;
  for (auto _ : state) {
    common::Status st = module.activate(0, 500, now);
    if (st.ok()) {
      auto run = module.column_run(dram::CommandKind::kWrite, 0,
                                   dram::kColumnsPerRow - 1);
      if (run) {
        run->write_columns(0, image);
      } else {
        st = run.error();
      }
    }
    now += 35.0;
    if (st.ok()) st = module.precharge(0, now);
    for (double ms = 16; st.ok() && ms <= 8192; ms *= 2) {
      now += ms * 1e6;
      st = module.activate(0, 500, now);
      now += 35.0;
      if (st.ok()) st = module.precharge(0, now);
    }
    if (!st.ok()) {
      state.SkipWithError(st.error().message.c_str());
      break;
    }
  }
  report_flip_index(state, module);
}
BENCHMARK(BM_ApplyFlipsLadder)->Arg(0)->Arg(1);

// Full-row readout (ACT + 1024 RD + PRE): the read-burst buffer is pre-sized
// from Program::read_count(), so the executor does no vector reallocation.
void BM_ReadRow(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  softmc::Session session(profile);
  for (auto _ : state) {
    auto row = session.read_row(0, 500);
    if (!row) state.SkipWithError(row.error().message.c_str());
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_ReadRow);

// Full-row initialization (ACT + 1024 WR + PRE): measure_BER writes three
// rows per readback, so this is the larger share of Alg. 1's column traffic.
void BM_InitRow(benchmark::State& state) {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  softmc::Session session(profile);
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  for (auto _ : state) {
    auto st = session.init_row(0, 500, image);
    if (!st.ok()) state.SkipWithError(st.error().message.c_str());
  }
}
BENCHMARK(BM_InitRow);

void BM_CircuitActivation(benchmark::State& state) {
  circuit::DramCellSimParams p;
  p.t_stop_ns = 30.0;
  for (auto _ : state) {
    auto r = circuit::simulate_activation(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CircuitActivation);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Xoshiro256 rng(7);
  for (auto _ : state) {
    circuit::Matrix a(n);
    std::vector<double> b(n);
    for (std::size_t r = 0; r < n; ++r) {
      b[r] = rng.uniform();
      for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.uniform() + (r == c);
    }
    std::vector<double> x;
    benchmark::DoNotOptimize(circuit::lu_solve(a, b, x));
  }
}
BENCHMARK(BM_LuSolve)->Arg(9)->Arg(32);

// One fuzzer generation step on the pure-function side: synthetic
// deterministic scores, evolve_population, then every evolved member
// compiled into a one-period SoftMC program. This is the per-generation CPU
// overhead a fuzz campaign pays on top of the hammer simulation itself;
// range(0) is the population size.
void BM_FuzzGeneration(benchmark::State& state) {
  harness::FuzzerConfig config;
  config.population = static_cast<std::uint32_t>(state.range(0));
  config.elites = 2;
  const std::uint64_t seed = 0x5eed;
  const dram::Ddr4Timing timing;
  const std::int64_t victim = 500;
  auto population = harness::initial_population(seed, config);
  std::uint32_t generation = 0;
  std::vector<harness::ScoredSpec> scored;
  std::vector<std::uint32_t> rows;
  for (auto _ : state) {
    scored.clear();
    for (std::size_t i = 0; i < population.size(); ++i) {
      scored.push_back(
          {population[i], static_cast<double>((i * 37 + generation) % 101)});
    }
    population = harness::evolve_population(scored, seed, ++generation, config);
    for (const harness::PatternSpec& spec : population) {
      rows.clear();
      for (const harness::AggressorSpec& a : spec.aggressors) {
        rows.push_back(static_cast<std::uint32_t>(victim + a.offset));
      }
      const softmc::Program p = harness::compile_pattern(spec, timing, 0,
                                                         rows, 1);
      benchmark::DoNotOptimize(p.instructions().data());
    }
  }
  state.counters["specs_per_s"] = benchmark::Counter(
      static_cast<double>(config.population), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FuzzGeneration)->Arg(8)->Arg(32);

// Checkpoint cost of one shard: a shard record appended (and fdatasync'ed)
// to a manifest journal that already holds range(0) records. The journal is
// append-only, so the cost must not grow with its length; CI asserts that
// /1000 stays within 1.5x of /100 (a full-document rewrite grows linearly).
void BM_ManifestAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vpp_manifest_append_" + std::to_string(::getpid()) + ".json"))
          .string();
  core::CampaignManifest header;
  core::ManifestShard record;
  record.module = "B3";
  record.point.vpp_v = 2.5;
  record.counted = true;
  for (std::uint32_t r = 0; r < 4; ++r) {
    record.hammer.push_back(
        {r * 97, dram::DataPattern::kCheckerAA, 40000 + r, 1e-4 * r});
  }
  record.row_end = 4;
  std::remove(path.c_str());
  {
    core::ManifestJournal seed(path, core::JobPhase::kRowHammer, nullptr);
    bool ok = seed.open(header).ok();
    for (std::int64_t i = 0; ok && i < state.range(0); ++i) {
      ok = seed.append(record).ok();
    }
    if (!ok) {
      state.SkipWithError("cannot seed the journal");
      return;
    }
  }
  const auto seeded = core::read_manifest_file(path);
  if (!seeded) {
    state.SkipWithError(seeded.error().message.c_str());
    return;
  }
  for (auto _ : state) {
    // Reopening truncates the previous iteration's record: the journal
    // holds exactly range(0) records before every timed append.
    state.PauseTiming();
    core::ManifestJournal journal(path, core::JobPhase::kRowHammer, &*seeded);
    const bool opened = journal.open(header).ok();
    state.ResumeTiming();
    if (!opened || !journal.append(record).ok()) {
      state.SkipWithError("manifest journal append failed");
      break;
    }
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_ManifestAppend)->Arg(100)->Arg(1000);

// End-to-end RowHammer sweep through the parallel engine, with the job count
// as the benchmark argument. Compare the `jobs:1` row against `jobs:N` to
// read off the parallel speedup; the per-iteration work is identical (the
// engine is deterministic at any job count), so wall time is the whole story.
void BM_StudySweep(benchmark::State& state) {
  bench::BenchOptions opt;  // fixed small scale; independent of env knobs
  opt.rows_per_chunk = 2;
  opt.chunks = 2;
  opt.iterations = 1;
  opt.max_modules = 8;
  opt.vpp_step = 0.4;
  opt.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto grids = core::CampaignEngine(bench::campaign_plan(opt)).run_hammer();
    if (!grids) {
      state.SkipWithError(grids.error().message.c_str());
      break;
    }
    std::vector<core::ModuleSweepResult> sweeps;
    sweeps.reserve(grids->size());
    for (const core::HammerGrid& grid : *grids) {
      sweeps.push_back(grid.to_sweep());
    }
    benchmark::DoNotOptimize(sweeps);
  }
  state.counters["jobs"] = static_cast<double>(
      common::ThreadPool::resolve_jobs(opt.jobs));
}
BENCHMARK(BM_StudySweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency()))
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Console output as usual, plus every per-iteration run captured for the
// machine-readable BENCH_perf.json snapshot (ns/op + finalized counters).
class PerfSnapshotReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      bench::PerfEntry entry;
      entry.name = run.benchmark_name();
      entry.ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : 0.0;
      for (const auto& [name, counter] : run.counters) {
        entry.counters.emplace_back(name, counter.value);
      }
      entries_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<bench::PerfEntry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<bench::PerfEntry> entries_;
};

}  // namespace

// BENCHMARK_MAIN expanded so the run can end by writing the perf snapshot
// ($VPP_BENCH_JSON, default ./BENCH_perf.json).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  PerfSnapshotReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string path = vppstudy::bench::perf_snapshot_path();
  if (!vppstudy::bench::write_perf_snapshot(path, reporter.entries())) {
    std::fprintf(stderr, "cannot write perf snapshot %s\n", path.c_str());
    return 1;
  }
  std::printf("perf snapshot: %s (%zu benchmarks)\n", path.c_str(),
              reporter.entries().size());
  return 0;
}
