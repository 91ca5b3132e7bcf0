#include "bench_common.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "chips/module_db.hpp"
#include "common/json.hpp"

namespace vppstudy::bench {

namespace {
long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != v && parsed > 0) ? parsed : fallback;
}
double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != v && parsed > 0.0) ? parsed : fallback;
}
}  // namespace

BenchOptions options_from_env() {
  BenchOptions opt;
  opt.rows_per_chunk =
      static_cast<std::uint32_t>(env_long("VPP_BENCH_ROWS", 4));
  opt.iterations = static_cast<int>(env_long("VPP_BENCH_ITERS", 1));
  opt.max_modules =
      static_cast<std::size_t>(env_long("VPP_BENCH_MODULES", 30));
  opt.vpp_step = env_double("VPP_BENCH_STEP", 0.2);
  // 0 is meaningful for jobs (all hardware threads), so parse it directly.
  if (const char* v = std::getenv("VPP_BENCH_JOBS")) {
    opt.jobs = std::atoi(v);
  }
  return opt;
}

BenchOptions options_from_args(int argc, char** argv) {
  BenchOptions opt = options_from_env();
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* flag, const char** out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    const char* value = nullptr;
    if (flag_value("--jobs", &value)) {
      opt.jobs = std::atoi(value);
    } else if (flag_value("--rows", &value)) {
      opt.rows_per_chunk = static_cast<std::uint32_t>(std::atol(value));
    } else if (flag_value("--iters", &value)) {
      opt.iterations = std::atoi(value);
    } else if (flag_value("--modules", &value)) {
      opt.max_modules = static_cast<std::size_t>(std::atol(value));
    } else if (flag_value("--step", &value)) {
      opt.vpp_step = std::atof(value);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --jobs N, --rows N, --iters N, "
                   "--modules N, --step V)\n",
                   argv[i]);
    }
  }
  return opt;
}

std::vector<double> vpp_grid(double step) {
  std::vector<double> grid;
  for (double v = 2.5; v >= 1.4 - 1e-9; v -= step) grid.push_back(v);
  return grid;
}

core::SweepConfig sweep_config(const BenchOptions& opt) {
  core::SweepConfig cfg;
  cfg.vpp_levels = vpp_grid(opt.vpp_step);
  cfg.sampling.chunks = opt.chunks;
  cfg.sampling.rows_per_chunk = opt.rows_per_chunk;
  cfg.hammer.num_iterations = opt.iterations;
  cfg.trcd.num_iterations = opt.iterations;
  cfg.trcd.column_stride = 64;
  cfg.retention.num_iterations = 1;
  return cfg;
}

std::vector<dram::ModuleProfile> bench_modules(const BenchOptions& opt) {
  std::vector<dram::ModuleProfile> modules;
  for (const auto& profile : chips::all_profiles()) {
    if (modules.size() >= opt.max_modules) break;
    modules.push_back(profile);
  }
  return modules;
}

core::StudyConfig study_config(const BenchOptions& opt) {
  core::StudyConfig config;
  config.sweep = sweep_config(opt);
  config.modules = bench_modules(opt);
  config.seed = opt.seed;
  config.jobs = opt.jobs;
  return config;
}

core::CampaignPlan campaign_plan(const BenchOptions& opt) {
  return core::CampaignPlan::from_study(study_config(opt));
}

std::vector<core::ModuleSweepResult> run_rowhammer_all(
    const BenchOptions& opt) {
  core::CampaignEngine engine(campaign_plan(opt));
  auto grids = engine.run_hammer();
  if (!grids) {
    std::fprintf(stderr, "rowhammer sweep failed: %s\n",
                 grids.error().to_string().c_str());
    return {};
  }
  std::vector<core::ModuleSweepResult> sweeps;
  sweeps.reserve(grids->size());
  for (const auto& grid : *grids) sweeps.push_back(grid.to_sweep());
  print_instrumentation("rowhammer", sweeps);
  return sweeps;
}

std::vector<core::TrcdSweepResult> run_trcd_all(const BenchOptions& opt) {
  core::CampaignEngine engine(campaign_plan(opt));
  auto grids = engine.run_trcd();
  if (!grids) {
    std::fprintf(stderr, "tRCD sweep failed: %s\n",
                 grids.error().to_string().c_str());
    return {};
  }
  std::vector<core::TrcdSweepResult> sweeps;
  sweeps.reserve(grids->size());
  for (const auto& grid : *grids) sweeps.push_back(grid.to_sweep());
  print_instrumentation("trcd", sweeps);
  return sweeps;
}

void print_scale_banner(const std::string& what, const BenchOptions& opt) {
  std::printf(
      "# %s\n"
      "# scale: %u rows/module (paper: 4096), %d iteration(s) (paper: 10), "
      "%zu module(s), %.2fV steps (paper: 0.1V), %d job(s)\n"
      "# override via VPP_BENCH_ROWS / VPP_BENCH_ITERS / VPP_BENCH_MODULES / "
      "VPP_BENCH_STEP / VPP_BENCH_JOBS or --jobs N\n",
      what.c_str(), opt.rows_per_chunk * opt.chunks, opt.iterations,
      opt.max_modules, opt.vpp_step, opt.jobs);
}

std::string perf_snapshot_path() {
  if (const char* v = std::getenv("VPP_BENCH_JSON")) return v;
  return "BENCH_perf.json";
}

bool write_perf_snapshot(const std::string& path,
                         std::span<const PerfEntry> entries) {
  common::JsonWriter json;
  json.begin_object();
  json.kv("schema", "vppstudy-bench-perf/1");
  // The host's cores, so jobs=N rows can be read: nproc is the CPUs this
  // process may run on, hardware_concurrency the machine's.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  json.key("host").begin_object();
  json.kv("nproc", nproc);
  json.kv("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.key("benchmarks").begin_array();
  for (const auto& e : entries) {
    json.begin_object();
    json.kv("name", e.name);
    json.kv("ns_per_op", e.ns_per_op);
    if (!e.counters.empty()) {
      json.key("counters").begin_object();
      for (const auto& [name, value] : e.counters) json.kv(name, value);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.write_file(path);
}

void print_series(const std::string& label, std::span<const double> x,
                  std::span<const double> y, std::span<const double> lo,
                  std::span<const double> hi) {
  std::printf("%s\n", label.c_str());
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (i < lo.size() && i < hi.size()) {
      std::printf("  %8.3f  %12.6g  [%12.6g, %12.6g]\n", x[i], y[i], lo[i],
                  hi[i]);
    } else {
      std::printf("  %8.3f  %12.6g\n", x[i], y[i]);
    }
  }
}

}  // namespace vppstudy::bench
