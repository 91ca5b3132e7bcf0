// Shared plumbing for the reproduction benches: common sweep drivers, text
// rendering of figure series, and environment knobs so a user can trade
// fidelity for runtime (VPP_BENCH_ROWS, VPP_BENCH_MODULES, ...). Every bench
// accepts a --jobs N flag (or VPP_BENCH_JOBS) and runs its sweeps on the
// parallel deterministic engine: results are bit-identical at any job count.
#pragma once

#include <cstdint>
#include <cstdio>
#include <future>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "chips/module_db.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/parallel_study.hpp"
#include "core/study.hpp"
#include "dram/profile.hpp"
#include "stats/descriptive.hpp"

namespace vppstudy::bench {

/// Environment-tunable knobs shared by all bench binaries.
struct BenchOptions {
  std::uint32_t rows_per_chunk = 4;   ///< x4 chunks => rows per module
  std::uint32_t chunks = 4;
  int iterations = 1;
  std::size_t max_modules = 30;
  double vpp_step = 0.2;              ///< figure sweeps: 2.5 down in steps
  int jobs = 1;                       ///< worker threads; 0 = all hardware
  std::uint64_t seed = 0;             ///< base seed of per-job noise streams
};

/// Read overrides from the environment:
///   VPP_BENCH_ROWS     rows per chunk (default 4; paper: 1024)
///   VPP_BENCH_ITERS    iterations (default 1; paper: 10)
///   VPP_BENCH_MODULES  number of modules (default 30)
///   VPP_BENCH_STEP     VPP step in volts (default 0.2; paper: 0.1)
///   VPP_BENCH_JOBS     worker threads (default 1; 0 = all hardware threads)
[[nodiscard]] BenchOptions options_from_env();

/// options_from_env plus command-line flags (flags win):
///   --jobs N      worker threads (0 = all hardware threads)
///   --rows N      rows per chunk
///   --iters N     iterations
///   --modules N   number of modules
///   --step V      VPP step in volts
[[nodiscard]] BenchOptions options_from_args(int argc, char** argv);

/// VPP grid from 2.5 down to 1.4 in `step` volt steps.
[[nodiscard]] std::vector<double> vpp_grid(double step);

/// Sweep config assembled from bench options.
[[nodiscard]] core::SweepConfig sweep_config(const BenchOptions& opt);

/// Engine config over the first `max_modules` profiles with the shared grid.
[[nodiscard]] core::StudyConfig study_config(const BenchOptions& opt);

/// The same configuration lifted into the multi-axis engine's vocabulary: a
/// VPP-only CampaignPlan over the bench modules. Benches that sweep extra
/// axes start from this and populate `axes` (and every bench sweep now runs
/// through the one CampaignEngine, so figure output and `vppctl campaign`
/// output come from the same code path).
[[nodiscard]] core::CampaignPlan campaign_plan(const BenchOptions& opt);

/// The first `max_modules` profiles.
[[nodiscard]] std::vector<dram::ModuleProfile> bench_modules(
    const BenchOptions& opt);

/// Run the RowHammer sweep for the first `max_modules` profiles on the
/// parallel engine ((module, VPP level) job granularity).
[[nodiscard]] std::vector<core::ModuleSweepResult> run_rowhammer_all(
    const BenchOptions& opt);

/// Run the tRCD sweep for the first `max_modules` profiles (Fig. 7).
[[nodiscard]] std::vector<core::TrcdSweepResult> run_trcd_all(
    const BenchOptions& opt);

/// Fan one job per module out on a work-stealing pool. `fn` maps a profile
/// to common::Expected<R>; results come back in module order (deterministic
/// regardless of scheduling), with failed modules skipped after a stderr
/// note. This is the driver for benches whose VPP grid depends on the
/// module (e.g. {2.5V, VPPmin}) -- within each job the engine runs inline.
template <typename Fn>
[[nodiscard]] auto parallel_module_map(const BenchOptions& opt, Fn fn)
    -> std::vector<typename std::invoke_result_t<
        Fn&, const dram::ModuleProfile&>::value_type>;

/// Print a one-line banner describing the bench scale vs the paper's.
void print_scale_banner(const std::string& what, const BenchOptions& opt);

/// Print each sweep's aggregated rig instrumentation as '#'-prefixed comment
/// lines (so figure output stays machine-parseable), plus a campaign total.
/// Works for any sweep-result type carrying an `instrumentation` member.
template <typename SweepResult>
void print_instrumentation(const std::string& what,
                           std::span<const SweepResult> sweeps) {
  core::SweepInstrumentation total;
  for (const auto& sweep : sweeps) {
    std::printf("# instrumentation %s %s: %s\n", what.c_str(),
                sweep.module_name.c_str(),
                sweep.instrumentation.summary().c_str());
    total += sweep.instrumentation;
  }
  std::printf("# instrumentation %s total: %s\n", what.c_str(),
              total.summary().c_str());
}

template <typename SweepResult>
void print_instrumentation(const std::string& what,
                           const std::vector<SweepResult>& sweeps) {
  print_instrumentation(what, std::span<const SweepResult>(sweeps));
}

/// Headline aggregate accumulated by print_normalized_sweep_table: the mean
/// and max of a per-row delta at each module's VPPmin level.
struct NormalizedHeadline {
  double sum = 0.0;
  std::size_t rows = 0;
  double max_delta = 0.0;
  std::string max_module;
  double max_vpp = 2.5;

  [[nodiscard]] double mean_pct() const {
    return 100.0 * sum / static_cast<double>(rows == 0 ? 1 : rows);
  }
  [[nodiscard]] double max_pct() const { return 100.0 * max_delta; }
};

/// The shared Fig. 3 / Fig. 5 scaffolding: a per-(VPP, module) table of the
/// mean normalized series, then 90% bands per module at its VPPmin.
/// `norm_at(sweep, level)` extracts the normalized per-row series;
/// `delta(r)` maps one normalized value to the headline quantity (1-r for a
/// BER reduction, r-1 for an HCfirst increase), accumulated at VPPmin only.
template <typename NormAt, typename Delta>
NormalizedHeadline print_normalized_sweep_table(
    const std::vector<core::ModuleSweepResult>& sweeps,
    const BenchOptions& opt, NormAt norm_at, Delta delta) {
  NormalizedHeadline headline;
  std::printf("%-6s", "VPP[V]");
  for (const auto& s : sweeps) std::printf(" %8s", s.module_name.c_str());
  std::printf("\n");
  // All modules share the master grid; print per level, gaps below VPPmin.
  const auto grid = vpp_grid(opt.vpp_step);
  for (const double vpp : grid) {
    std::printf("%-6.2f", vpp);
    for (const auto& s : sweeps) {
      const int idx = s.level_index(vpp);
      if (idx < 0) {
        std::printf(" %8s", "-");
        continue;
      }
      const auto norm = norm_at(s, static_cast<std::size_t>(idx));
      std::printf(" %8.3f", stats::mean(norm));
      if (idx == static_cast<int>(s.vpp_levels.size()) - 1) {
        for (const double r : norm) {
          const double d = delta(r);
          headline.sum += d;
          ++headline.rows;
          if (d > headline.max_delta) {
            headline.max_delta = d;
            headline.max_module = s.module_name;
            headline.max_vpp = vpp;
          }
        }
      }
    }
    std::printf("\n");
  }

  std::printf("\n90%% bands across rows (per module, at its VPPmin):\n");
  for (const auto& s : sweeps) {
    const auto norm = norm_at(s, s.vpp_levels.size() - 1);
    const auto band = stats::central_interval(norm, 0.90);
    std::printf("  %-4s @%.1fV: mean %.3f [%.3f, %.3f]\n",
                s.module_name.c_str(), s.vpp_levels.back(), stats::mean(norm),
                band.lower, band.upper);
  }
  return headline;
}

/// Render one series as a fixed-width table row block:
///   label, then (x, y, [lo, hi]) lines.
void print_series(const std::string& label, std::span<const double> x,
                  std::span<const double> y,
                  std::span<const double> lo = {},
                  std::span<const double> hi = {});

/// One benchmark's measurement in the machine-readable perf snapshot.
struct PerfEntry {
  std::string name;
  double ns_per_op = 0.0;
  /// User counters as finalized by google-benchmark (rates already divided
  /// by elapsed time), e.g. "flips_per_s".
  std::vector<std::pair<std::string, double>> counters;
};

/// Resolve the perf-snapshot path: $VPP_BENCH_JSON, or "BENCH_perf.json" in
/// the working directory when unset.
[[nodiscard]] std::string perf_snapshot_path();

/// Write the perf snapshot (name -> ns/op + counters, plus a `host` block
/// with nproc and hardware_concurrency) as a JSON document so CI can
/// archive a perf trajectory across commits. Returns false on I/O failure.
[[nodiscard]] bool write_perf_snapshot(const std::string& path,
                                       std::span<const PerfEntry> entries);

// --- template implementation -------------------------------------------------

template <typename Fn>
auto parallel_module_map(const BenchOptions& opt, Fn fn)
    -> std::vector<typename std::invoke_result_t<
        Fn&, const dram::ModuleProfile&>::value_type> {
  using Result = std::invoke_result_t<Fn&, const dram::ModuleProfile&>;
  const auto modules = bench_modules(opt);
  common::ThreadPool pool(common::ThreadPool::workers_for_jobs(opt.jobs));
  std::vector<std::future<Result>> futures;
  futures.reserve(modules.size());
  for (const auto& profile : modules) {
    futures.push_back(pool.submit([&fn, &profile] { return fn(profile); }));
  }
  std::vector<typename Result::value_type> out;
  out.reserve(modules.size());
  for (std::size_t m = 0; m < modules.size(); ++m) {
    auto result = futures[m].get();
    if (!result) {
      std::fprintf(stderr, "module %s failed: %s\n", modules[m].name.c_str(),
                   result.error().to_string().c_str());
      continue;
    }
    out.push_back(std::move(*result));
  }
  return out;
}

}  // namespace vppstudy::bench
