// vppbench: the end-to-end benchmark program. Runs one workload per process
// and prints its result document (see Report) as the last line of stdout;
// bench/e2e/run.py builds this binary, runs every workload and checks and
// renders the results.
//
//   vppbench <alg1_campaign|alg23_campaign|vppd_mix|distributed_2w>
//            --seed N --seconds S --out DIR [--trace | --setup-only]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "common/simd.hpp"

namespace {

using vppbench::Options;
using vppbench::Report;

struct Workload {
  std::string_view name;
  void (*run)(const Options&, Report&);
  void (*trace)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"alg1_campaign", vppbench::run_alg1_campaign,
     vppbench::trace_alg1_campaign},
    {"alg23_campaign", vppbench::run_alg23_campaign,
     vppbench::trace_alg23_campaign},
    {"vppd_mix", vppbench::run_vppd_mix, vppbench::trace_vppd_mix},
    {"distributed_2w", vppbench::run_distributed_2w,
     vppbench::trace_distributed_2w},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "vppbench: %s\nusage: vppbench <workload> --seed N --seconds S "
               "--out DIR [--trace | --setup-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing workload");
  Options options;
  options.workload = argv[1];
  bool setup_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage("bad argument");
    }
  }
  if (options.out_dir.empty()) return usage("--out is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == options.workload) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return usage("cannot create --out directory");
  if (setup_only) return vppbench::setup_only(options);

  Report report;
  report.info("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  report.info("simd", vppstudy::common::simd::active_impl_name());
  report.info("compiler", VPPBENCH_COMPILER);
  report.info("build_type", VPPBENCH_BUILD_TYPE);
  (options.trace ? workload->trace : workload->run)(options, report);
  std::printf("%s\n", report.json(options).c_str());
  return 0;
}
