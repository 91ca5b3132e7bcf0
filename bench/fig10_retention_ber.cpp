// Fig. 10: (a) data retention BER vs refresh window for different VPP
// levels (mean across rows, 90% CI); (b) distribution of per-row retention
// BER at tREFW = 4s per manufacturer.
// Paper results to reproduce: higher BER curves at lower VPP; mean BER at 4s
// rising 0.3->0.8% (A), 0.2->0.5% (B), 1.4->2.5% (C) as VPP drops 2.5->1.5V;
// most modules clean at the nominal 64ms window.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "stats/descriptive.hpp"

int main(int argc, char** argv) {
  using namespace vppstudy;
  auto opt = bench::options_from_args(argc, argv);
  bench::print_scale_banner("Fig. 10: retention BER under reduced VPP", opt);

  const auto cfg = bench::sweep_config(opt);
  // Retention needs only a coarse VPP grid: nominal, 2.0, and VPPmin.
  struct VendorAccum {
    std::vector<double> ref_ber_nominal;  // per-row BER at 4s, 2.5V
    std::vector<double> ref_ber_low;      // per-row BER at 4s, VPPmin
  };
  std::map<dram::Manufacturer, VendorAccum> vendors;
  std::vector<double> windows;
  std::map<int, std::vector<double>> mean_curves;  // level index -> sums
  int curve_count = 0;
  int clean_at_64ms = 0;
  int modules_tested = 0;

  // One job per module on a {2.5V, 2.0V, VPPmin} grid; aggregation stays
  // serial and in module order below.
  const auto sweeps = bench::parallel_module_map(
      opt,
      [&cfg](const dram::ModuleProfile& profile) {
        auto module_cfg = cfg;
        module_cfg.vpp_levels = {2.5, 2.0, profile.vppmin_v};
        return bench::module_retention_sweep(profile, module_cfg);
      });
  for (const auto& sweep : sweeps) {
    ++modules_tested;
    if (windows.empty()) windows = sweep.trefw_ms;
    for (std::size_t l = 0; l < sweep.vpp_levels.size() && l < 3; ++l) {
      auto& acc = mean_curves[static_cast<int>(l)];
      if (acc.empty()) acc.assign(sweep.mean_ber[l].size(), 0.0);
      for (std::size_t w = 0; w < sweep.mean_ber[l].size(); ++w) {
        acc[w] += sweep.mean_ber[l][w];
      }
    }
    ++curve_count;
    auto& v = vendors[sweep.mfr];
    const auto& nominal_rows = sweep.row_ber_at_reference.front();
    const auto& low_rows = sweep.row_ber_at_reference.back();
    v.ref_ber_nominal.insert(v.ref_ber_nominal.end(), nominal_rows.begin(),
                             nominal_rows.end());
    v.ref_ber_low.insert(v.ref_ber_low.end(), low_rows.begin(),
                         low_rows.end());
    // Obsv. 13: does this module flip at 64ms at VPPmin?
    std::size_t idx64 = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      if (std::abs(windows[w] - 64.0) < 1.0) idx64 = w;
    }
    if (sweep.mean_ber.back()[idx64] == 0.0) ++clean_at_64ms;
  }

  std::printf("\nFig. 10a: mean retention BER vs tREFW (rows averaged over "
              "all modules)\n%-10s %12s %12s %12s\n", "tREFW[ms]", "VPP=2.5",
              "VPP=2.0", "VPP=min");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::printf("%-10.0f", windows[w]);
    for (int l = 0; l < 3; ++l) {
      const auto it = mean_curves.find(l);
      if (it == mean_curves.end() || w >= it->second.size()) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.4e", it->second[w] / curve_count);
      }
    }
    std::printf("\n");
  }

  std::printf("\nFig. 10b: mean per-row BER at tREFW=4s, per vendor\n");
  for (const auto& [mfr, acc] : vendors) {
    std::printf("  %s: %.2f%% at 2.5V -> %.2f%% at VPPmin\n",
                dram::manufacturer_name(mfr),
                100.0 * stats::mean(acc.ref_ber_nominal),
                100.0 * stats::mean(acc.ref_ber_low));
  }
  std::printf(
      "\nObsv. 13 check: %d of %d modules show no flips at the 64ms window "
      "at VPPmin (paper: 23 of 30)\n",
      clean_at_64ms, modules_tested);
  std::printf(
      "Paper Fig. 10b: A 0.3->0.8%%, B 0.2->0.5%%, C 1.4->2.5%% "
      "(2.5V -> 1.5V)\n");
  return 0;
}
