// Fig. 4: population density of per-row normalized BER at VPPmin, per
// manufacturer (KDE over rows of all of a vendor's modules).
// Paper ranges to reproduce: A 0.43-1.11, B 0.33-1.03, C 0.74-0.94.
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"

int main(int argc, char** argv) {
  using namespace vppstudy;
  auto opt = bench::options_from_args(argc, argv);
  opt.vpp_step = 1.1;  // only 2.5V and VPPmin matter for this figure
  bench::print_scale_banner("Fig. 4: normalized BER density at VPPmin", opt);

  const auto cfg = bench::sweep_config(opt);
  // One job per module; each runs a {2.5V, VPPmin} grid inline and reports
  // its vendor plus the per-row normalized BERs at VPPmin.
  using VendorRows = std::pair<dram::Manufacturer, std::vector<double>>;
  auto rows = bench::parallel_module_map(
      opt,
      [&cfg](const dram::ModuleProfile& profile)
          -> common::Expected<VendorRows> {
        auto module_cfg = cfg;
        module_cfg.vpp_levels = {2.5, profile.vppmin_v};
        auto sweep = bench::module_rowhammer_sweep(profile, module_cfg);
        if (!sweep) return sweep.error();
        return VendorRows{
            profile.mfr,
            sweep->normalized_ber_at(sweep->vpp_levels.size() - 1)};
      });
  std::map<dram::Manufacturer, std::vector<double>> per_vendor;
  for (auto& [mfr, norm] : rows) {
    auto& bucket = per_vendor[mfr];
    bucket.insert(bucket.end(), norm.begin(), norm.end());
  }

  for (const auto& [mfr, values] : per_vendor) {
    if (values.empty()) continue;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    std::printf("\n%s: %zu rows, normalized BER range [%.3f, %.3f]\n",
                dram::manufacturer_name(mfr), values.size(), *lo, *hi);
    const auto kde = stats::gaussian_kde(values, 0.2, 1.3, 23);
    for (const auto& pt : kde) {
      const int bar = static_cast<int>(pt.density * 12.0);
      std::printf("  %5.2f %8.4f %s\n", pt.x, pt.density,
                  std::string(static_cast<std::size_t>(std::max(bar, 0)), '#')
                      .c_str());
    }
  }
  std::printf(
      "\nPaper ranges: A 0.43-1.11, B 0.33-1.03, C 0.74-0.94 (Obsv. 3)\n");
  return 0;
}
