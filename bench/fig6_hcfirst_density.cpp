// Fig. 6: population density of per-row normalized HCfirst at VPPmin, per
// manufacturer. Paper ranges: A 0.94-1.52, B 0.92-1.86, C 0.91-1.35;
// fraction of rows with an HCfirst increase: 50.9% (A) .. 83.5% (C).
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "stats/descriptive.hpp"
#include "stats/inference.hpp"
#include "stats/kde.hpp"

int main(int argc, char** argv) {
  using namespace vppstudy;
  auto opt = bench::options_from_args(argc, argv);
  opt.vpp_step = 1.1;
  bench::print_scale_banner("Fig. 6: normalized HCfirst density at VPPmin",
                            opt);

  const auto cfg = bench::sweep_config(opt);
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
            sweep->normalized_hc_first_at(sweep->vpp_levels.size() - 1)};
      });
  std::map<dram::Manufacturer, std::vector<double>> per_vendor;
  for (auto& [mfr, norm] : rows) {
    auto& bucket = per_vendor[mfr];
    bucket.insert(bucket.end(), norm.begin(), norm.end());
  }

  for (const auto& [mfr, values] : per_vendor) {
    if (values.empty()) continue;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    const double frac_up = stats::fraction_above(values, 1.0);
    std::printf(
        "\n%s: %zu rows, normalized HCfirst range [%.3f, %.3f], "
        "%.1f%% of rows increase\n",
        dram::manufacturer_name(mfr), values.size(), *lo, *hi,
        100.0 * frac_up);
    const auto kde = stats::gaussian_kde(values, 0.7, 2.0, 27);
    for (const auto& pt : kde) {
      const int bar = static_cast<int>(pt.density * 12.0);
      std::printf("  %5.2f %8.4f %s\n", pt.x, pt.density,
                  std::string(static_cast<std::size_t>(std::max(bar, 0)), '#')
                      .c_str());
    }
  }
  std::printf(
      "\nPaper: ranges A 0.94-1.52, B 0.92-1.86, C 0.91-1.35; increase "
      "fractions A 50.9%%, C 83.5%% (Obsv. 6)\n");

  // Obsv. 6's vendor contrast, tested formally: is Mfr. C's normalized
  // HCfirst population shifted above Mfr. A's?
  const auto a_it = per_vendor.find(dram::Manufacturer::kMfrA);
  const auto c_it = per_vendor.find(dram::Manufacturer::kMfrC);
  if (a_it != per_vendor.end() && c_it != per_vendor.end() &&
      !a_it->second.empty() && !c_it->second.empty()) {
    const auto mw = stats::mann_whitney_u(c_it->second, a_it->second);
    const auto ci_a = stats::bootstrap_mean_ci(a_it->second, 0.90);
    const auto ci_c = stats::bootstrap_mean_ci(c_it->second, 0.90);
    std::printf(
        "Mann-Whitney C vs A: effect=%.2f, p=%.2g; 90%% bootstrap mean CIs "
        "A [%.3f, %.3f], C [%.3f, %.3f]\n",
        mw.effect, mw.p_two_sided, ci_a.lower, ci_a.upper, ci_c.lower,
        ci_c.upper);
  }
  return 0;
}
