// VPP explorer: section 8's "Finding Optimal Wordline Voltage". Sweeps a
// module across its usable VPP range and prints the full trade-off surface
// -- RowHammer resistance vs activation latency vs retention -- then picks
// an operating point for two different system policies.
//
// Usage: ./build/examples/vpp_explorer [module-name]   (default: C0)
#include <cstdio>
#include <string>
#include <utility>

#include "chips/module_db.hpp"
#include "common/units.hpp"
#include "core/campaign.hpp"

int main(int argc, char** argv) {
  using namespace vppstudy;
  const std::string name = argc > 1 ? argv[1] : "C0";
  const auto profile = chips::profile_by_name(name);
  if (!profile) {
    std::fprintf(stderr, "unknown module '%s' (try A0..C9)\n", name.c_str());
    return 1;
  }

  core::SweepConfig cfg = core::SweepConfig::quick();
  cfg.vpp_levels.clear();
  for (double v = 2.5; v >= profile->vppmin_v - 1e-9; v -= 0.1) {
    cfg.vpp_levels.push_back(v);
  }
  cfg.sampling.chunks = 2;
  cfg.sampling.rows_per_chunk = 6;

  core::CampaignPlan plan;
  plan.sweep = cfg;
  plan.modules = {*profile};
  core::CampaignEngine engine(std::move(plan));
  auto hammer_grids = engine.run_hammer();
  auto trcd_grids = engine.run_trcd();
  if (!hammer_grids || !trcd_grids) {
    std::fprintf(stderr, "sweep failed\n");
    return 1;
  }
  const core::ModuleSweepResult hammer = hammer_grids->front().to_sweep();
  const core::TrcdSweepResult trcd = trcd_grids->front().to_sweep();

  std::printf("module %s: trade-off surface (VPPmin %.1fV)\n", name.c_str(),
              profile->vppmin_v);
  std::printf("%-8s %12s %12s %12s %10s\n", "VPP[V]", "minHCfirst",
              "maxBER@300K", "tRCDmin[ns]", "guardband");
  for (std::size_t l = 0; l < hammer.vpp_levels.size(); ++l) {
    const double gb = common::kNominalTrcdNs - trcd.trcd_min_ns[l];
    std::printf("%-8.1f %12llu %12.3e %12.1f %9.1f%%\n",
                hammer.vpp_levels[l],
                static_cast<unsigned long long>(hammer.min_hc_first_at(l)),
                hammer.max_ber_at(l), trcd.trcd_min_ns[l],
                100.0 * gb / common::kNominalTrcdNs);
  }

  // Policy 1 (security-critical): lowest VPP whose tRCDmin still fits the
  // nominal timing -- maximal RowHammer resistance at zero latency cost.
  // Policy 2 (performance-critical): nominal VPP.
  double secure_vpp = 2.5;
  std::uint64_t secure_hc = hammer.min_hc_first_at(0);
  for (std::size_t l = 0; l < hammer.vpp_levels.size(); ++l) {
    if (trcd.trcd_min_ns[l] <= common::kNominalTrcdNs &&
        hammer.min_hc_first_at(l) >= secure_hc) {
      secure_vpp = hammer.vpp_levels[l];
      secure_hc = hammer.min_hc_first_at(l);
    }
  }
  std::printf(
      "\nsecurity-critical policy: run at VPP=%.1fV (HCfirst %llu, nominal "
      "timing preserved)\n",
      secure_vpp, static_cast<unsigned long long>(secure_hc));
  std::printf("performance-critical policy: stay at 2.5V\n");
  std::printf("Table 3's recommended VPP for %s: %.1fV\n", name.c_str(),
              chips::recommended_vpp(*profile));
  return 0;
}
