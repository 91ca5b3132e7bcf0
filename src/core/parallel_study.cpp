#include "core/parallel_study.hpp"

#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/mapping.hpp"
#include "harness/wcdp.hpp"
#include "softmc/session.hpp"

namespace vppstudy::core {

std::uint64_t vpp_millivolts(double vpp_v) noexcept {
  return static_cast<std::uint64_t>(std::llround(vpp_v * 1000.0));
}

std::uint64_t job_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                              std::uint64_t vpp_mv, JobPhase phase) noexcept {
  return common::hash_key(
      {seed, module_seed, vpp_mv, static_cast<std::uint64_t>(phase)});
}

std::uint64_t row_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                              std::uint64_t vpp_mv, JobPhase phase,
                              std::uint32_t row) noexcept {
  return common::hash_key({seed, module_seed, vpp_mv,
                           static_cast<std::uint64_t>(phase), row});
}

common::Status setup_shard_session(softmc::Session& session, double temp_c,
                                   double vpp_v) {
  session.set_auto_refresh(false);
  if (auto st = session.set_temperature(temp_c); !st.ok()) return st;
  return session.set_vpp(vpp_v);
}

std::vector<std::uint32_t> sample_campaign_rows(
    const dram::ModuleProfile& profile, const harness::RowSampling& sampling) {
  // RowSampling only consults the logical->physical mapping, which is a pure
  // function of the profile (dram::Module builds its own mapping from the
  // same three fields) -- no device needed.
  const dram::RowMapping mapping(dram::scheme_for(profile.mfr),
                                 profile.rows_per_bank, profile.row_repairs);
  return sampling.sample(mapping);
}

common::Expected<WcdpPrep> run_wcdp_prep(softmc::Session& session,
                                         const SweepConfig& sweep,
                                         std::uint64_t seed,
                                         double nominal_vpp,
                                         std::span<const std::uint32_t> rows) {
  const dram::ModuleProfile& profile = session.module().profile();
  if (auto st = setup_shard_session(session, common::kHammerTestTempC,
                                    nominal_vpp);
      !st.ok()) {
    return std::move(st).error().with_module(profile.name).with_context(
        "wcdp job setup");
  }
  session.set_noise_stream(job_stream_seed(seed, profile.seed,
                                           vpp_millivolts(nominal_vpp),
                                           JobPhase::kWcdp));
  WcdpPrep prep;
  if (sweep.determine_wcdp) {
    auto wcdp =
        harness::find_wcdp_hammer_rows(session, sweep.sampling.bank, rows);
    if (!wcdp) {
      return std::move(wcdp).error().with_module(profile.name).with_context(
          "wcdp determination");
    }
    prep.wcdp = std::move(*wcdp);
  } else {
    prep.wcdp.assign(rows.size(), dram::DataPattern::kCheckerAA);
  }
  prep.counts = session.counters();
  return prep;
}

}  // namespace vppstudy::core
