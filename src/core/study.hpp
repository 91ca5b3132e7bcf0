// The sweep vocabulary of the paper's characterization campaigns: the VPP
// grid and row sampling (SweepConfig), the per-module result structs that
// core::CampaignEngine grids reduce to (HammerGrid::to_sweep() and friends in
// core/campaign.hpp), and the aggregate observations of sections 5 and 6.
//
// Quickstart:
//   core::CampaignPlan plan;
//   plan.sweep = core::SweepConfig::quick();
//   plan.modules = {chips::profile_by_name("B3").value()};
//   auto grids = core::CampaignEngine(std::move(plan)).run_hammer();
//   const core::ModuleSweepResult sweep = grids->front().to_sweep();
//   auto obs = core::aggregate_observations({&sweep, 1});
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "harness/experiment.hpp"
#include "harness/retention_test.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/trcd_test.hpp"
#include "softmc/counters.hpp"
#include "softmc/session.hpp"

namespace vppstudy::core {

/// VPP levels and row sampling for one characterization campaign.
struct SweepConfig {
  /// Voltages to test, highest first. Levels below the module's VPPmin are
  /// skipped automatically (the module stops responding there, section 7).
  std::vector<double> vpp_levels;
  harness::RowSampling sampling;
  harness::RowHammerConfig hammer;
  harness::TrcdConfig trcd;
  harness::RetentionConfig retention;
  bool determine_wcdp = true;  ///< per-row WCDP at nominal VPP (section 4.1)

  /// The paper's full grid: 2.5V down to 1.4V in 0.1V steps.
  [[nodiscard]] static SweepConfig paper();
  /// A reduced grid + small row sample that runs in seconds (for tests,
  /// examples, and bench defaults; benches report the sample size).
  [[nodiscard]] static SweepConfig quick();
};

/// Fold every result-affecting field of `sweep` except its VPP levels into
/// the running hash `h` (common::hash_accumulate, one word per field) and
/// return the new hash. CampaignPlan::digest and the vppd cache key
/// (server::ResultCache::config_digest) both fold this one list, so a new
/// field reaches both. The order is part of every persisted plan hash.
[[nodiscard]] std::uint64_t fold_sweep_fields(
    std::uint64_t h, const SweepConfig& sweep) noexcept;

/// The subset of `config.vpp_levels` a module can actually run: levels below
/// the module's VPPmin are dropped (the module stops responding, section 7).
[[nodiscard]] std::vector<double> usable_vpp_levels(const SweepConfig& config,
                                                    double vppmin_v);

/// Aggregated rig instrumentation for one sweep: the per-session command
/// counts of every job that contributed, summed. Integer sums are
/// order-independent, so the aggregate is identical at any --jobs count even
/// though jobs complete in scheduler order.
struct SweepInstrumentation {
  std::uint64_t jobs = 0;  ///< rig sessions that contributed
  /// Retry accounting (CampaignEngine::run_resilient): job attempts re-run
  /// after a transient failure, and modules given up on after the budget.
  /// Plain sweeps leave both at zero.
  std::uint64_t retries = 0;
  std::uint64_t quarantined_modules = 0;
  softmc::CommandCounts counts;

  void add_job(const softmc::CommandCounts& job_counts) {
    ++jobs;
    counts += job_counts;
  }
  SweepInstrumentation& operator+=(const SweepInstrumentation& other) {
    jobs += other.jobs;
    retries += other.retries;
    quarantined_modules += other.quarantined_modules;
    counts += other.counts;
    return *this;
  }
  friend bool operator==(const SweepInstrumentation&,
                         const SweepInstrumentation&) = default;
  /// "12 jobs: ACT=... hammerACT=... RD=... ..." (see CommandCounts).
  [[nodiscard]] std::string summary() const;
};

/// One row's metric across the tested VPP levels.
struct RowSeries {
  std::uint32_t row = 0;
  dram::DataPattern wcdp = dram::DataPattern::kCheckerAA;
  std::vector<std::uint64_t> hc_first;  ///< parallel to vpp_levels
  std::vector<double> ber;
};

struct ModuleSweepResult {
  std::string module_name;
  dram::Manufacturer mfr = dram::Manufacturer::kMfrA;
  double vppmin_v = 0.0;
  std::vector<double> vpp_levels;  ///< actually tested (>= VPPmin)
  std::vector<RowSeries> rows;
  /// Summed command counts of every rig session this sweep ran (WCDP prep
  /// plus one job per VPP level).
  SweepInstrumentation instrumentation;

  /// Index of a VPP level, or -1.
  [[nodiscard]] int level_index(double vpp_v) const noexcept;
  /// Module-level metric at a level: min HCfirst / max BER across rows (the
  /// paper's Table 3 semantics).
  [[nodiscard]] std::uint64_t min_hc_first_at(std::size_t level) const;
  [[nodiscard]] double max_ber_at(std::size_t level) const;
  /// Per-row normalized values (vs the nominal level 0).
  [[nodiscard]] std::vector<double> normalized_hc_first_at(
      std::size_t level) const;
  [[nodiscard]] std::vector<double> normalized_ber_at(std::size_t level) const;
};

/// tRCD sweep output (Fig. 7).
struct TrcdSweepResult {
  std::string module_name;
  double vppmin_v = 0.0;
  std::vector<double> vpp_levels;
  /// Module tRCDmin (max across sampled rows) per level.
  std::vector<double> trcd_min_ns;
  SweepInstrumentation instrumentation;
};

/// Retention sweep output (Fig. 10).
struct RetentionSweepResult {
  std::string module_name;
  dram::Manufacturer mfr = dram::Manufacturer::kMfrA;
  std::vector<double> vpp_levels;
  std::vector<double> trefw_ms;
  /// mean_ber[level][window] across sampled rows.
  std::vector<std::vector<double>> mean_ber;
  /// Per-row BER at a reference window (Fig. 10b), parallel to vpp_levels.
  std::vector<std::vector<double>> row_ber_at_reference;
  double reference_trefw_ms = 4000.0;
  SweepInstrumentation instrumentation;
};

/// The headline aggregates of sections 5 and 8 (Takeaway 1).
struct Observations {
  double mean_hc_first_increase = 0.0;  ///< fractional, at VPPmin (paper: 0.074)
  double max_hc_first_increase = 0.0;   ///< paper: 0.858
  double mean_ber_reduction = 0.0;      ///< paper: 0.152
  double max_ber_reduction = 0.0;       ///< paper: 0.669
  double fraction_rows_hc_increase = 0.0;   ///< paper: 0.693
  double fraction_rows_hc_decrease = 0.0;   ///< paper: 0.142
  double fraction_rows_ber_decrease = 0.0;  ///< paper: 0.812
  double fraction_rows_ber_increase = 0.0;  ///< paper: 0.154
};

[[nodiscard]] Observations aggregate_observations(
    std::span<const ModuleSweepResult> sweeps);

}  // namespace vppstudy::core
