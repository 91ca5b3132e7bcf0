// Layer-by-layer replays of single grid cells for traced runs.
//
// A cell the engine computed (one sampled row at one grid point) is
// re-run one layer at a time, each through that layer's public calls:
//
//   harness   the algorithm's test_row on a freshly set-up session;
//   harness   the same algorithm driven call by call (measure_ber,
//             is_faulty), which must reproduce test_row's result;
//   softmc    each of those calls rebuilt as RowOps programs and run with
//             Session::execute, which must reproduce the call's result;
//   dram      each program's commands sent straight to a twin
//             dram::Module, whose reads must equal the session's.
//
// Every level keys its noise stream exactly as the engine does, so each
// replay is bit-identical to the call it decomposes; any difference is
// reported as a correctness failure.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "harness/retention_test.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/trcd_test.hpp"

namespace vppbench {

/// Counts gathered across replays (the dram-layer tallies the spans lack).
struct ReplayStats {
  std::uint64_t cells = 0;
  std::uint64_t flips = 0;         ///< twin-device flips and read errors
  std::uint64_t column_ops = 0;    ///< Module::read/write calls
  double column_s = 0.0;           ///< time inside those calls
};

struct ReplayContext {
  Tracer& tracer;
  Report& report;
  ReplayStats& stats;
};

void replay_hammer_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                        const dram::ModuleProfile& profile,
                        const core::AxisPoint& point,
                        const harness::RowHammerRowResult& expected,
                        Tracer::Id parent);

void replay_trcd_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                      const dram::ModuleProfile& profile,
                      const core::AxisPoint& point,
                      const harness::TrcdRowResult& expected,
                      Tracer::Id parent);

void replay_retention_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                           const dram::ModuleProfile& profile,
                           const core::AxisPoint& point,
                           const harness::RetentionRowResult& expected,
                           Tracer::Id parent);

/// The WCDP prep of one module replayed row by row (find_wcdp_hammer on one
/// session keyed like core::run_wcdp_prep); must equal `expected`.
void replay_wcdp(ReplayContext& ctx, const core::CampaignPlan& plan,
                 const dram::ModuleProfile& profile,
                 const std::vector<std::uint32_t>& rows,
                 const std::vector<dram::DataPattern>& expected,
                 Tracer::Id parent);

}  // namespace vppbench
