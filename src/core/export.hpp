// CSV exporters for sweep results, so downstream plotting (Fig. 3/5/7/10
// style) can consume the data without linking the library, plus the JSON
// instrumentation sidecar written next to each CSV series.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"
#include "core/study.hpp"

namespace vppstudy::core {

// --- Multi-axis grid exports -------------------------------------------------
// One row per (grid point, DRAM row) with every axis coordinate spelled out:
// temperature_c is resolved to the value the rig programmed (the phase
// default when the point left it unset); hammer_count and act_to_act_ns are
// 0 when the sweep default applied. The JSON forms are the deterministic
// "*_grid" result kinds the vppd daemon returns for multi-axis sweeps.

[[nodiscard]] common::CsvWriter grid_csv(const HammerGrid& grid);
[[nodiscard]] common::CsvWriter grid_csv(const TrcdGrid& grid);
[[nodiscard]] common::CsvWriter grid_csv(const RetentionGrid& grid);

[[nodiscard]] common::JsonWriter grid_json(const HammerGrid& grid);
[[nodiscard]] common::JsonWriter grid_json(const TrcdGrid& grid);
[[nodiscard]] common::JsonWriter grid_json(const RetentionGrid& grid);

/// One row per (DRAM row, VPP level): module, row, wcdp, vpp, hc_first, ber.
[[nodiscard]] common::CsvWriter to_csv(const ModuleSweepResult& sweep);

/// One row per VPP level: module, vpp, trcd_min_ns.
[[nodiscard]] common::CsvWriter to_csv(const TrcdSweepResult& sweep);

/// One row per (VPP level, refresh window): module, vpp, trefw_ms, mean_ber.
[[nodiscard]] common::CsvWriter to_csv(const RetentionSweepResult& sweep);

/// Partial-result export of a resilient campaign. Completed modules emit
/// one row per (DRAM row, VPP level) with status "completed"; quarantined
/// modules emit a single marker row with status "quarantined", the typed
/// error code, and the attempt count, so downstream consumers can tell a
/// missing point from a never-measured one.
[[nodiscard]] common::CsvWriter campaign_to_csv(const CampaignResult& campaign);

/// The campaign as a JSON document: per-module status, attempts, typed
/// error codes, injection tallies, retry/quarantine accounting, and the
/// cross-module HCfirst CV over completed modules.
[[nodiscard]] common::JsonWriter campaign_json(const CampaignResult& campaign);

/// A sweep's rig instrumentation as a JSON document: sweep kind, module,
/// tested VPP levels, and the aggregated per-sweep command counts. Written
/// as the `<csv>.json` sidecar next to every exported CSV series so plotting
/// pipelines can sanity-check the command stream that produced the data.
[[nodiscard]] common::JsonWriter instrumentation_json(
    std::string_view sweep_kind, std::string_view module_name,
    std::span<const double> vpp_levels, const SweepInstrumentation& instr);

/// Convenience overloads binding kind/module/levels from the result type.
[[nodiscard]] common::JsonWriter instrumentation_json(
    const ModuleSweepResult& sweep);
[[nodiscard]] common::JsonWriter instrumentation_json(
    const TrcdSweepResult& sweep);
[[nodiscard]] common::JsonWriter instrumentation_json(
    const RetentionSweepResult& sweep);

/// Write a sweep's instrumentation sidecar next to its CSV: the sidecar path
/// is `csv_path + ".json"`. Returns false on I/O failure.
[[nodiscard]] bool write_instrumentation_sidecar(const std::string& csv_path,
                                                 const common::JsonWriter& doc);

}  // namespace vppstudy::core
