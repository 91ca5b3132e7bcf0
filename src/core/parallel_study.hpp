// Shard-level building blocks of the deterministic sweep engine.
//
// A characterization campaign (Figs. 3-11) is an embarrassingly parallel grid
// of (module, grid point) cells, and each cell is itself a loop over sampled
// rows whose results never interact (per-row physics snapshots, see
// dram/module.hpp). core::CampaignEngine (core/campaign.hpp) cuts those cells
// into row-range *shards* -- CampaignPlan::rows_per_shard rows per job --
// runs them on a work-stealing pool (common/thread_pool), and reassembles the
// per-module results in a fixed order. Every shard of Algs. 1-3 runs through
// the engine's one per-row loop (core/campaign_engine.cpp); this header holds
// what that loop, the WCDP prep pass, the vppd service and the distributed
// workers share: the stream-seed derivations, the row sampler, the session
// setup every shard starts from, and the prep pass itself.
//
// Determinism: every sampled row derives a private noise stream from
//   hash_key({seed, module seed, VPP in millivolts, phase tag, row})
// (point_stream_seed in core/axis.hpp extends the key with the extra axes),
// and the shard re-keys its session before testing that row, so a row's
// output is a pure function of its key -- never of scheduling, shard
// granularity, or session reuse.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/expected.hpp"
#include "core/axis.hpp"
#include "core/study.hpp"
#include "dram/profile.hpp"

namespace vppstudy::softmc {
class Session;
}  // namespace vppstudy::softmc

namespace vppstudy::core {

// JobPhase and the multi-axis AxisPoint vocabulary live in core/axis.hpp.

/// VPP level quantized to the millivolt grid of the rig's supply (stable
/// against floating-point drift in level arithmetic).
[[nodiscard]] std::uint64_t vpp_millivolts(double vpp_v) noexcept;

/// Stream seed of a whole-cell job: the WCDP prep pass, which walks all of a
/// module's rows in one session, keys its noise with this.
[[nodiscard]] std::uint64_t job_stream_seed(std::uint64_t seed,
                                            std::uint64_t module_seed,
                                            std::uint64_t vpp_mv,
                                            JobPhase phase) noexcept;

/// Stream seed of one sampled row within a cell (see file header). Keying
/// per row -- not per shard -- is what makes `rows_per_shard` a pure
/// performance knob.
[[nodiscard]] std::uint64_t row_stream_seed(std::uint64_t seed,
                                            std::uint64_t module_seed,
                                            std::uint64_t vpp_mv,
                                            JobPhase phase,
                                            std::uint32_t row) noexcept;

// --- Shard-level building blocks ---------------------------------------------
// Because every random quantity is keyed per row (row_stream_seed), results
// are pure functions of the row keys and a caller may regroup rows into any
// slices -- the vppd cache computes exactly the uncovered rows of a request
// and the output is bit-identical to a full in-process sweep.

/// Bring a checked-out session to the state every characterization shard
/// starts from: refresh disabled (which also neutralizes TRR, section 4.1),
/// temperature settled, VPP programmed. Noise streams are keyed per row by
/// the shard loop itself.
[[nodiscard]] common::Status setup_shard_session(softmc::Session& session,
                                                double temp_c, double vpp_v);

/// Concrete row addresses a campaign samples on `profile`: a pure function
/// of (profile, sampling) that needs no device, so servers and cache-key
/// derivation can call it cheaply.
[[nodiscard]] std::vector<std::uint32_t> sample_campaign_rows(
    const dram::ModuleProfile& profile, const harness::RowSampling& sampling);

/// Output of the per-module WCDP determination pass (phase A of the
/// RowHammer campaign, section 4.1): the worst-case data pattern of each
/// sampled row at nominal VPP, parallel to the input rows.
struct WcdpPrep {
  std::vector<dram::DataPattern> wcdp;
  softmc::CommandCounts counts;  ///< the prep session's instrumentation
};

[[nodiscard]] common::Expected<WcdpPrep> run_wcdp_prep(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    double nominal_vpp, std::span<const std::uint32_t> rows);

}  // namespace vppstudy::core
