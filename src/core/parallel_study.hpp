// Shard-level building blocks of the deterministic sweep engine.
//
// A characterization campaign (Figs. 3-11) is an embarrassingly parallel grid
// of (module, grid point) cells, and each cell is itself a loop over sampled
// rows whose results never interact (per-row physics snapshots, see
// dram/module.hpp). core::CampaignEngine (core/campaign.hpp) cuts those cells
// into row-range *shards* -- CampaignPlan::rows_per_shard rows per job --
// runs them on a work-stealing pool (common/thread_pool), and reassembles the
// per-module results in a fixed order. The functions below compute one shard
// on a caller-provided session; the engine, the vppd service and distributed
// workers all compose campaigns from them.
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

#include "common/cancel.hpp"
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
// CampaignEngine and the vppd characterization service both compose
// campaigns from these: one function call computes one row-range slice of a
// (module, VPP level) grid cell on a caller-provided session, with every
// random quantity keyed per row (row_stream_seed). Because results are pure
// functions of the row keys, a caller may regroup rows into any slices --
// the vppd cache computes exactly the uncovered rows of a request and the
// output is bit-identical to a full in-process sweep.

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

/// One row-range slice of a (module, VPP level) RowHammer cell. `wcdp` is
/// parallel to `rows`. Polls `cancel` before each row.
struct HammerCell {
  std::vector<harness::RowHammerRowResult> rows;
  softmc::CommandCounts counts;
};

/// `point` is the cell's grid point (VPP x temperature x hammer count x
/// on-time) and must be normalized (AxisPoint::normalized); a baseline point
/// `AxisPoint{vpp_v}` is the paper's VPP-only cell.
[[nodiscard]] common::Expected<HammerCell> run_hammer_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, std::span<const std::uint32_t> rows,
    std::span<const dram::DataPattern> wcdp,
    const common::CancelToken& cancel = {});

/// Non-uniform pattern form of the hammer shard: each sampled row is the
/// victim of one harness::AttackKind::kFuzzed attack running `spec`, scored
/// by post-TRR flips. Result shape reuses RowHammerRowResult so manifests,
/// caches, and grids carry pattern cells unchanged: hc_first holds the
/// post-TRR flip count across the pattern's victim set (the fuzzer's
/// fitness), ber the corresponding bit error rate. `point.pattern_hash` must
/// equal spec.spec_hash(). Because the pattern path issues REF (TRR acts),
/// the session is fully reset per row -- results stay pure functions of the
/// row keys and shard regrouping stays byte-identical.
[[nodiscard]] common::Expected<HammerCell> run_pattern_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, const harness::PatternSpec& spec,
    std::span<const std::uint32_t> rows,
    std::span<const dram::DataPattern> wcdp,
    const common::CancelToken& cancel = {});

/// One row-range slice of a (module, VPP level) tRCD cell (Alg. 2).
struct TrcdCell {
  std::vector<harness::TrcdRowResult> rows;
  softmc::CommandCounts counts;
};

/// tRCD varies over VPP x temperature and ignores the hammer axes.
[[nodiscard]] common::Expected<TrcdCell> run_trcd_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, std::span<const std::uint32_t> rows,
    const common::CancelToken& cancel = {});

/// One row-range slice of a (module, VPP level) retention cell (Alg. 3).
struct RetentionCell {
  std::vector<harness::RetentionRowResult> rows;
  softmc::CommandCounts counts;
};

/// Retention varies over VPP x temperature and ignores the hammer axes.
[[nodiscard]] common::Expected<RetentionCell> run_retention_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, std::span<const std::uint32_t> rows,
    const common::CancelToken& cancel = {});

}  // namespace vppstudy::core
