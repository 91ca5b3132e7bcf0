// Wire protocol of the vppd characterization daemon.
//
// Transport: length-prefixed JSON frames over a loopback TCP stream. A
// frame is a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 JSON. Frames above kMaxFrameBytes are rejected with a typed
// kFrameTooLarge error before any payload is read; the declared length is
// the only trust decision the framing layer makes.
//
// Requests are objects {"id": N, "type": "...", ...}; a client may pipeline
// requests and responses carry the id they answer, so completion order is
// free. Responses are {"id": N, "ok": true, "result": {...}, "stats": {...}}
// or {"id": N, "ok": false, "error": {"code": "kQueueFull", "message": ...}}.
// The "result" member is a deterministic serialization: two requests for the
// same work produce byte-identical "result" text whether served from the
// cache or computed fresh (asserted by tests/server/).
//
// Request types: ping, stats, sweep, inject, replay, cancel, shutdown,
// plus the campaign distribution verbs campaign_open, lease, submit and
// heartbeat (see DESIGN.md sections 9 and 11 for field tables).
#pragma once

#include <cstdint>
#include <string>

#include "common/expected.hpp"
#include "common/json.hpp"
#include "common/socket.hpp"
#include "core/campaign.hpp"
#include "core/study.hpp"

namespace vppstudy::server {

/// Frames above this are refused (kFrameTooLarge): large enough for any
/// full-grid sweep response, small enough that a hostile length prefix
/// cannot make the daemon allocate unbounded memory.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Write one frame (length prefix + payload).
[[nodiscard]] common::Status write_frame(const common::Socket& socket,
                                         std::string_view payload);

/// Read one frame into `payload`. Returns false on a clean close at a frame
/// boundary; kFrameTooLarge when the declared length exceeds kMaxFrameBytes
/// (nothing further is read -- the connection cannot be resynced);
/// kIoError when the peer vanishes mid-frame.
[[nodiscard]] common::Result<bool> read_frame(const common::Socket& socket,
                                              std::string& payload);

// --- Requests ----------------------------------------------------------------

/// A sweep request mirrors the `vppctl sweep` flag surface; the client and
/// the daemon both expand it through sweep_config_from_request so a remote
/// sweep is configured exactly like a local one.
struct SweepRequest {
  std::string module = "B3";
  std::string test = "rowhammer";  ///< rowhammer | trcd | retention
  std::uint32_t rows = 16;
  double step = 0.2;
  std::uint64_t seed = 0;
  /// Optional temperature axis (core::CampaignAxes::temperatures_c). Empty
  /// runs the phase-default temperature and the response is the legacy
  /// per-test result kind; non-empty selects the multi-axis engine path and
  /// a "*_grid" result kind. Encoded on the wire only when non-empty, so
  /// requests without the axis are byte-identical to older clients'.
  std::vector<double> temps;
  /// Optional pattern axis (core::CampaignAxes::patterns; rowhammer only).
  /// Every spec must pass PatternSpec::validate. Like temps, encoded on the
  /// wire only when non-empty so pattern-free requests are byte-identical
  /// to older clients'.
  std::vector<harness::PatternSpec> patterns;
};

/// Expand a SweepRequest into the engine's SweepConfig. VPP levels are
/// quantized to the rig supply's millivolt grid so that any arithmetic
/// producing the same level (e.g. step 0.2 twice vs 0.4 once) yields the
/// same double -- the daemon's cache keys levels by millivolt, and the
/// physics must agree with the key.
[[nodiscard]] core::SweepConfig sweep_config_from_request(
    const SweepRequest& request);

/// An inject request mirrors `vppctl inject`.
struct InjectRequest {
  std::string faults = "seed=1";
  std::vector<std::string> modules = {"B3"};
  std::uint32_t rows = 8;
  std::uint32_t retries = 3;
  std::uint64_t seed = 1;
  std::uint64_t trace_cap = 4096;
};

/// Encoders used by the client (and tests).
[[nodiscard]] std::string encode_ping_request(std::uint64_t id);
[[nodiscard]] std::string encode_stats_request(std::uint64_t id);
[[nodiscard]] std::string encode_shutdown_request(std::uint64_t id);
[[nodiscard]] std::string encode_cancel_request(std::uint64_t id,
                                                std::uint64_t target);
[[nodiscard]] std::string encode_sweep_request(std::uint64_t id,
                                               const SweepRequest& request);
[[nodiscard]] std::string encode_inject_request(std::uint64_t id,
                                                const InjectRequest& request);
/// `dump_json` is the raw text of a trace dump file (vppctl inject
/// --dump-dir), shipped verbatim so the daemon replays exactly what the
/// client has on disk.
[[nodiscard]] std::string encode_replay_request(std::uint64_t id,
                                                const std::string& dump_json);

/// kInvalidArgument naming the first field out of range. The decoders below
/// and the in-process vppctl paths all call these, so a request is refused
/// with the same text locally and over --connect.
[[nodiscard]] common::Status validate(const SweepRequest& request);
[[nodiscard]] common::Status validate(const InjectRequest& request);

/// Decoders used by the daemon: the wire fields, then validate().
[[nodiscard]] common::Result<SweepRequest> parse_sweep_request(
    const common::JsonValue& body);
[[nodiscard]] common::Result<InjectRequest> parse_inject_request(
    const common::JsonValue& body);

// --- Campaign distribution ---------------------------------------------------
// The coordinator side of `vppctl campaign distribute`: a campaign is opened
// on the daemon (campaign_open ships a zero-shard manifest -- the full plan
// spec), then workers loop lease -> compute -> submit, with heartbeat
// extending a slow worker's leases. 64-bit hashes and fencing tokens travel
// as hex strings (core::u64_hex): the JSON DOM stores numbers as doubles,
// which would silently truncate values past 2^53.

/// A worker's request for a batch of open shards.
struct LeaseRequest {
  /// Which campaign: 0 addresses the daemon's sole open campaign (an error
  /// when none or several are open).
  std::uint64_t plan_hash = 0;
  std::string worker;
  std::uint64_t max_shards = 4;  ///< 0 = every open shard
  std::int64_t ttl_ms = 30000;
  /// Ship the campaign spec (zero-shard manifest) with the grant; a worker
  /// that connected with nothing but a port sets this on its first lease.
  bool need_plan = false;
};

/// A worker's completed shard batch, streamed back for the merge.
struct SubmitRequest {
  std::uint64_t plan_hash = 0;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  std::string worker;
  std::uint64_t token = 0;  ///< the fencing token the batch was leased under
  std::vector<core::ManifestWcdp> wcdp;
  std::vector<core::ManifestShard> shards;
};

struct HeartbeatRequest {
  std::uint64_t plan_hash = 0;
  std::uint64_t token = 0;
  std::int64_t ttl_ms = 30000;
};

/// The coordinator's answer to a lease request (result kind "lease").
struct LeaseGrant {
  core::JobPhase phase = core::JobPhase::kRowHammer;
  std::uint64_t plan_hash = 0;
  std::uint64_t token = 0;                ///< 0 when no shard was available
  std::vector<std::uint64_t> shards;      ///< canonical grid indices
  /// Every WCDP prep merged so far, shipped with each grant so a worker
  /// whose module was already prepped elsewhere seeds its memo instead of
  /// recomputing. Preps are deterministic, so a seeded worker produces the
  /// same rows it would have computed -- byte identity is unaffected.
  std::vector<core::ManifestWcdp> wcdp;
  std::uint64_t done = 0;
  std::uint64_t remaining = 0;
  bool complete = false;
  bool has_campaign = false;  ///< the spec rode along (need_plan)
  core::CampaignManifest campaign;
};

/// The coordinator's answer to a submit (result kind "submit").
struct SubmitOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t done = 0;
  std::uint64_t remaining = 0;
  bool complete = false;
};

/// `manifest_json` is the pre-rendered zero-shard manifest text, spliced
/// verbatim (the plan-spec analogue of the result splice below).
[[nodiscard]] std::string encode_campaign_open_request(
    std::uint64_t id, std::string_view manifest_json);
[[nodiscard]] std::string encode_lease_request(std::uint64_t id,
                                               const LeaseRequest& request);
[[nodiscard]] std::string encode_submit_request(std::uint64_t id,
                                                const SubmitRequest& request);
[[nodiscard]] std::string encode_heartbeat_request(
    std::uint64_t id, const HeartbeatRequest& request);

[[nodiscard]] common::Result<LeaseRequest> parse_lease_request(
    const common::JsonValue& body);
[[nodiscard]] common::Result<SubmitRequest> parse_submit_request(
    const common::JsonValue& body);
[[nodiscard]] common::Result<HeartbeatRequest> parse_heartbeat_request(
    const common::JsonValue& body);

/// Result-document encoders of the coordinator. `campaign_json` is the
/// cached zero-shard manifest text, spliced when non-empty (need_plan);
/// `grant.has_campaign`/`grant.campaign` are ignored here -- they are the
/// *parsed* view.
[[nodiscard]] std::string encode_lease_result(const LeaseGrant& grant,
                                              std::string_view campaign_json);
[[nodiscard]] std::string encode_submit_result(const SubmitOutcome& outcome);
[[nodiscard]] std::string encode_heartbeat_result(std::uint64_t renewed,
                                                  bool complete);

/// Worker-side decoders of the lease/submit result documents.
[[nodiscard]] common::Result<LeaseGrant> parse_lease_result(
    const common::JsonValue& result);
[[nodiscard]] common::Result<SubmitOutcome> parse_submit_result(
    const common::JsonValue& result);

// --- Responses ---------------------------------------------------------------

/// Per-request service accounting, reported in every successful response.
struct RequestStats {
  std::uint64_t cache_hits = 0;    ///< grid cells served from the cache
  std::uint64_t cache_misses = 0;  ///< grid cells computed for this request
};

[[nodiscard]] std::string encode_result_response(std::uint64_t id,
                                                 std::string_view result_json,
                                                 const RequestStats& stats);
[[nodiscard]] std::string encode_error_response(std::uint64_t id,
                                                const common::Error& error);

/// Turn a response document into the request's typed outcome: the raw
/// "result" text on ok, the decoded Error otherwise.
[[nodiscard]] common::Result<common::JsonValue> response_result(
    const common::JsonValue& response);

// --- Result serialization ----------------------------------------------------
// Deterministic, field-ordered encodings of the three sweep result kinds.
// Doubles are written with %.17g (common::JsonWriter), which round-trips
// exactly: a client reconstructing the struct from JSON and re-rendering a
// CSV gets the same bytes as the in-process path.

[[nodiscard]] std::string hammer_sweep_to_json(
    const core::ModuleSweepResult& sweep);
[[nodiscard]] std::string trcd_sweep_to_json(const core::TrcdSweepResult& sweep);
[[nodiscard]] std::string retention_sweep_to_json(
    const core::RetentionSweepResult& sweep);

[[nodiscard]] common::Result<core::ModuleSweepResult> hammer_sweep_from_json(
    const common::JsonValue& doc);
[[nodiscard]] common::Result<core::TrcdSweepResult> trcd_sweep_from_json(
    const common::JsonValue& doc);
[[nodiscard]] common::Result<core::RetentionSweepResult>
retention_sweep_from_json(const common::JsonValue& doc);

}  // namespace vppstudy::server
