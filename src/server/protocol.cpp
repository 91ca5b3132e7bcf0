#include "server/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;
using common::JsonValue;
using common::JsonWriter;

common::Status write_frame(const common::Socket& socket,
                           std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Error{ErrorCode::kFrameTooLarge,
                 "outgoing frame of " + std::to_string(payload.size()) +
                     " bytes exceeds cap"};
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>((len >> 24) & 0xFF),
      static_cast<unsigned char>((len >> 16) & 0xFF),
      static_cast<unsigned char>((len >> 8) & 0xFF),
      static_cast<unsigned char>(len & 0xFF),
  };
  if (auto st = socket.send_all(prefix, sizeof(prefix)); !st.ok()) return st;
  return socket.send_all(payload.data(), payload.size());
}

common::Result<bool> read_frame(const common::Socket& socket,
                                std::string& payload) {
  unsigned char prefix[4];
  bool clean_eof = false;
  if (auto st = socket.recv_exact(prefix, sizeof(prefix), &clean_eof);
      !st.ok()) {
    return std::move(st).error().with_context("frame length prefix");
  }
  if (clean_eof) return false;
  const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                            (static_cast<std::uint32_t>(prefix[1]) << 16) |
                            (static_cast<std::uint32_t>(prefix[2]) << 8) |
                            static_cast<std::uint32_t>(prefix[3]);
  if (len > kMaxFrameBytes) {
    return Error{ErrorCode::kFrameTooLarge,
                 "frame declares " + std::to_string(len) +
                     " bytes (cap " + std::to_string(kMaxFrameBytes) + ")"};
  }
  payload.resize(len);
  if (len > 0) {
    if (auto st = socket.recv_exact(payload.data(), len); !st.ok()) {
      return std::move(st).error().with_context("frame payload");
    }
  }
  return true;
}

core::SweepConfig sweep_config_from_request(const SweepRequest& request) {
  core::SweepConfig cfg = core::SweepConfig::quick();
  cfg.vpp_levels.clear();
  const double step = request.step > 0.0 ? request.step : 0.2;
  for (double v = 2.5; v >= 1.4 - 1e-9; v -= step) {
    // Quantize to the rig supply's mV grid: the cache keys cells by
    // millivolt, so the physics must see the exact double the key names
    // regardless of how the level was computed.
    cfg.vpp_levels.push_back(
        static_cast<double>(std::llround(v * 1000.0)) / 1000.0);
  }
  cfg.sampling.chunks = 4;
  cfg.sampling.rows_per_chunk = std::max(1u, request.rows / 4);
  return cfg;
}

// --- Request encoding --------------------------------------------------------

namespace {

JsonWriter request_header(std::uint64_t id, std::string_view type) {
  JsonWriter w;
  w.begin_object().kv("id", id).kv("type", type);
  return w;
}

std::string close_object(JsonWriter&& w) {
  w.end_object();
  return w.str();
}

}  // namespace

std::string encode_ping_request(std::uint64_t id) {
  return close_object(request_header(id, "ping"));
}

std::string encode_stats_request(std::uint64_t id) {
  return close_object(request_header(id, "stats"));
}

std::string encode_shutdown_request(std::uint64_t id) {
  return close_object(request_header(id, "shutdown"));
}

std::string encode_cancel_request(std::uint64_t id, std::uint64_t target) {
  JsonWriter w = request_header(id, "cancel");
  w.kv("target", target);
  return close_object(std::move(w));
}

std::string encode_sweep_request(std::uint64_t id,
                                 const SweepRequest& request) {
  JsonWriter w = request_header(id, "sweep");
  w.kv("module", request.module)
      .kv("test", request.test)
      .kv("rows", static_cast<std::uint64_t>(request.rows))
      .kv("step", request.step)
      .kv("seed", request.seed);
  if (!request.temps.empty()) {
    w.key("temps").begin_array();
    for (const double t : request.temps) w.value(t);
    w.end_array();
  }
  if (!request.patterns.empty()) {
    w.key("patterns").begin_array();
    for (const harness::PatternSpec& spec : request.patterns) {
      harness::pattern_spec_json(w, spec);
    }
    w.end_array();
  }
  return close_object(std::move(w));
}

std::string encode_inject_request(std::uint64_t id,
                                  const InjectRequest& request) {
  JsonWriter w = request_header(id, "inject");
  w.kv("faults", request.faults);
  w.key("modules").begin_array();
  for (const auto& m : request.modules) w.value(m);
  w.end_array();
  w.kv("rows", static_cast<std::uint64_t>(request.rows))
      .kv("retries", static_cast<std::uint64_t>(request.retries))
      .kv("seed", request.seed)
      .kv("trace_cap", request.trace_cap);
  return close_object(std::move(w));
}

std::string encode_replay_request(std::uint64_t id,
                                  const std::string& dump_json) {
  JsonWriter w = request_header(id, "replay");
  w.kv("dump", dump_json);
  return close_object(std::move(w));
}

// --- Request decoding --------------------------------------------------------

common::Status validate(const SweepRequest& request) {
  if (request.test != "rowhammer" && request.test != "trcd" &&
      request.test != "retention") {
    return Error{ErrorCode::kInvalidArgument,
                 "unknown sweep test '" + request.test + "'"};
  }
  if (request.rows == 0 || request.rows > 65536) {
    return Error{ErrorCode::kInvalidArgument,
                 "rows must be in [1, 65536], got " +
                     std::to_string(request.rows)};
  }
  if (!(request.step >= 0.01 && request.step <= 1.2)) {
    return Error{ErrorCode::kInvalidArgument, "step must be in [0.01, 1.2]"};
  }
  for (const double temp_c : request.temps) {
    if (!(temp_c >= -40.0 && temp_c <= 120.0)) {
      return Error{ErrorCode::kInvalidArgument,
                   "temps entries must be in [-40, 120] C"};
    }
  }
  if (!request.patterns.empty() && request.test != "rowhammer") {
    return Error{ErrorCode::kInvalidArgument,
                 "the pattern axis applies to rowhammer sweeps only"};
  }
  for (const harness::PatternSpec& spec : request.patterns) {
    VPP_RETURN_IF_ERROR(spec.validate());
  }
  return common::Status::ok_status();
}

common::Status validate(const InjectRequest& request) {
  if (request.modules.empty()) {
    return Error{ErrorCode::kInvalidArgument, "inject needs >= 1 module"};
  }
  if (request.rows == 0 || request.rows > 65536) {
    return Error{ErrorCode::kInvalidArgument,
                 "rows must be in [1, 65536], got " +
                     std::to_string(request.rows)};
  }
  return common::Status::ok_status();
}

common::Result<SweepRequest> parse_sweep_request(const JsonValue& body) {
  SweepRequest request;
  request.module = body.string_or("module", request.module);
  request.test = body.string_or("test", request.test);
  request.rows = static_cast<std::uint32_t>(
      body.uint_or("rows", request.rows));
  request.step = body.number_or("step", request.step);
  request.seed = body.uint_or("seed", request.seed);
  if (const JsonValue* temps = body.find("temps");
      temps != nullptr && temps->is_array()) {
    for (const auto& t : temps->items()) {
      if (!t.is_number()) {
        return Error{ErrorCode::kInvalidArgument,
                     "temps entries must be numbers"};
      }
      request.temps.push_back(t.as_number());
    }
  }
  if (const JsonValue* patterns = body.find("patterns");
      patterns != nullptr && patterns->is_array()) {
    for (const auto& item : patterns->items()) {
      VPP_ASSIGN_OR_RETURN(harness::PatternSpec spec,
                           harness::parse_pattern_spec(item));
      request.patterns.push_back(std::move(spec));
    }
  }
  VPP_RETURN_IF_ERROR(validate(request));
  return request;
}

common::Result<InjectRequest> parse_inject_request(const JsonValue& body) {
  InjectRequest request;
  request.faults = body.string_or("faults", request.faults);
  if (const JsonValue* modules = body.find("modules");
      modules != nullptr && modules->is_array()) {
    request.modules.clear();
    for (const auto& m : modules->items()) {
      if (!m.is_string()) {
        return Error{ErrorCode::kInvalidArgument,
                     "inject modules must be strings"};
      }
      request.modules.push_back(m.as_string());
    }
  }
  request.rows = static_cast<std::uint32_t>(body.uint_or("rows", request.rows));
  request.retries =
      static_cast<std::uint32_t>(body.uint_or("retries", request.retries));
  request.seed = body.uint_or("seed", request.seed);
  request.trace_cap = body.uint_or("trace_cap", request.trace_cap);
  VPP_RETURN_IF_ERROR(validate(request));
  return request;
}

// --- Campaign distribution ---------------------------------------------------

namespace {

/// Read a u64 wire field (hex string, core::u64_hex). Absent is fine when
/// !required (out keeps its default); present-but-malformed never is.
common::Status parse_hex_member(const JsonValue& body, std::string_view key,
                                bool required, std::uint64_t& out) {
  const JsonValue* v = body.find(key);
  if (v == nullptr) {
    if (!required) return common::Status::ok_status();
    return Error{ErrorCode::kInvalidArgument,
                 "missing required field '" + std::string(key) + "'"};
  }
  if (!v->is_string() || !core::parse_u64_hex(v->as_string(), out)) {
    return Error{ErrorCode::kInvalidArgument,
                 "field '" + std::string(key) + "' must be a hex string"};
  }
  return common::Status::ok_status();
}

common::Result<core::JobPhase> parse_phase_member(const JsonValue& body) {
  core::JobPhase phase = core::JobPhase::kRowHammer;
  const std::string name = body.string_or("phase", "");
  if (!core::campaign_phase_from_name(name, phase)) {
    return Error{ErrorCode::kInvalidArgument,
                 "unknown campaign phase '" + name + "'"};
  }
  return phase;
}

}  // namespace

std::string encode_campaign_open_request(std::uint64_t id,
                                         std::string_view manifest_json) {
  // The spec document is spliced as pre-rendered text, like result splicing:
  // the zero-shard manifest is the plan's canonical serialization and must
  // arrive byte-identical to what load_campaign_manifest would read.
  JsonWriter w = request_header(id, "campaign_open");
  std::string out = w.str();
  out += ",\"campaign\":";
  out += manifest_json;
  out += "}";
  return out;
}

std::string encode_lease_request(std::uint64_t id, const LeaseRequest& request) {
  JsonWriter w = request_header(id, "lease");
  w.kv("plan_hash", core::u64_hex(request.plan_hash))
      .kv("worker", request.worker)
      .kv("max_shards", request.max_shards)
      .kv("ttl_ms", request.ttl_ms)
      .kv("need_plan", request.need_plan);
  return close_object(std::move(w));
}

std::string encode_submit_request(std::uint64_t id,
                                  const SubmitRequest& request) {
  JsonWriter w = request_header(id, "submit");
  w.kv("plan_hash", core::u64_hex(request.plan_hash))
      .kv("phase", core::campaign_phase_name(request.phase))
      .kv("worker", request.worker)
      .kv("token", core::u64_hex(request.token));
  w.key("wcdp").begin_array();
  for (const auto& record : request.wcdp) core::manifest_wcdp_json(w, record);
  w.end_array();
  w.key("shards").begin_array();
  for (const auto& shard : request.shards) {
    core::manifest_shard_json(w, shard, request.phase);
  }
  w.end_array();
  return close_object(std::move(w));
}

std::string encode_heartbeat_request(std::uint64_t id,
                                     const HeartbeatRequest& request) {
  JsonWriter w = request_header(id, "heartbeat");
  w.kv("plan_hash", core::u64_hex(request.plan_hash))
      .kv("token", core::u64_hex(request.token))
      .kv("ttl_ms", request.ttl_ms);
  return close_object(std::move(w));
}

common::Result<LeaseRequest> parse_lease_request(const JsonValue& body) {
  LeaseRequest request;
  if (auto st = parse_hex_member(body, "plan_hash", false, request.plan_hash);
      !st.ok()) {
    return std::move(st).error();
  }
  request.worker = body.string_or("worker", "");
  if (request.worker.empty()) {
    return Error{ErrorCode::kInvalidArgument, "lease needs a worker name"};
  }
  request.max_shards = body.uint_or("max_shards", request.max_shards);
  request.ttl_ms = static_cast<std::int64_t>(
      body.uint_or("ttl_ms", static_cast<std::uint64_t>(request.ttl_ms)));
  if (request.ttl_ms <= 0) {
    return Error{ErrorCode::kInvalidArgument, "ttl_ms must be positive"};
  }
  request.need_plan = body.bool_or("need_plan", false);
  return request;
}

common::Result<SubmitRequest> parse_submit_request(const JsonValue& body) {
  SubmitRequest request;
  if (auto st = parse_hex_member(body, "plan_hash", true, request.plan_hash);
      !st.ok()) {
    return std::move(st).error();
  }
  VPP_ASSIGN_OR_RETURN(request.phase, parse_phase_member(body));
  request.worker = body.string_or("worker", "");
  if (request.worker.empty()) {
    return Error{ErrorCode::kInvalidArgument, "submit needs a worker name"};
  }
  if (auto st = parse_hex_member(body, "token", true, request.token);
      !st.ok()) {
    return std::move(st).error();
  }
  if (request.token == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "submit needs a nonzero fencing token"};
  }
  if (const JsonValue* wcdp = body.find("wcdp");
      wcdp != nullptr && wcdp->is_array()) {
    for (const auto& item : wcdp->items()) {
      VPP_ASSIGN_OR_RETURN(core::ManifestWcdp record,
                           core::parse_manifest_wcdp(item));
      request.wcdp.push_back(std::move(record));
    }
  }
  if (const JsonValue* shards = body.find("shards");
      shards != nullptr && shards->is_array()) {
    for (const auto& item : shards->items()) {
      VPP_ASSIGN_OR_RETURN(core::ManifestShard shard,
                           core::parse_manifest_shard(item, request.phase));
      request.shards.push_back(std::move(shard));
    }
  }
  return request;
}

common::Result<HeartbeatRequest> parse_heartbeat_request(const JsonValue& body) {
  HeartbeatRequest request;
  if (auto st = parse_hex_member(body, "plan_hash", false, request.plan_hash);
      !st.ok()) {
    return std::move(st).error();
  }
  if (auto st = parse_hex_member(body, "token", true, request.token);
      !st.ok()) {
    return std::move(st).error();
  }
  if (request.token == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "heartbeat needs a nonzero fencing token"};
  }
  request.ttl_ms = static_cast<std::int64_t>(
      body.uint_or("ttl_ms", static_cast<std::uint64_t>(request.ttl_ms)));
  if (request.ttl_ms <= 0) {
    return Error{ErrorCode::kInvalidArgument, "ttl_ms must be positive"};
  }
  return request;
}

std::string encode_lease_result(const LeaseGrant& grant,
                                std::string_view campaign_json) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "lease")
      .kv("phase", core::campaign_phase_name(grant.phase))
      .kv("plan_hash", core::u64_hex(grant.plan_hash))
      .kv("token", core::u64_hex(grant.token));
  w.key("shards").begin_array();
  for (const std::uint64_t index : grant.shards) w.value(index);
  w.end_array();
  w.key("wcdp").begin_array();
  for (const auto& record : grant.wcdp) core::manifest_wcdp_json(w, record);
  w.end_array();
  w.kv("done", grant.done)
      .kv("remaining", grant.remaining)
      .kv("complete", grant.complete);
  if (campaign_json.empty()) {
    w.end_object();
    return w.str();
  }
  std::string out = w.str();
  out += ",\"campaign\":";
  out += campaign_json;
  out += "}";
  return out;
}

std::string encode_submit_result(const SubmitOutcome& outcome) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "submit")
      .kv("accepted", outcome.accepted)
      .kv("duplicates", outcome.duplicates)
      .kv("done", outcome.done)
      .kv("remaining", outcome.remaining)
      .kv("complete", outcome.complete)
      .end_object();
  return w.str();
}

std::string encode_heartbeat_result(std::uint64_t renewed, bool complete) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "heartbeat")
      .kv("renewed", renewed)
      .kv("complete", complete)
      .end_object();
  return w.str();
}

common::Result<LeaseGrant> parse_lease_result(const JsonValue& result) {
  LeaseGrant grant;
  VPP_ASSIGN_OR_RETURN(grant.phase, parse_phase_member(result));
  if (auto st = parse_hex_member(result, "plan_hash", true, grant.plan_hash);
      !st.ok()) {
    return std::move(st).error();
  }
  if (auto st = parse_hex_member(result, "token", true, grant.token);
      !st.ok()) {
    return std::move(st).error();
  }
  const JsonValue* shards = result.find("shards");
  if (shards == nullptr || !shards->is_array()) {
    return Error{ErrorCode::kParseError, "lease result without shards"};
  }
  for (const auto& v : shards->items()) {
    if (!v.is_number()) {
      return Error{ErrorCode::kParseError, "non-numeric shard index"};
    }
    grant.shards.push_back(static_cast<std::uint64_t>(v.as_number()));
  }
  if (const JsonValue* wcdp = result.find("wcdp");
      wcdp != nullptr && wcdp->is_array()) {
    for (const auto& item : wcdp->items()) {
      VPP_ASSIGN_OR_RETURN(core::ManifestWcdp record,
                           core::parse_manifest_wcdp(item));
      grant.wcdp.push_back(std::move(record));
    }
  }
  grant.done = result.uint_or("done", 0);
  grant.remaining = result.uint_or("remaining", 0);
  grant.complete = result.bool_or("complete", false);
  if (const JsonValue* campaign = result.find("campaign")) {
    VPP_ASSIGN_OR_RETURN(grant.campaign,
                         core::parse_campaign_manifest(*campaign));
    grant.has_campaign = true;
  }
  return grant;
}

common::Result<SubmitOutcome> parse_submit_result(const JsonValue& result) {
  SubmitOutcome outcome;
  outcome.accepted = result.uint_or("accepted", 0);
  outcome.duplicates = result.uint_or("duplicates", 0);
  outcome.done = result.uint_or("done", 0);
  outcome.remaining = result.uint_or("remaining", 0);
  outcome.complete = result.bool_or("complete", false);
  return outcome;
}

// --- Responses ---------------------------------------------------------------

std::string encode_result_response(std::uint64_t id,
                                   std::string_view result_json,
                                   const RequestStats& stats) {
  // The result is spliced in as pre-rendered text: re-encoding through a DOM
  // could reorder members or reformat doubles, and the byte-identity
  // contract covers exactly this substring.
  JsonWriter w;
  w.begin_object().kv("id", id).kv("ok", true);
  std::string out = w.str();
  out += ",\"result\":";
  out += result_json;
  JsonWriter stats_w;
  stats_w.begin_object()
      .kv("cache_hits", stats.cache_hits)
      .kv("cache_misses", stats.cache_misses)
      .end_object();
  out += ",\"stats\":";
  out += stats_w.str();
  out += "}";
  return out;
}

std::string encode_error_response(std::uint64_t id,
                                  const common::Error& error) {
  JsonWriter w;
  w.begin_object().kv("id", id).kv("ok", false);
  w.key("error").begin_object();
  w.kv("code", common::error_code_name(error.code));
  w.kv("message", error.message);
  if (!error.context.module.empty()) w.kv("module", error.context.module);
  w.end_object().end_object();
  return w.str();
}

common::Result<JsonValue> response_result(const JsonValue& response) {
  if (!response.is_object()) {
    return Error{ErrorCode::kParseError, "response is not an object"};
  }
  if (response.bool_or("ok", false)) {
    const JsonValue* result = response.find("result");
    if (result == nullptr) {
      return Error{ErrorCode::kParseError, "ok response without result"};
    }
    return *result;
  }
  const JsonValue* error = response.find("error");
  if (error == nullptr) {
    return Error{ErrorCode::kParseError, "error response without error"};
  }
  Error out{common::error_code_from_name(error->string_or("code", "kUnknown")),
            error->string_or("message", "(no message)")};
  out.context.module = error->string_or("module", "");
  return out;
}

// --- Result serialization ----------------------------------------------------

namespace {

void write_double_array(JsonWriter& w, std::string_view key,
                        const std::vector<double>& values) {
  w.key(key).begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
}

common::Result<std::vector<double>> read_double_array(const JsonValue& doc,
                                                      std::string_view key) {
  const JsonValue* arr = doc.find(key);
  if (arr == nullptr || !arr->is_array()) {
    return Error{ErrorCode::kParseError,
                 "missing array '" + std::string(key) + "'"};
  }
  std::vector<double> out;
  out.reserve(arr->items().size());
  for (const auto& v : arr->items()) {
    if (!v.is_number()) {
      return Error{ErrorCode::kParseError,
                   "non-numeric entry in '" + std::string(key) + "'"};
    }
    out.push_back(v.as_number());
  }
  return out;
}

}  // namespace

std::string hammer_sweep_to_json(const core::ModuleSweepResult& sweep) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "rowhammer")
      .kv("module", sweep.module_name)
      .kv("mfr", static_cast<std::uint64_t>(sweep.mfr))
      .kv("vppmin_v", sweep.vppmin_v);
  write_double_array(w, "vpp_levels", sweep.vpp_levels);
  w.key("rows").begin_array();
  for (const auto& row : sweep.rows) {
    w.begin_object()
        .kv("row", static_cast<std::uint64_t>(row.row))
        .kv("wcdp", static_cast<std::uint64_t>(row.wcdp));
    w.key("hc_first").begin_array();
    for (const std::uint64_t hc : row.hc_first) w.value(hc);
    w.end_array();
    write_double_array(w, "ber", row.ber);
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

common::Result<core::ModuleSweepResult> hammer_sweep_from_json(
    const JsonValue& doc) {
  core::ModuleSweepResult sweep;
  sweep.module_name = doc.string_or("module", "");
  sweep.mfr = static_cast<dram::Manufacturer>(doc.uint_or("mfr", 0));
  sweep.vppmin_v = doc.number_or("vppmin_v", 0.0);
  auto levels = read_double_array(doc, "vpp_levels");
  if (!levels) return std::move(levels).error();
  sweep.vpp_levels = std::move(*levels);
  const JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Error{ErrorCode::kParseError, "rowhammer result without rows"};
  }
  for (const auto& row_doc : rows->items()) {
    core::RowSeries series;
    series.row = static_cast<std::uint32_t>(row_doc.uint_or("row", 0));
    series.wcdp = static_cast<dram::DataPattern>(row_doc.uint_or("wcdp", 0));
    const JsonValue* hc = row_doc.find("hc_first");
    if (hc == nullptr || !hc->is_array()) {
      return Error{ErrorCode::kParseError, "row without hc_first"};
    }
    for (const auto& v : hc->items()) {
      series.hc_first.push_back(static_cast<std::uint64_t>(v.as_number()));
    }
    auto ber = read_double_array(row_doc, "ber");
    if (!ber) return std::move(ber).error();
    series.ber = std::move(*ber);
    sweep.rows.push_back(std::move(series));
  }
  return sweep;
}

std::string trcd_sweep_to_json(const core::TrcdSweepResult& sweep) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "trcd")
      .kv("module", sweep.module_name)
      .kv("vppmin_v", sweep.vppmin_v);
  write_double_array(w, "vpp_levels", sweep.vpp_levels);
  write_double_array(w, "trcd_min_ns", sweep.trcd_min_ns);
  w.end_object();
  return w.str();
}

common::Result<core::TrcdSweepResult> trcd_sweep_from_json(
    const JsonValue& doc) {
  core::TrcdSweepResult sweep;
  sweep.module_name = doc.string_or("module", "");
  sweep.vppmin_v = doc.number_or("vppmin_v", 0.0);
  auto levels = read_double_array(doc, "vpp_levels");
  if (!levels) return std::move(levels).error();
  sweep.vpp_levels = std::move(*levels);
  auto trcd = read_double_array(doc, "trcd_min_ns");
  if (!trcd) return std::move(trcd).error();
  sweep.trcd_min_ns = std::move(*trcd);
  return sweep;
}

std::string retention_sweep_to_json(const core::RetentionSweepResult& sweep) {
  JsonWriter w;
  w.begin_object()
      .kv("kind", "retention")
      .kv("module", sweep.module_name)
      .kv("mfr", static_cast<std::uint64_t>(sweep.mfr))
      .kv("reference_trefw_ms", sweep.reference_trefw_ms);
  write_double_array(w, "vpp_levels", sweep.vpp_levels);
  write_double_array(w, "trefw_ms", sweep.trefw_ms);
  w.key("mean_ber").begin_array();
  for (const auto& level : sweep.mean_ber) {
    w.begin_array();
    for (const double v : level) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.key("row_ber_at_reference").begin_array();
  for (const auto& level : sweep.row_ber_at_reference) {
    w.begin_array();
    for (const double v : level) w.value(v);
    w.end_array();
  }
  w.end_array().end_object();
  return w.str();
}

common::Result<core::RetentionSweepResult> retention_sweep_from_json(
    const JsonValue& doc) {
  core::RetentionSweepResult sweep;
  sweep.module_name = doc.string_or("module", "");
  sweep.mfr = static_cast<dram::Manufacturer>(doc.uint_or("mfr", 0));
  sweep.reference_trefw_ms =
      doc.number_or("reference_trefw_ms", sweep.reference_trefw_ms);
  auto levels = read_double_array(doc, "vpp_levels");
  if (!levels) return std::move(levels).error();
  sweep.vpp_levels = std::move(*levels);
  auto trefw = read_double_array(doc, "trefw_ms");
  if (!trefw) return std::move(trefw).error();
  sweep.trefw_ms = std::move(*trefw);
  const auto read_matrix =
      [&doc](std::string_view key)
      -> common::Result<std::vector<std::vector<double>>> {
    const JsonValue* arr = doc.find(key);
    if (arr == nullptr || !arr->is_array()) {
      return Error{ErrorCode::kParseError,
                   "missing matrix '" + std::string(key) + "'"};
    }
    std::vector<std::vector<double>> out;
    for (const auto& level : arr->items()) {
      if (!level.is_array()) {
        return Error{ErrorCode::kParseError,
                     "non-array row in '" + std::string(key) + "'"};
      }
      std::vector<double> vals;
      vals.reserve(level.items().size());
      for (const auto& v : level.items()) vals.push_back(v.as_number());
      out.push_back(std::move(vals));
    }
    return out;
  };
  auto mean = read_matrix("mean_ber");
  if (!mean) return std::move(mean).error();
  sweep.mean_ber = std::move(*mean);
  auto ref = read_matrix("row_ber_at_reference");
  if (!ref) return std::move(ref).error();
  sweep.row_ber_at_reference = std::move(*ref);
  return sweep;
}

}  // namespace vppstudy::server
