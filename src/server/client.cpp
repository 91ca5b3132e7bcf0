#include "server/client.hpp"

#include <utility>

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;
using common::JsonValue;

common::Result<Client> Client::connect(std::uint16_t port) {
  auto socket = common::connect_loopback(port);
  if (!socket) return std::move(socket).error();
  return Client(std::move(*socket));
}

common::Status Client::send(std::string_view payload) {
  return write_frame(socket_, payload);
}

common::Result<JsonValue> Client::wait_for(std::uint64_t id) {
  for (std::size_t i = 0; i < buffered_.size(); ++i) {
    if (buffered_[i].uint_or("id", 0) == id) {
      JsonValue doc = std::move(buffered_[i]);
      buffered_.erase(buffered_.begin() + static_cast<std::ptrdiff_t>(i));
      return doc;
    }
  }
  for (;;) {
    std::string payload;
    auto more = read_frame(socket_, payload);
    if (!more) return std::move(more).error();
    if (!*more) {
      return Error{ErrorCode::kIoError,
                   "server closed the connection before answering request " +
                       std::to_string(id)};
    }
    auto doc = common::parse_json(payload);
    if (!doc) return std::move(doc).error();
    if (doc->uint_or("id", 0) == id) return std::move(*doc);
    buffered_.push_back(std::move(*doc));
  }
}

common::Result<JsonValue> Client::wait_result(std::uint64_t id) {
  auto response = wait_for(id);
  if (!response) return std::move(response).error();
  return response_result(*response);
}

common::Result<JsonValue> Client::call(std::uint64_t id,
                                       std::string_view payload) {
  if (auto st = send(payload); !st.ok()) return std::move(st).error();
  return wait_for(id);
}

common::Result<JsonValue> Client::call_result(std::uint64_t id,
                                              std::string_view payload) {
  if (auto st = send(payload); !st.ok()) return std::move(st).error();
  return wait_result(id);
}

common::Result<Client::SweepResponse> Client::sweep(
    const SweepRequest& request) {
  const std::uint64_t id = next_id();
  auto response = call(id, encode_sweep_request(id, request));
  if (!response) return std::move(response).error();
  auto result = response_result(*response);
  if (!result) return std::move(result).error();
  SweepResponse out;
  out.result = std::move(*result);
  if (const JsonValue* stats = response->find("stats")) {
    out.stats.cache_hits = stats->uint_or("cache_hits", 0);
    out.stats.cache_misses = stats->uint_or("cache_misses", 0);
  }
  return out;
}

common::Result<JsonValue> Client::inject(const InjectRequest& request) {
  const std::uint64_t id = next_id();
  return call_result(id, encode_inject_request(id, request));
}

common::Result<JsonValue> Client::replay(const std::string& dump_json) {
  const std::uint64_t id = next_id();
  return call_result(id, encode_replay_request(id, dump_json));
}

common::Result<JsonValue> Client::campaign_open(
    const std::string& manifest_json) {
  const std::uint64_t id = next_id();
  return call_result(id, encode_campaign_open_request(id, manifest_json));
}

common::Result<LeaseGrant> Client::lease(const LeaseRequest& request) {
  const std::uint64_t id = next_id();
  auto result = call_result(id, encode_lease_request(id, request));
  if (!result) return std::move(result).error();
  return parse_lease_result(*result);
}

common::Result<SubmitOutcome> Client::submit(const SubmitRequest& request) {
  const std::uint64_t id = next_id();
  auto result = call_result(id, encode_submit_request(id, request));
  if (!result) return std::move(result).error();
  return parse_submit_result(*result);
}

common::Result<std::uint64_t> Client::heartbeat(
    const HeartbeatRequest& request) {
  const std::uint64_t id = next_id();
  auto result = call_result(id, encode_heartbeat_request(id, request));
  if (!result) return std::move(result).error();
  return result->uint_or("renewed", 0);
}

common::Status Client::ping() {
  const std::uint64_t id = next_id();
  auto result = call_result(id, encode_ping_request(id));
  if (!result) return std::move(result).error();
  return common::Status::ok_status();
}

common::Status Client::shutdown_server() {
  const std::uint64_t id = next_id();
  auto result = call_result(id, encode_shutdown_request(id));
  if (!result) return std::move(result).error();
  return common::Status::ok_status();
}

}  // namespace vppstudy::server
