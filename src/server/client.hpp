// Client of the vppd daemon, used by vppctl's --connect mode, the campaign
// worker and the integration tests. One Client is one connection. The typed
// verbs are sequential (send a request, read frames until the matching id
// arrives); send() + wait_result() pipeline several requests on the
// connection, and responses for other ids are queued and returned by later
// waits.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/expected.hpp"
#include "common/socket.hpp"
#include "server/protocol.hpp"

namespace vppstudy::server {

class Client {
 public:
  [[nodiscard]] static common::Result<Client> connect(std::uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// A fresh request id (monotonic per connection).
  [[nodiscard]] std::uint64_t next_id() noexcept { return next_id_++; }

  /// Send one already-encoded request frame.
  [[nodiscard]] common::Status send(std::string_view payload);

  /// Read response frames until the one answering `id` arrives; responses
  /// to other (pipelined) ids are buffered for later wait_for() calls.
  [[nodiscard]] common::Result<common::JsonValue> wait_for(std::uint64_t id);

  /// wait_for unwrapped to the response's "result": the server's typed
  /// error becomes this call's error.
  [[nodiscard]] common::Result<common::JsonValue> wait_result(std::uint64_t id);

  /// send + wait_for in one step. `payload` must carry `id`.
  [[nodiscard]] common::Result<common::JsonValue> call(std::uint64_t id,
                                                       std::string_view payload);

  /// One successful request/response cycle unwrapped to its "result": the
  /// server's typed error becomes this call's error.
  [[nodiscard]] common::Result<common::JsonValue> call_result(
      std::uint64_t id, std::string_view payload);

  struct SweepResponse {
    common::JsonValue result;  ///< the deterministic "result" document
    RequestStats stats;        ///< the server's cache accounting
  };
  [[nodiscard]] common::Result<SweepResponse> sweep(const SweepRequest& request);

  [[nodiscard]] common::Result<common::JsonValue> inject(
      const InjectRequest& request);
  [[nodiscard]] common::Result<common::JsonValue> replay(
      const std::string& dump_json);

  // Campaign distribution verbs (the worker loop of server/worker.hpp).
  /// Open (or re-open, idempotently) a campaign on the daemon;
  /// `manifest_json` is a zero-shard manifest spec document.
  [[nodiscard]] common::Result<common::JsonValue> campaign_open(
      const std::string& manifest_json);
  [[nodiscard]] common::Result<LeaseGrant> lease(const LeaseRequest& request);
  [[nodiscard]] common::Result<SubmitOutcome> submit(
      const SubmitRequest& request);
  /// Returns how many shards were renewed; kLeaseExpired when the token no
  /// longer holds any.
  [[nodiscard]] common::Result<std::uint64_t> heartbeat(
      const HeartbeatRequest& request);
  [[nodiscard]] common::Status ping();
  /// Ask the daemon to exit; returns once the daemon acknowledged.
  [[nodiscard]] common::Status shutdown_server();

 private:
  explicit Client(common::Socket socket) : socket_(std::move(socket)) {}

  common::Socket socket_;
  std::uint64_t next_id_ = 1;
  std::deque<common::JsonValue> buffered_;
};

}  // namespace vppstudy::server
