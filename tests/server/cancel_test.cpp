// Cancellation coverage: a pre-cancelled token short-circuits the service
// with a typed kCancelled; a mid-flight socket cancel leaves the queue
// drained and the cache untorn (whole rows only), so a re-issued request
// completes and matches the serial reference byte for byte; a vanished
// client's jobs are cancelled on connection teardown.
#include <gtest/gtest.h>

#include <string>

#include "common/cancel.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"

namespace vppstudy::server {
namespace {

using common::ErrorCode;
using testing::extract_result_text;
using testing::raw_sweep;
using testing::RawConn;
using testing::reference_result_text;
using testing::response_error_code;

TEST(ServerCancel, PreCancelledTokenShortCircuitsSweep) {
  Service::Config config;
  config.jobs = 1;
  Service service(config);
  common::CancelToken token;
  token.cancel();

  SweepRequest request;
  request.rows = 4;
  request.step = 0.4;
  auto outcome = service.sweep(request, token);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kCancelled);

  // A subsequent un-cancelled sweep on the same service completes and is
  // byte-identical to a fresh engine: the cancelled attempt left no torn
  // state behind.
  auto retry = service.sweep(request, common::CancelToken());
  ASSERT_TRUE(retry.has_value()) << retry.error().to_string();
  EXPECT_EQ(retry->result_json, reference_result_text(request));
}

TEST(ServerCancel, PreCancelledTokenShortCircuitsInjectAndReplay) {
  Service::Config config;
  config.jobs = 1;
  Service service(config);
  common::CancelToken token;
  token.cancel();

  auto inject = service.inject(InjectRequest{}, token);
  ASSERT_FALSE(inject.has_value());
  EXPECT_EQ(inject.error().code, ErrorCode::kCancelled);

  auto replay = service.replay(softmc::TraceDump{}, token);
  ASSERT_FALSE(replay.has_value());
  EXPECT_EQ(replay.error().code, ErrorCode::kCancelled);
}

// Cancel a sweep mid-shard over the socket. Whatever the race outcome (the
// sweep may squeak through), the invariants hold: the response is ok or
// typed kCancelled, the queue drains, and a re-issued request completes
// byte-identical to the serial reference -- cached partial progress is
// whole rows or nothing.
TEST(ServerCancel, MidFlightCancelLeavesNoTornCells) {
  Server::Config config;
  config.service.jobs = 1;
  config.service.rows_per_shard = 1;  // many small shards: cancel lands mid-sweep
  config.queue.dispatchers = 1;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());

  RawConn conn = RawConn::connect((*server)->port());
  SweepRequest request;
  request.rows = 8;
  request.step = 0.2;
  conn.send_payload(encode_sweep_request(1, request));
  conn.send_payload(encode_cancel_request(2, 1));

  bool sweep_cancelled = false;
  bool saw_cancel_ack = false;
  for (int i = 0; i < 2; ++i) {
    auto response = conn.recv_response();
    ASSERT_TRUE(response.has_value());
    const std::uint64_t id = response->uint_or("id", 0);
    if (id == 2) {
      ASSERT_TRUE(response->bool_or("ok", false));
      saw_cancel_ack = true;
      continue;
    }
    ASSERT_EQ(id, 1u);
    if (!response->bool_or("ok", false)) {
      EXPECT_EQ(response_error_code(*response), "kCancelled");
      sweep_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_cancel_ack);
  // rows_per_shard=1 makes the cancel race overwhelmingly land mid-sweep,
  // but the assertion is on the invariants either way.
  if (!sweep_cancelled) {
    GTEST_LOG_(INFO) << "sweep completed before the cancel landed";
  }

  // Queue drained: an inline request answers immediately.
  conn.send_payload(encode_ping_request(3));
  auto pong = conn.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->bool_or("ok", false));

  // Re-issue: completes, and matches a fresh serial engine byte for byte
  // even though some shards of the cancelled attempt were cached.
  const std::string retry = raw_sweep(conn, 4, request);
  auto retry_doc = common::parse_json(retry);
  ASSERT_TRUE(retry_doc.has_value());
  ASSERT_TRUE(retry_doc->bool_or("ok", false)) << retry;
  EXPECT_EQ(extract_result_text(retry), reference_result_text(request));

  (*server)->stop();
}

TEST(ServerCancel, CancelUnknownTargetReportsNotFound) {
  Server::Config config;
  config.service.jobs = 1;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());

  RawConn conn = RawConn::connect((*server)->port());
  conn.send_payload(encode_cancel_request(1, 12345));
  auto response = conn.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->bool_or("ok", false));
  const common::JsonValue* result = response->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->bool_or("found", true));

  (*server)->stop();
}

// A client that vanishes mid-job must not wedge the daemon: connection
// teardown cancels its in-flight work and later clients are served.
TEST(ServerCancel, DisconnectCancelsInFlightJobs) {
  Server::Config config;
  config.service.jobs = 1;
  config.service.rows_per_shard = 1;
  config.queue.dispatchers = 1;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());
  const std::uint16_t port = (*server)->port();

  {
    RawConn doomed = RawConn::connect(port);
    SweepRequest request;
    request.rows = 8;
    request.step = 0.2;
    doomed.send_payload(encode_sweep_request(1, request));
    doomed.close();  // vanish without reading the response
  }

  // The daemon keeps serving: a small sweep on a fresh connection completes
  // promptly (the orphaned job was cancelled, not left hogging the single
  // dispatcher for its full runtime).
  RawConn conn = RawConn::connect(port);
  SweepRequest small;
  small.rows = 2;
  small.step = 0.4;
  const std::string response = raw_sweep(conn, 1, small);
  auto doc = common::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->bool_or("ok", false)) << response;

  (*server)->stop();
}

}  // namespace
}  // namespace vppstudy::server
