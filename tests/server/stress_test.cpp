// Concurrency stress tests (slow tier, sanitizer-clean by construction):
// deterministic JobQueue backpressure/quota semantics exercised directly,
// then an in-process Server hammered by concurrent clients with overlapping
// sweeps -- every response must be ok and byte-identical across clients,
// and afterwards the whole grid must be resident in the cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/job_queue.hpp"
#include "server/server.hpp"
#include "server_test_util.hpp"

namespace vppstudy::server {
namespace {

using common::ErrorCode;
using testing::extract_result_text;
using testing::raw_sweep;
using testing::RawConn;
using testing::response_stats;

/// A job that parks its dispatcher until released, making queue occupancy
/// deterministic for the admission tests.
class Gate {
 public:
  JobQueue::Job job() {
    return [this](const common::CancelToken&) {
      std::unique_lock lock(mu_);
      ++running_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }

  void wait_running(int n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return running_ >= n; });
  }

  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int running_ = 0;
  bool released_ = false;
};

TEST(ServerStress, QueueFullIsTypedBackpressure) {
  JobQueue::Config config;
  config.capacity = 1;
  config.per_client_quota = 8;
  config.dispatchers = 1;
  JobQueue queue(config);
  Gate gate;

  // Job 1 occupies the only dispatcher; job 2 fills the pending queue.
  ASSERT_TRUE(queue.submit(1, 1, gate.job()).ok());
  gate.wait_running(1);
  ASSERT_TRUE(queue.submit(1, 2, gate.job()).ok());

  auto rejected = queue.submit(1, 3, gate.job());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kQueueFull);
  EXPECT_EQ(queue.stats().rejected_full, 1u);

  gate.release();
  queue.shutdown();
  EXPECT_EQ(queue.stats().completed, 2u);
}

TEST(ServerStress, PerClientQuotaIsTypedAndPerClient) {
  JobQueue::Config config;
  config.capacity = 16;
  config.per_client_quota = 1;
  config.dispatchers = 1;
  JobQueue queue(config);
  Gate gate;

  ASSERT_TRUE(queue.submit(1, 1, gate.job()).ok());
  gate.wait_running(1);

  auto rejected = queue.submit(1, 2, gate.job());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(queue.stats().rejected_quota, 1u);

  // The quota is per client: another client is admitted immediately.
  EXPECT_TRUE(queue.submit(2, 1, gate.job()).ok());

  gate.release();
  queue.shutdown();
}

TEST(ServerStress, DuplicateInFlightRequestIdIsInvalid) {
  JobQueue::Config config;
  config.dispatchers = 1;
  JobQueue queue(config);
  Gate gate;

  ASSERT_TRUE(queue.submit(1, 1, gate.job()).ok());
  gate.wait_running(1);
  auto duplicate = queue.submit(1, 1, gate.job());
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, ErrorCode::kInvalidArgument);

  gate.release();
  queue.shutdown();
}

TEST(ServerStress, CancelTripsTokenAndCompletionPathIsUniform) {
  JobQueue::Config config;
  config.dispatchers = 1;
  JobQueue queue(config);
  Gate gate;

  std::atomic<bool> observed_cancel{false};
  ASSERT_TRUE(queue.submit(1, 1, gate.job()).ok());
  gate.wait_running(1);
  ASSERT_TRUE(queue
                  .submit(1, 2,
                          [&](const common::CancelToken& token) {
                            observed_cancel = token.cancelled();
                          })
                  .ok());
  // Cancel the *pending* job: it must still run (through the uniform
  // completion path) and observe its tripped token immediately.
  EXPECT_TRUE(queue.cancel(1, 2));
  EXPECT_FALSE(queue.cancel(1, 99));  // unknown request id
  EXPECT_FALSE(queue.cancel(9, 2));   // wrong client

  gate.release();
  queue.shutdown();
  EXPECT_TRUE(observed_cancel.load());
  EXPECT_EQ(queue.stats().completed, 2u);
  EXPECT_EQ(queue.stats().cancel_requests, 1u);
}

TEST(ServerStress, ShutdownRunsPendingJobsWithTrippedTokens) {
  JobQueue::Config config;
  config.dispatchers = 1;
  JobQueue queue(config);
  Gate gate;

  std::atomic<int> ran{0};
  std::atomic<int> cancelled{0};
  ASSERT_TRUE(queue.submit(1, 1, gate.job()).ok());
  gate.wait_running(1);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_TRUE(queue
                    .submit(1, id,
                            [&](const common::CancelToken& token) {
                              ++ran;
                              if (token.cancelled()) ++cancelled;
                            })
                    .ok());
  }
  // Shut down while the gate still holds the dispatcher, so jobs 2..4 are
  // pending at shutdown time. shutdown() blocks joining the dispatcher, so
  // it runs on its own thread; the gate is only released once admission
  // refuses (kCancelled) -- proof the shutdown already tripped every
  // in-flight token. (Probe jobs admitted before the flip are no-ops.)
  std::thread shutter([&] { queue.shutdown(); });
  for (std::uint64_t probe_id = 100;; ++probe_id) {
    auto probe = queue.submit(2, probe_id, [](const common::CancelToken&) {});
    if (!probe.ok()) {
      EXPECT_EQ(probe.error().code, ErrorCode::kCancelled);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.release();
  shutter.join();
  // Every pending job still ran (response delivery is the job's duty), each
  // observing its tripped token.
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(cancelled.load(), 3);

  auto late = queue.submit(1, 9, [](const common::CancelToken&) {});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kCancelled);
}

// N clients, overlapping grids, concurrent connections: every response ok,
// identical requests byte-identical across clients, and a final sweep runs
// entirely from the cache.
TEST(ServerStress, ConcurrentOverlappingSweepsStayConsistent) {
  Server::Config config;
  config.service.jobs = 2;
  config.service.rows_per_shard = 2;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());
  const std::uint16_t port = (*server)->port();

  constexpr int kClients = 4;
  const double steps[kClients] = {0.4, 0.2, 0.4, 0.2};
  std::vector<std::string> coarse_results;
  std::mutex results_mu;
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RawConn conn = RawConn::connect(port);
      SweepRequest request;
      request.rows = 4;
      request.step = steps[c];
      for (std::uint64_t id = 1; id <= 2; ++id) {
        const std::string response = raw_sweep(conn, id, request);
        auto doc = common::parse_json(response);
        if (!doc || !doc->bool_or("ok", false)) {
          ++failures;
          continue;
        }
        if (request.step == 0.4) {
          std::lock_guard lock(results_mu);
          coarse_results.push_back(extract_result_text(response));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_FALSE(coarse_results.empty());
  for (const std::string& result : coarse_results) {
    EXPECT_EQ(result, coarse_results.front())
        << "identical requests diverged across concurrent clients";
  }

  // By now every cell of the fine grid exists; a fresh client's fine sweep
  // must be pure cache.
  RawConn conn = RawConn::connect(port);
  SweepRequest fine;
  fine.rows = 4;
  fine.step = 0.2;
  const std::string response = raw_sweep(conn, 1, fine);
  auto doc = common::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->bool_or("ok", false)) << response;
  EXPECT_EQ(response_stats(*doc).misses, 0u);

  (*server)->stop();
}

// Admission limits surface over the socket as typed error responses: with
// quota 1 and a single dispatcher, pipelined sweeps 2 and 3 arrive while
// sweep 1 is still running and must be rejected, never crash or hang.
TEST(ServerStress, PipelinedRequestsBeyondQuotaGetTypedRejections) {
  Server::Config config;
  config.service.jobs = 1;
  config.service.rows_per_shard = 1;
  config.queue.capacity = 1;
  config.queue.per_client_quota = 1;
  config.queue.dispatchers = 1;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());

  RawConn conn = RawConn::connect((*server)->port());
  SweepRequest request;
  request.rows = 8;
  request.step = 0.2;
  // Pipeline three identical sweeps back to back. The rejections answer
  // inline (reader thread) while the admitted sweep computes, so they
  // arrive first; ids pair responses to requests regardless of order.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    conn.send_payload(encode_sweep_request(id, request));
  }
  int ok_count = 0;
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    auto response = conn.recv_response();
    ASSERT_TRUE(response.has_value());
    if (response->bool_or("ok", false)) {
      ++ok_count;
      continue;
    }
    const std::string code = testing::response_error_code(*response);
    EXPECT_TRUE(code == "kQuotaExceeded" || code == "kQueueFull") << code;
    ++rejected;
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(rejected, 2);
  const JobQueue::Stats stats = (*server)->queue_stats();
  EXPECT_EQ(stats.rejected_full + stats.rejected_quota, 2u);

  (*server)->stop();
}

// A malformed queued request is refused on the reader thread, before
// admission: while a running sweep holds the client's only quota slot, a
// sweep with rows 0 and an inject with no modules still get
// kInvalidArgument (not kQuotaExceeded) and are never submitted.
TEST(ServerStress, MalformedQueuedRequestsAreRefusedBeforeAdmission) {
  Server::Config config;
  config.service.jobs = 1;
  config.service.rows_per_shard = 1;
  config.queue.per_client_quota = 1;
  config.queue.dispatchers = 1;
  auto server = Server::start(config);
  ASSERT_TRUE(server.has_value());

  RawConn conn = RawConn::connect((*server)->port());
  // Far more work than the test lasts: it holds the quota slot until stop()
  // cancels it.
  SweepRequest holder;
  holder.rows = 4096;
  holder.step = 0.05;
  SweepRequest bad_sweep;
  bad_sweep.rows = 0;
  InjectRequest bad_inject;
  bad_inject.modules.clear();
  conn.send_payload(encode_sweep_request(1, holder));
  conn.send_payload(encode_sweep_request(2, bad_sweep));
  conn.send_payload(encode_inject_request(3, bad_inject));
  // A replay with no dump, and one whose dump is no trace dump.
  conn.send_payload(R"({"id":5,"type":"replay"})");
  conn.send_payload(encode_replay_request(6, "{}"));
  // A well-formed sweep behind them shows the quota was exhausted all along:
  // the reader handles one connection's frames in order.
  conn.send_payload(encode_sweep_request(4, holder));

  std::map<std::uint64_t, std::string> codes;
  for (int i = 0; i < 5; ++i) {
    auto response = conn.recv_response();
    ASSERT_TRUE(response.has_value());
    codes[response->uint_or("id", 0)] = testing::response_error_code(*response);
  }
  EXPECT_EQ(codes[2], "kInvalidArgument");
  EXPECT_EQ(codes[3], "kInvalidArgument");
  EXPECT_EQ(codes[5], "kInvalidArgument");
  EXPECT_EQ(codes[6], "kParseError");
  EXPECT_EQ(codes[4], "kQuotaExceeded");
  const JobQueue::Stats stats = (*server)->queue_stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.rejected_full, 0u);

  (*server)->stop();
}

/// Open file descriptors of this process.
std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// A daemon serves many short-lived clients: each closed connection must
// give back its socket and its reader thread instead of parking them until
// shutdown.
TEST(ServerStress, ClosedConnectionsReleaseTheirFds) {
  auto server = Server::start(Server::Config{});
  ASSERT_TRUE(server.has_value());
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 300; ++i) {
    RawConn conn = RawConn::connect((*server)->port());
    conn.close();
  }
  // A connection is reaped by the first accept after its reader exits. A
  // probe that was answered has been accepted, so every reader that had
  // exited by then is gone; the last few may need another probe.
  std::size_t after = 0;
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    RawConn probe = RawConn::connect((*server)->port());
    probe.send_payload("{\"id\":1,\"type\":\"ping\"}");
    ASSERT_TRUE(probe.recv_payload().has_value());
    after = open_fd_count();
    if (after <= before + 8) break;
  }
  EXPECT_LE(after, before + 8) << "started with " << before;
  (*server)->stop();
}

}  // namespace
}  // namespace vppstudy::server
