// The vppd daemon core: a loopback TCP server speaking the length-prefixed
// JSON protocol of server/protocol.hpp.
//
// One thread accepts connections; each connection gets a reader thread that
// decodes frames and dispatches requests. Cheap requests (ping, stats,
// cancel, shutdown) are answered inline on the reader thread; work requests
// (sweep, inject, replay) are admitted through the bounded JobQueue --
// admission failures (kQueueFull, kQuotaExceeded) are answered immediately
// with a typed error -- and executed on dispatcher threads, which write
// their response through the connection's write mutex whenever they finish
// (responses may be reordered relative to pipelined requests; ids pair them
// up).
//
// Malformed input never kills the daemon: an undecodable frame gets a typed
// kParseError response (id 0, since no id could be read) and the connection
// continues; an oversized length prefix gets a kFrameTooLarge response and
// then the connection closes, because the stream cannot be resynced.
//
// A `shutdown` request (or stop()) closes the listener, drains the job
// queue (in-flight jobs observe their cancelled tokens), unblocks every
// reader, and joins all threads; wait() parks the caller until then.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/expected.hpp"
#include "common/socket.hpp"
#include "server/job_queue.hpp"
#include "server/service.hpp"

namespace vppstudy::server {

class Server {
 public:
  struct Config {
    std::uint16_t port = 0;  ///< 0 binds an ephemeral port (see port())
    Service::Config service;
    JobQueue::Config queue;
  };

  /// Bind, listen, and start the accept thread.
  [[nodiscard]] static common::Result<std::unique_ptr<Server>> start(
      Config config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Block until a client sends `shutdown` or stop() is called.
  void wait();

  /// Shut down: close the listener, drain the job queue, unblock and join
  /// every connection thread. Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] Service& service() noexcept { return service_; }
  [[nodiscard]] JobQueue::Stats queue_stats() const {
    return queue_.stats();
  }

 private:
  struct Connection {
    common::Socket socket;
    std::mutex write_mu;
    std::uint64_t id = 0;
    /// Set by the reader thread as it exits; accept_loop reaps it then.
    std::atomic<bool> done{false};
  };

  Server(Config config, common::ServerSocket listener);

  void accept_loop();
  /// Join and forget the connections whose reader threads have exited, so
  /// a long-lived daemon does not hold one fd and one thread per closed
  /// client. In-flight jobs keep their own shared_ptr to the Connection, so
  /// its socket closes when the last of them finishes.
  void reap_finished_connections();
  void handle_connection(const std::shared_ptr<Connection>& conn);
  /// Decode and dispatch one frame; false when the connection must close.
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void send_frame(Connection& conn, std::string_view payload);
  void request_shutdown();

  Config config_;
  common::ServerSocket listener_;
  std::uint16_t port_ = 0;
  Service service_;
  JobQueue queue_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::uint64_t next_client_id_ = 1;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections_;
  std::thread accept_thread_;
};

/// Options of the vppd daemon (tools/vppd).
struct DaemonOptions {
  Server::Config config;
  /// When non-empty, the bound port is published here (written to a temp
  /// file and renamed, so a reader never sees a partial write) -- the
  /// child-process handshake of tests/server.
  std::string port_file;
};

/// Run a daemon until a client requests shutdown. Returns the process exit
/// code: 0 on a clean shutdown, 3 on a typed startup error.
[[nodiscard]] int run_daemon(const DaemonOptions& options);

}  // namespace vppstudy::server
