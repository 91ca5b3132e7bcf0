// The vppd daemon core: a loopback TCP server speaking the length-prefixed
// JSON protocol of server/protocol.hpp.
//
// One thread accepts connections; each connection gets a reader thread that
// decodes each frame and dispatches it through one verb table (server.cpp):
// each verb maps its request to a Result, and only the dispatcher encodes
// replies. Inline verbs (ping, stats, cancel, shutdown, campaign_open, lease,
// submit, heartbeat) are answered on the reader thread, in frame order. Work
// verbs (sweep, inject, replay) are parsed there too, then admitted through
// the bounded JobQueue -- refusals (bad request, kQueueFull, kQuotaExceeded)
// are answered at once -- and run on dispatcher threads, which write their
// response through the connection's write mutex whenever they finish
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
#include <string>
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
  /// When non-empty, publish_port writes the bound port here -- the
  /// child-process handshake of tests/server.
  std::string port_file;
};

/// Write "<port>\n" to `path` atomically (a reader never sees a partial
/// file); false when the write fails.
[[nodiscard]] bool publish_port(const std::string& path, std::uint16_t port);

/// Run a daemon until a client requests shutdown. Returns the process exit
/// code: 0 on a clean shutdown, 3 on a typed startup error.
[[nodiscard]] int run_daemon(const DaemonOptions& options);

}  // namespace vppstudy::server
