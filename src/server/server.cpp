#include "server/server.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/json.hpp"
#include "server/protocol.hpp"

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;

common::Result<std::unique_ptr<Server>> Server::start(Config config) {
  auto listener = common::ServerSocket::listen_loopback(config.port);
  if (!listener) return std::move(listener).error();
  // make_unique needs a public constructor; new keeps it private.
  std::unique_ptr<Server> server(
      new Server(std::move(config), std::move(*listener)));
  server->accept_thread_ = std::thread([s = server.get()] { s->accept_loop(); });
  return server;
}

Server::Server(Config config, common::ServerSocket listener)
    : config_(config),
      listener_(std::move(listener)),
      port_(listener_.port()),
      service_(config.service),
      queue_(config.queue) {}

Server::~Server() { stop(); }

void Server::wait() {
  std::unique_lock lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::request_shutdown() {
  std::lock_guard lock(mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Server::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
  // Order matters: silence the listener first (no new connections), then
  // drain the job queue (in-flight jobs see tripped tokens and still write
  // their kCancelled responses), then unblock and join the readers.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_.shutdown();
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> conns;
  {
    std::lock_guard lock(mu_);
    conns.swap(connections_);
  }
  for (auto& [conn, thread] : conns) {
    conn->socket.shutdown_both();
    if (thread.joinable()) thread.join();
  }
}

void Server::reap_finished_connections() {
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> finished;
  {
    std::lock_guard lock(mu_);
    const auto first_done = std::partition(
        connections_.begin(), connections_.end(),
        [](const auto& entry) { return !entry.first->done.load(); });
    std::move(first_done, connections_.end(), std::back_inserter(finished));
    connections_.erase(first_done, connections_.end());
  }
  for (auto& [conn, thread] : finished) thread.join();
}

void Server::accept_loop() {
  for (;;) {
    auto socket = listener_.accept();
    if (!socket) return;  // listener shut down
    reap_finished_connections();
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(*socket);
    {
      std::lock_guard lock(mu_);
      if (stopped_ || shutdown_requested_) return;
      conn->id = next_client_id_++;
      connections_.emplace_back(
          conn, std::thread([this, conn] { handle_connection(conn); }));
    }
  }
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn) {
  std::string payload;
  for (;;) {
    auto more = read_frame(conn->socket, payload);
    if (!more) {
      // kFrameTooLarge still earns a typed response -- the frame was
      // refused before any payload allocation -- but the stream cannot be
      // resynced afterwards, so the connection closes.
      if (more.error().code == ErrorCode::kFrameTooLarge) {
        send_frame(*conn, encode_error_response(0, more.error()));
      }
      break;
    }
    if (!*more) break;  // clean close at a frame boundary
    if (!handle_frame(conn, payload)) break;
  }
  // The reader is gone: nobody will read this client's responses, so its
  // in-flight jobs only waste workers -- cancel them. And actually close the
  // stream: the Connection object outlives this thread (connections_ holds
  // it until the next accept reaps it, in-flight jobs until they finish),
  // so without the shutdown a peer waiting on the documented
  // close-after-kFrameTooLarge would block forever.
  queue_.cancel_client(conn->id);
  conn->socket.shutdown_both();
  conn->done.store(true);
}

bool Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  auto doc = common::parse_json(payload);
  if (!doc) {
    // No id could be decoded; id 0 is the protocol's "unattributable".
    send_frame(*conn, encode_error_response(0, doc.error()));
    return true;
  }
  if (!doc->is_object()) {
    send_frame(*conn,
               encode_error_response(
                   0, Error{ErrorCode::kParseError,
                            "request must be a JSON object"}));
    return true;
  }
  const std::uint64_t id = doc->uint_or("id", 0);
  const std::string type = doc->string_or("type", "");

  if (type == "ping") {
    send_frame(*conn,
               encode_result_response(id, "{\"kind\":\"pong\"}", {}));
    return true;
  }
  if (type == "stats") {
    const ResultCache::Stats cache = service_.cache_stats();
    const JobQueue::Stats jobs = queue_.stats();
    common::JsonWriter w;
    w.begin_object().kv("kind", "stats");
    w.key("cache")
        .begin_object()
        .kv("hits", cache.hits)
        .kv("misses", cache.misses)
        .kv("cells", cache.cells)
        .kv("wcdp_preps", cache.wcdp_preps)
        .kv("evictions", cache.evictions)
        .kv("max_cells", cache.max_cells)
        .end_object();
    w.key("queue")
        .begin_object()
        .kv("submitted", jobs.submitted)
        .kv("completed", jobs.completed)
        .kv("rejected_full", jobs.rejected_full)
        .kv("rejected_quota", jobs.rejected_quota)
        .kv("cancel_requests", jobs.cancel_requests)
        .kv("pending", jobs.pending)
        .kv("running", jobs.running)
        .end_object();
    w.end_object();
    send_frame(*conn, encode_result_response(id, w.str(), {}));
    return true;
  }
  if (type == "cancel") {
    const std::uint64_t target = doc->uint_or("target", 0);
    const bool found = queue_.cancel(conn->id, target);
    common::JsonWriter w;
    w.begin_object().kv("kind", "cancel").kv("found", found).end_object();
    send_frame(*conn, encode_result_response(id, w.str(), {}));
    return true;
  }
  // Campaign distribution verbs are answered inline on the reader thread,
  // like stats/cancel: the coordinator's merge is bookkeeping, not compute
  // -- the expensive part (shard execution) happens on the *workers*.
  if (type == "campaign_open") {
    const common::JsonValue* spec_doc = doc->find("campaign");
    if (spec_doc == nullptr || !spec_doc->is_object()) {
      send_frame(*conn, encode_error_response(
                            id, Error{ErrorCode::kInvalidArgument,
                                      "campaign_open needs a campaign spec "
                                      "object"}));
      return true;
    }
    auto spec = core::parse_campaign_manifest(*spec_doc);
    if (!spec) {
      send_frame(*conn, encode_error_response(id, spec.error()));
      return true;
    }
    auto coordinator = service_.open_campaign(*spec);
    if (!coordinator) {
      send_frame(*conn, encode_error_response(id, coordinator.error()));
      return true;
    }
    const CampaignCoordinator::Status status = (*coordinator)->status();
    common::JsonWriter w;
    w.begin_object()
        .kv("kind", "campaign")
        .kv("phase", core::campaign_phase_name(status.phase))
        .kv("plan_hash", core::u64_hex(status.plan_hash))
        .kv("planned_shards", status.planned)
        .kv("done", status.done)
        .kv("remaining", status.planned - status.done)
        .kv("complete", status.complete)
        .end_object();
    send_frame(*conn, encode_result_response(id, w.str(), {}));
    return true;
  }
  if (type == "lease") {
    auto request = parse_lease_request(*doc);
    if (!request) {
      send_frame(*conn, encode_error_response(id, request.error()));
      return true;
    }
    auto coordinator = service_.find_campaign(request->plan_hash);
    if (!coordinator) {
      send_frame(*conn, encode_error_response(id, coordinator.error()));
      return true;
    }
    auto grant = (*coordinator)
                     ->lease(request->worker, request->max_shards,
                             request->ttl_ms, steady_now_ms());
    if (!grant) {
      send_frame(*conn, encode_error_response(id, grant.error()));
      return true;
    }
    const std::string_view spec_json =
        request->need_plan
            ? std::string_view((*coordinator)->campaign_spec_json())
            : std::string_view();
    send_frame(*conn, encode_result_response(
                          id, encode_lease_result(*grant, spec_json), {}));
    return true;
  }
  if (type == "submit") {
    auto request = parse_submit_request(*doc);
    if (!request) {
      send_frame(*conn, encode_error_response(id, request.error()));
      return true;
    }
    auto coordinator = service_.find_campaign(request->plan_hash);
    if (!coordinator) {
      send_frame(*conn, encode_error_response(id, coordinator.error()));
      return true;
    }
    auto outcome = (*coordinator)
                       ->submit(request->worker, request->token,
                                request->plan_hash, request->wcdp,
                                request->shards, steady_now_ms());
    if (!outcome) {
      send_frame(*conn, encode_error_response(id, outcome.error()));
      return true;
    }
    send_frame(*conn,
               encode_result_response(id, encode_submit_result(*outcome), {}));
    return true;
  }
  if (type == "heartbeat") {
    auto request = parse_heartbeat_request(*doc);
    if (!request) {
      send_frame(*conn, encode_error_response(id, request.error()));
      return true;
    }
    auto coordinator = service_.find_campaign(request->plan_hash);
    if (!coordinator) {
      send_frame(*conn, encode_error_response(id, coordinator.error()));
      return true;
    }
    auto renewed =
        (*coordinator)->heartbeat(request->token, request->ttl_ms,
                                  steady_now_ms());
    if (!renewed) {
      send_frame(*conn, encode_error_response(id, renewed.error()));
      return true;
    }
    send_frame(*conn, encode_result_response(
                          id,
                          encode_heartbeat_result(*renewed,
                                                  (*coordinator)->complete()),
                          {}));
    return true;
  }
  if (type == "shutdown") {
    send_frame(*conn,
               encode_result_response(id, "{\"kind\":\"shutdown\"}", {}));
    request_shutdown();
    return false;
  }
  if (type == "sweep") {
    auto request = parse_sweep_request(*doc);
    if (!request) {
      send_frame(*conn, encode_error_response(id, request.error()));
      return true;
    }
    auto admitted = queue_.submit(
        conn->id, id,
        [this, conn, id, request = std::move(*request)](
            const common::CancelToken& token) {
          auto outcome = service_.sweep(request, token);
          send_frame(*conn,
                     outcome ? encode_result_response(id, outcome->result_json,
                                                      outcome->stats)
                             : encode_error_response(id, outcome.error()));
        });
    if (!admitted.ok()) {
      send_frame(*conn, encode_error_response(id, admitted.error()));
    }
    return true;
  }
  if (type == "inject") {
    auto request = parse_inject_request(*doc);
    if (!request) {
      send_frame(*conn, encode_error_response(id, request.error()));
      return true;
    }
    auto admitted = queue_.submit(
        conn->id, id,
        [this, conn, id, request = std::move(*request)](
            const common::CancelToken& token) {
          auto outcome = service_.inject(request, token);
          send_frame(*conn,
                     outcome ? encode_result_response(id, outcome->result_json,
                                                      outcome->stats)
                             : encode_error_response(id, outcome.error()));
        });
    if (!admitted.ok()) {
      send_frame(*conn, encode_error_response(id, admitted.error()));
    }
    return true;
  }
  if (type == "replay") {
    std::string dump = doc->string_or("dump", "");
    auto admitted = queue_.submit(
        conn->id, id,
        [this, conn, id, dump = std::move(dump)](
            const common::CancelToken& token) {
          auto outcome = service_.replay(dump, token);
          send_frame(*conn,
                     outcome ? encode_result_response(id, outcome->result_json,
                                                      outcome->stats)
                             : encode_error_response(id, outcome.error()));
        });
    if (!admitted.ok()) {
      send_frame(*conn, encode_error_response(id, admitted.error()));
    }
    return true;
  }
  send_frame(*conn,
             encode_error_response(
                 id, Error{ErrorCode::kUnknownRequest,
                           "unknown request type '" + type + "'"}));
  return true;
}

void Server::send_frame(Connection& conn, std::string_view payload) {
  std::lock_guard lock(conn.write_mu);
  // A vanished client makes the write fail; the reader loop notices the
  // same condition on its side, so the failure needs no handling here.
  (void)write_frame(conn.socket, payload);
}

int run_daemon(const DaemonOptions& options) {
  auto server = Server::start(options.config);
  if (!server) {
    std::fprintf(stderr, "vppd: %s\n", server.error().to_string().c_str());
    return 3;
  }
  if (!options.port_file.empty()) {
    const std::string tmp = options.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "vppd: cannot write %s\n", tmp.c_str());
      return 3;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>((*server)->port()));
    std::fclose(f);
    if (std::rename(tmp.c_str(), options.port_file.c_str()) != 0) {
      std::fprintf(stderr, "vppd: cannot publish %s\n",
                   options.port_file.c_str());
      return 3;
    }
  }
  std::printf("vppd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  (*server)->wait();
  (*server)->stop();
  return 0;
}

}  // namespace vppstudy::server
