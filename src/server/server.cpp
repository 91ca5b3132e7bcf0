#include "server/server.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/durable_file.hpp"
#include "common/json.hpp"
#include "server/protocol.hpp"

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;

namespace {

// Each verb turns a decoded request into its Reply; only handle_frame and
// the job it queues encode a Reply into a frame.

/// The result document (plus request stats), or the typed error.
using Reply = common::Result<Service::Outcome>;
/// A queued verb's work, run on a JobQueue dispatcher thread.
using Work = std::function<Reply(const common::CancelToken&)>;

/// What an inline verb may touch besides its request.
struct Context {
  Service& service;
  JobQueue& queue;
  std::uint64_t client_id;
};

Service::Outcome result(std::string result_json) {
  Service::Outcome outcome;
  outcome.result_json = std::move(result_json);
  return outcome;
}

std::string encode_reply(std::uint64_t id, const Reply& reply) {
  return reply ? encode_result_response(id, reply->result_json, reply->stats)
               : encode_error_response(id, reply.error());
}

common::Result<common::JsonValue> decode_request(const std::string& payload) {
  VPP_ASSIGN_OR_RETURN(common::JsonValue doc, common::parse_json(payload));
  if (!doc.is_object()) {
    return Error{ErrorCode::kParseError, "request must be a JSON object"};
  }
  return doc;
}

Reply unknown(const Context&, const common::JsonValue& doc) {
  return Error{ErrorCode::kUnknownRequest,
               "unknown request type '" + doc.string_or("type", "") + "'"};
}

Reply ping(const Context&, const common::JsonValue&) {
  return result("{\"kind\":\"pong\"}");
}

Reply shutdown(const Context&, const common::JsonValue&) {
  return result("{\"kind\":\"shutdown\"}");
}

Reply stats(const Context& ctx, const common::JsonValue&) {
  const ResultCache::Stats cache = ctx.service.cache_stats();
  const JobQueue::Stats jobs = ctx.queue.stats();
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
  return result(w.str());
}

Reply cancel(const Context& ctx, const common::JsonValue& doc) {
  const bool found = ctx.queue.cancel(ctx.client_id, doc.uint_or("target", 0));
  common::JsonWriter w;
  w.begin_object().kv("kind", "cancel").kv("found", found).end_object();
  return result(w.str());
}

// The campaign verbs are inline too: the coordinator's merge is bookkeeping;
// the shard compute runs on the workers.
Reply campaign_open(const Context& ctx, const common::JsonValue& doc) {
  const common::JsonValue* spec_doc = doc.find("campaign");
  if (spec_doc == nullptr || !spec_doc->is_object()) {
    return Error{ErrorCode::kInvalidArgument,
                 "campaign_open needs a campaign spec object"};
  }
  VPP_ASSIGN_OR_RETURN(const core::CampaignManifest spec,
                       core::parse_campaign_manifest(*spec_doc));
  VPP_ASSIGN_OR_RETURN(const auto coordinator,
                       ctx.service.open_campaign(spec));
  const CampaignCoordinator::Status status = coordinator->status();
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
  return result(w.str());
}

Reply lease(const Context& ctx, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(const LeaseRequest request, parse_lease_request(doc));
  VPP_ASSIGN_OR_RETURN(const auto coordinator,
                       ctx.service.find_campaign(request.plan_hash));
  VPP_ASSIGN_OR_RETURN(const LeaseGrant grant,
                       coordinator->lease(request.worker, request.max_shards,
                                          request.ttl_ms, steady_now_ms()));
  // need_plan splices the coordinator's cached spec text verbatim.
  return result(encode_lease_result(
      grant, request.need_plan
                 ? std::string_view(coordinator->campaign_spec_json())
                 : std::string_view()));
}

Reply submit(const Context& ctx, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(const SubmitRequest request, parse_submit_request(doc));
  VPP_ASSIGN_OR_RETURN(const auto coordinator,
                       ctx.service.find_campaign(request.plan_hash));
  VPP_ASSIGN_OR_RETURN(
      const SubmitOutcome outcome,
      coordinator->submit(request.worker, request.token, request.plan_hash,
                          request.wcdp, request.shards, steady_now_ms()));
  return result(encode_submit_result(outcome));
}

Reply heartbeat(const Context& ctx, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(const HeartbeatRequest request,
                       parse_heartbeat_request(doc));
  VPP_ASSIGN_OR_RETURN(const auto coordinator,
                       ctx.service.find_campaign(request.plan_hash));
  VPP_ASSIGN_OR_RETURN(const std::uint64_t renewed,
                       coordinator->heartbeat(request.token, request.ttl_ms,
                                              steady_now_ms()));
  return result(encode_heartbeat_result(renewed, coordinator->complete()));
}

common::Result<Work> sweep(Service& service, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(SweepRequest request, parse_sweep_request(doc));
  return Work([&service, request = std::move(request)](
                  const common::CancelToken& token) {
    return service.sweep(request, token);
  });
}

common::Result<Work> inject(Service& service, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(InjectRequest request, parse_inject_request(doc));
  return Work([&service, request = std::move(request)](
                  const common::CancelToken& token) {
    return service.inject(request, token);
  });
}

common::Result<Work> replay(Service& service, const common::JsonValue& doc) {
  VPP_ASSIGN_OR_RETURN(softmc::TraceDump dump, parse_replay_request(doc));
  return Work([&service, dump = std::move(dump)](
                  const common::CancelToken& token) {
    return service.replay(dump, token);
  });
}

/// A verb sets `answer` (inline, on the reader thread) or `queued` (parsed
/// on the reader thread, run on a dispatcher thread).
struct Verb {
  std::string_view type;
  Reply (*answer)(const Context&, const common::JsonValue&) = nullptr;
  common::Result<Work> (*queued)(Service&, const common::JsonValue&) = nullptr;
  bool closes = false;  ///< shutdown: the ack is the connection's last frame
};

const Verb& find_verb(std::string_view type) {
  static constexpr Verb kVerbs[] = {
      {.type = "ping", .answer = ping},
      {.type = "stats", .answer = stats},
      {.type = "cancel", .answer = cancel},
      {.type = "campaign_open", .answer = campaign_open},
      {.type = "lease", .answer = lease},
      {.type = "submit", .answer = submit},
      {.type = "heartbeat", .answer = heartbeat},
      {.type = "shutdown", .answer = shutdown, .closes = true},
      {.type = "sweep", .queued = sweep},
      {.type = "inject", .queued = inject},
      {.type = "replay", .queued = replay},
  };
  static constexpr Verb kUnknown{.type = "", .answer = unknown};
  for (const Verb& verb : kVerbs) {
    if (verb.type == type) return verb;
  }
  return kUnknown;
}

}  // namespace

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
  auto request = decode_request(payload);
  // id 0 is the protocol's "unattributable": no id could be decoded.
  const std::uint64_t id = request ? request->uint_or("id", 0) : 0;
  const Verb& verb = find_verb(request ? request->string_or("type", "") : "");
  if (request && verb.queued != nullptr) {
    // Parsed here, so a malformed request never takes a queue slot or
    // quota. An admitted job answers when it finishes.
    auto admitted = verb.queued(service_, *request).and_then([&](Work work) {
      return queue_.submit(
          conn->id, id,
          [this, conn, id, work = std::move(work)](
              const common::CancelToken& token) {
            send_frame(*conn, encode_reply(id, work(token)));
          });
    });
    if (admitted) return true;
    request = std::move(admitted).error();  // refused: answered below
  }
  const Reply reply = request.and_then([&](const common::JsonValue& doc) {
    return verb.answer(Context{service_, queue_, conn->id}, doc);
  });
  send_frame(*conn, encode_reply(id, reply));
  const bool closes = reply && verb.closes;
  if (closes) request_shutdown();
  return !closes;
}

void Server::send_frame(Connection& conn, std::string_view payload) {
  std::lock_guard lock(conn.write_mu);
  // A vanished client makes the write fail; the reader loop notices the
  // same condition on its side, so the failure needs no handling here.
  (void)write_frame(conn.socket, payload);
}

bool publish_port(const std::string& path, std::uint16_t port) {
  return common::write_file_atomic(path, {std::to_string(port), "\n"});
}

int run_daemon(const DaemonOptions& options) {
  auto server = Server::start(options.config);
  if (!server) {
    std::fprintf(stderr, "vppd: %s\n", server.error().to_string().c_str());
    return 3;
  }
  if (!options.port_file.empty() &&
      !publish_port(options.port_file, (*server)->port())) {
    std::fprintf(stderr, "vppd: cannot publish %s\n",
                 options.port_file.c_str());
    return 3;
  }
  std::printf("vppd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  (*server)->wait();
  (*server)->stop();
  return 0;
}

}  // namespace vppstudy::server
