// The four end-to-end workloads, timed with tracing off. Each repeats its
// unit of work for the run's --seconds and reports medians over the
// repetitions; setup_s comes from fresh set-up processes (setup_only).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/worker.hpp"

namespace vppbench {

namespace {

// --- Set-up --------------------------------------------------------------------
// Everything a workload does before its first shard or request.

/// Tells the parent process that set-up is done: one byte on stdout.
/// Returns the exit code of a set-up process.
int signal_ready() {
  const char byte = '\n';
  return ::write(STDOUT_FILENO, &byte, 1) == 1 ? 0 : 1;
}

/// A campaign's set-up is the engine's own: module DB, plan compilation,
/// manifest init and pool start. The engine asks its store first just
/// before its first WCDP prep (Alg. 1) or tRCD shard (Alg. 2), so that first
/// lookup ends the set-up process.
class ReadyStore final : public core::CellStore {
 public:
  bool lookup_wcdp(const dram::ModuleProfile&,
                   std::vector<dram::DataPattern>*) override {
    std::_Exit(signal_ready());
  }
  bool lookup_trcd(const dram::ModuleProfile&, const core::AxisPoint&,
                   std::uint32_t, harness::TrcdRowResult*) override {
    std::_Exit(signal_ready());
  }
};

/// The vppd daemon bound, and every client connected and answered.
struct VppdRig {
  std::unique_ptr<server::Server> daemon;
  std::vector<server::Client> clients;  // close before the daemon stops
};

common::Result<VppdRig> start_vppd() {
  VppdRig rig;
  VPP_ASSIGN_OR_RETURN(rig.daemon, server::Server::start(vppd_config()));
  for (int c = 0; c < kVppdClients; ++c) {
    VPP_ASSIGN_OR_RETURN(server::Client client,
                         server::Client::connect(rig.daemon->port()));
    VPP_RETURN_IF_ERROR(client.ping());
    rig.clients.push_back(std::move(client));
  }
  return rig;
}

/// The coordinator daemon bound with the campaign open, and one worker
/// connection answered -- what `vppctl campaign distribute` does before
/// its workers lease.
common::Result<std::unique_ptr<server::Server>> start_coordinator(
    const core::CampaignPlan& plan, const std::string& manifest) {
  VPP_ASSIGN_OR_RETURN(std::unique_ptr<server::Server> daemon,
                       server::Server::start(server::Server::Config{}));
  VPP_ASSIGN_OR_RETURN(std::unique_ptr<server::CampaignCoordinator> coordinator,
                       server::CampaignCoordinator::open(
                           plan, core::JobPhase::kRowHammer, manifest));
  daemon->service().adopt_campaign(std::move(coordinator));
  VPP_ASSIGN_OR_RETURN(server::Client client,
                       server::Client::connect(daemon->port()));
  VPP_RETURN_IF_ERROR(client.ping());
  return daemon;
}

double timed_setup(const Options& options, Report& report) {
  const double setup_s = spawned_setup_s(options);
  if (setup_s < 0.0) report.fail("a set-up process failed");
  return setup_s;
}

/// Holds the first repetition's output digests; every later repetition
/// must reproduce them byte for byte.
class OutputPin {
 public:
  using Digests = std::vector<std::pair<std::string, std::string>>;

  void observe(Digests digests, int iteration, Report& report) {
    if (iteration == 0) {
      first_ = std::move(digests);
      return;
    }
    if (digests != first_) {
      report.fail("repetition " + std::to_string(iteration) +
                  " produced different output than the first");
    }
  }
  void publish(Report& report) const {
    for (const auto& [key, hex] : first_) report.output(key, hex);
  }

 private:
  Digests first_;
};

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

void report_common(Report& report, double setup_s,
                   const std::vector<double>& walls, std::uint64_t cells,
                   double rss_mb) {
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(static_cast<double>(cells) / w);
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("cells_per_s", median(rates), "1/s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.info("iteration_walls_s", join(walls));
  report.info("cells_per_iteration", std::to_string(cells));
}

void report_fail_frac(Report& report, std::uint64_t attempted,
                      std::uint64_t failed) {
  report.count_ops(attempted, failed);
  report.metric("fail_frac",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                "ratio");
}

}  // namespace

void run_alg1_campaign(const Options& options, Report& report) {
  const double setup_s = timed_setup(options, report);
  core::CampaignPlan plan = alg1_plan(options.seed);
  plan.manifest_path = options.out_dir + "/alg1-manifest.json";
  remove_manifest(plan.manifest_path);
  const std::uint64_t shards =
      planned_shards(plan, core::JobPhase::kRowHammer);

  std::optional<common::Expected<std::vector<core::HammerGrid>>> result;
  std::vector<core::HammerGrid> first;
  OutputPin pin;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::vector<double> walls = repeat_for(
      options.seconds, kMinIterations,
      [&](int) { result.emplace(core::CampaignEngine(plan).run_hammer()); },
      [&](int i, double) {
        remove_manifest(plan.manifest_path);
        attempted += shards;
        if (!*result) {
          failed += shards;
          report.fail("alg1 campaign: " + result->error().to_string());
          return;
        }
        pin.observe(grid_digests("alg1_campaign", **result), i, report);
        if (i == 0) first = std::move(**result);
      });
  report_common(report, setup_s, walls, cell_count(first), peak_rss_mb());
  report_fail_frac(report, attempted, failed);
  pin.publish(report);
  if (!first.empty()) {
    verify_shards(plan, core::JobPhase::kRowHammer, first, options.seed,
                  report);
  }
}

void run_alg23_campaign(const Options& options, Report& report) {
  const double setup_s = timed_setup(options, report);
  const core::CampaignPlan trcd = trcd_plan(options.seed);
  const core::CampaignPlan retention = retention_plan(options.seed);
  const std::uint64_t shards =
      planned_shards(trcd, core::JobPhase::kTrcd) +
      planned_shards(retention, core::JobPhase::kRetention);

  std::optional<common::Expected<std::vector<core::TrcdGrid>>> trcd_result;
  std::optional<common::Expected<std::vector<core::RetentionGrid>>>
      retention_result;
  std::vector<core::TrcdGrid> trcd_first;
  std::vector<core::RetentionGrid> retention_first;
  OutputPin pin;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::vector<double> walls = repeat_for(
      options.seconds, kMinIterations,
      [&](int) {
        trcd_result.emplace(core::CampaignEngine(trcd).run_trcd());
        retention_result.emplace(
            core::CampaignEngine(retention).run_retention());
      },
      [&](int i, double) {
        attempted += shards;
        if (!*trcd_result || !*retention_result) {
          failed += shards;
          report.fail("alg23 campaign: " +
                      (*trcd_result ? retention_result->error()
                                    : trcd_result->error())
                          .to_string());
          return;
        }
        auto digests = grid_digests("alg23_campaign/trcd", **trcd_result);
        for (auto& d : grid_digests("alg23_campaign/retention",
                                    **retention_result)) {
          digests.push_back(std::move(d));
        }
        pin.observe(std::move(digests), i, report);
        if (i == 0) {
          trcd_first = std::move(**trcd_result);
          retention_first = std::move(**retention_result);
        }
      });
  report_common(report, setup_s, walls,
                cell_count(trcd_first) + cell_count(retention_first),
                peak_rss_mb());
  report_fail_frac(report, attempted, failed);
  pin.publish(report);
  if (!trcd_first.empty()) {
    verify_shards(trcd, core::JobPhase::kTrcd, trcd_first, options.seed,
                  report);
    verify_shards(retention, core::JobPhase::kRetention, retention_first,
                  options.seed, report);
  }
}

// --- vppd_mix ----------------------------------------------------------------------

namespace {

struct Reply {
  bool ok = false;
  double ms = 0.0;
  std::uint64_t cells = 0;
  bool miss = false;  ///< computed at least one cell
  std::string digest;  ///< of the result's canonical text
  std::string error;
};

/// Serve `requests` closed-loop: each client sends its next request only
/// after its previous reply arrived; together they walk the sequence in
/// order. One Reply per request. Like any client, each reads its response
/// before sending the next request: it renders the result's canonical text
/// and keeps only that text's digest, so memory does not grow with the
/// run.
std::vector<Reply> serve(std::vector<server::Client>& clients,
                         const std::vector<server::SweepRequest>& requests) {
  std::vector<Reply> replies(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (server::Client& client : clients) {
    threads.emplace_back([&replies, &requests, &next, &client] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        Reply& out = replies[i];
        try {
          const Clock::time_point t0 = Clock::now();
          auto response = client.sweep(requests[i]);
          out.ms = seconds_between(t0, Clock::now()) * 1e3;
          if (!response) {
            out.error = response.error().to_string();
            continue;
          }
          out.ok = true;
          out.cells = response->stats.cache_hits + response->stats.cache_misses;
          out.miss = response->stats.cache_misses > 0;
          out.digest = digest(json_text(response->result));
        } catch (const std::exception& e) {
          out.ok = false;
          out.error = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return replies;
}

/// Folds passes into latency histograms and checks that every repeat of a
/// request returns its first response's bytes.
class PassLedger {
 public:
  PassLedger(const std::vector<server::SweepRequest>& sequence, Report& report)
      : sequence_(sequence), report_(report) {}

  /// Returns the cells the pass served.
  std::uint64_t add(const std::vector<Reply>& pass) {
    std::uint64_t cells = 0;
    const bool first_pass = passes_++ == 0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const Reply& r = pass[i];
      ++attempted_;
      if (!r.ok) {
        ++failed_;
        if (errors_.size() < 3) errors_.push_back(r.error);
        continue;
      }
      cells += r.cells;
      all_.add(r.ms);
      (r.miss ? miss_ : hit_).add(r.ms);
      if (first_pass) sequence_digests_ += r.digest;
      const auto [it, fresh] =
          first_.emplace(request_key(sequence_[i]), r.digest);
      if (!fresh && it->second != r.digest) {
        report_.fail("repeat of request " + request_key(sequence_[i]) +
                     " returned different bytes than its first response");
      }
    }
    return cells;
  }

  void publish(Report& report) const {
    report.metric("req_p50_ms", all_.quantile(0.5), "ms");
    report.metric("req_p95_ms", all_.quantile(0.95), "ms");
    report.metric("miss_req_p50_ms", miss_.quantile(0.5), "ms");
    report.metric("hit_req_p50_ms", hit_.quantile(0.5), "ms");
    report_fail_frac(report, attempted_, failed_);
    report.output("vppd_mix/results", digest(sequence_digests_));
    report.info("requests", std::to_string(attempted_));
    report.info("miss_requests", std::to_string(miss_.count()));
    for (const std::string& e : errors_) report.info("request_error", e);
  }

 private:
  const std::vector<server::SweepRequest>& sequence_;
  Report& report_;
  LatencyHistogram all_;
  LatencyHistogram hit_;
  LatencyHistogram miss_;
  std::map<std::string, std::string> first_;
  std::string sequence_digests_;
  std::vector<std::string> errors_;
  std::uint64_t passes_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace

void run_vppd_mix(const Options& options, Report& report) {
  const double setup_s = timed_setup(options, report);
  auto rig = start_vppd();
  if (!rig) {
    report.fail("vppd setup: " + rig.error().to_string());
    return;
  }
  const std::vector<server::SweepRequest> sequence = vppd_sequence(options.seed);
  PassLedger ledger(sequence, report);
  const Clock::time_point cold_start = Clock::now();
  std::vector<Reply> pass = serve(rig->clients, sequence);
  const double cold_wall = seconds_between(cold_start, Clock::now());
  ledger.add(pass);

  // After the cold pass every request is fully cached: these passes time
  // the protocol, queue and cache path with no physics in it.
  std::vector<double> cell_rates;
  std::vector<double> request_rates;
  const std::vector<double> walls = repeat_for(
      options.seconds - cold_wall, kMinIterations,
      [&](int) { pass = serve(rig->clients, sequence); },
      [&](int, double wall_s) {
        const std::uint64_t cells = ledger.add(pass);
        cell_rates.push_back(static_cast<double>(cells) / wall_s);
        request_rates.push_back(static_cast<double>(pass.size()) / wall_s);
      });
  const double rss = peak_rss_mb();
  const server::JobQueue::Stats queue = rig->daemon->queue_stats();
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("cells_per_s", median(cell_rates), "1/s");
  report.metric("peak_rss_mb", rss, "MB");
  report.metric("cold_wall_s", cold_wall, "s");
  report.metric("req_per_s", median(request_rates), "1/s");
  ledger.publish(report);
  report.info("iteration_walls_s", join(walls));
  report.info("queue_rejected",
              std::to_string(queue.rejected_full + queue.rejected_quota));
}

// --- distributed_2w ---------------------------------------------------------------

void run_distributed_2w(const Options& options, Report& report) {
  const core::CampaignPlan plan = distributed_plan(options.seed);
  const std::string manifest = options.out_dir + "/dist-manifest.json";
  remove_manifest(manifest);
  const std::uint64_t shards =
      planned_shards(plan, core::JobPhase::kRowHammer);

  const double setup_s = timed_setup(options, report);
  auto started = start_coordinator(plan, manifest);
  if (!started) {
    report.fail("distributed setup: " + started.error().to_string());
    return;
  }
  server::Server& daemon = **started;

  struct WorkerOutcome {
    bool ok = false;
    server::CampaignWorker::Summary summary;
    std::string error;
  };
  std::vector<WorkerOutcome> outcomes;
  std::optional<common::Expected<std::vector<core::HammerGrid>>> exported;
  std::string iteration_error;
  std::vector<core::HammerGrid> first;
  OutputPin pin;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::vector<double> walls = repeat_for(
      options.seconds, kMinIterations,
      [&](int) {
        iteration_error.clear();
        exported.reset();
        auto coordinator = server::CampaignCoordinator::open(
            plan, core::JobPhase::kRowHammer, manifest);
        if (!coordinator) {
          iteration_error = coordinator.error().to_string();
          return;
        }
        std::shared_ptr<server::CampaignCoordinator> coord =
            std::move(*coordinator);
        daemon.service().adopt_campaign(coord);
        outcomes.assign(kDistributedWorkers, {});
        std::vector<std::thread> workers;
        for (int w = 0; w < kDistributedWorkers; ++w) {
          server::CampaignWorker::Options worker;
          worker.port = daemon.port();
          worker.worker_id = "w" + std::to_string(w + 1);
          worker.lease_shards = kLeaseShards;
          worker.jobs = 1;
          workers.emplace_back([&outcomes, w, worker] {
            auto summary = server::CampaignWorker::run(worker);
            if (summary) {
              outcomes[w].ok = true;
              outcomes[w].summary = *summary;
            } else {
              outcomes[w].error = summary.error().to_string();
            }
          });
        }
        for (std::thread& t : workers) t.join();
        if (!coord->complete()) {
          iteration_error = "campaign incomplete after all workers exited";
          return;
        }
        // The final export: the single-host engine resumed over the merged
        // manifest restores every shard and renders the grids.
        core::CampaignPlan export_plan = plan;
        export_plan.manifest_path = manifest;
        exported.emplace(core::CampaignEngine(export_plan).run_hammer());
      },
      [&](int i, double) {
        remove_manifest(manifest);
        attempted += shards;
        // A dropped batch loses at most one lease of shards; a failed
        // iteration loses all of them, and counts once.
        std::uint64_t lost = 0;
        for (const WorkerOutcome& o : outcomes) {
          if (!o.ok) iteration_error += " worker: " + o.error;
          lost += o.summary.dropped * kLeaseShards + o.summary.duplicates;
        }
        const bool iteration_failed =
            !iteration_error.empty() || !exported || !*exported;
        failed += iteration_failed ? shards : std::min(lost, shards);
        if (iteration_failed) {
          report.fail("distributed run:" + iteration_error +
                      (exported && !*exported
                           ? " export: " + exported->error().to_string()
                           : std::string()));
          return;
        }
        pin.observe(grid_digests("distributed_2w", **exported), i, report);
        if (i == 0) first = std::move(**exported);
      });
  report_common(report, setup_s, walls, cell_count(first), peak_rss_mb());
  report_fail_frac(report, attempted, failed);
  pin.publish(report);
  if (!first.empty()) {
    verify_shards(plan, core::JobPhase::kRowHammer, first, options.seed,
                  report);
  }
}

// --- Set-up processes -----------------------------------------------------------

int setup_only(const Options& options) {
  const std::string manifest = options.out_dir + "/setup-manifest.json";
  remove_manifest(manifest);
  ReadyStore store;
  if (options.workload == "alg1_campaign") {
    core::CampaignPlan plan = alg1_plan(options.seed);
    plan.manifest_path = manifest;
    (void)core::CampaignEngine(plan, &store).run_hammer();
    return 1;  // the engine returned without reaching its first prep
  }
  if (options.workload == "alg23_campaign") {
    (void)core::CampaignEngine(trcd_plan(options.seed), &store).run_trcd();
    return 1;  // the engine returned without reaching its first shard
  }
  if (options.workload == "vppd_mix") {
    const auto rig = start_vppd();
    return rig ? signal_ready() : 1;
  }
  int rc = 1;
  if (auto daemon = start_coordinator(distributed_plan(options.seed), manifest)) {
    rc = signal_ready();
  }
  remove_manifest(manifest);
  return rc;
}

}  // namespace vppbench
