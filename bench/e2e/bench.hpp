// Shared plumbing of the end-to-end benchmark program (vppbench): timing and
// order statistics, output digests, the report printed as a run's result,
// the workload configurations, and the in-memory span recorder of traced
// runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace vppbench {

namespace common = vppstudy::common;
namespace core = vppstudy::core;
namespace dram = vppstudy::dram;
namespace harness = vppstudy::harness;
namespace server = vppstudy::server;
namespace softmc = vppstudy::softmc;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Latencies in fixed memory: 0.1%-wide logarithmic buckets from 1 us to
/// 100 s, so a longer run does not grow the process (peak_rss_mb stays a
/// property of the workload). Quantiles read as the bucket's centre.
class LatencyHistogram {
 public:
  void add(double ms);
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kGrowth = 1.001;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(18500, 0);
  std::uint64_t count_ = 0;
};

/// 64-bit FNV-1a of `bytes` as 16 hex digits: the identity of one
/// deterministic output text (goldens.json pins these for --seed 1).
[[nodiscard]] std::string digest(std::string_view bytes);

/// Canonical text of a parsed JSON document: members in document order, no
/// whitespace, numbers as %.17g. That is the encoding common::JsonWriter
/// emits, so a result parsed off the wire re-renders to the daemon's bytes.
[[nodiscard]] std::string json_text(const common::JsonValue& v);

/// getrusage max RSS of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Bytes this process has handed to write-like syscalls (/proc/self/io
/// wchar); 0 where the kernel does not expose it.
[[nodiscard]] std::uint64_t bytes_written();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string out_dir;  ///< scratch manifests and trace outputs
};

/// The result document of one run, printed as the last line of stdout.
class Report {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Pin a deterministic output by its digest (checked against
  /// goldens.json for --seed 1).
  void output(std::string key, std::string digest_hex);
  /// A correctness check failed.
  void fail(std::string message);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);
  void info(std::string key, std::string value);

  [[nodiscard]] std::string json(const Options& options) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> outputs_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Run `timed` repeatedly until `seconds` of wall time are spent: at least
/// `min_iterations` times, then only while another iteration as long as the
/// last still fits. `untimed(i, wall_s)` runs after each iteration (output
/// checks). Returns each timed iteration's wall time in seconds.
template <typename Timed, typename Untimed>
std::vector<double> repeat_for(double seconds, int min_iterations,
                               Timed&& timed, Untimed&& untimed) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    timed(i);
    walls.push_back(seconds_between(t0, Clock::now()));
    untimed(i, walls.back());
    const double spent = seconds_between(start, Clock::now());
    if (i + 1 >= min_iterations && spent + walls.back() > seconds) break;
  }
  return walls;
}

inline constexpr int kSetupReps = 15;
inline constexpr int kMinIterations = 3;

/// A workload's set-up -- everything before its first shard or request --
/// in this process, then one byte on stdout, then teardown (a campaign's
/// set-up process exits at once instead). Returns the process exit code
/// (vppbench --setup-only).
int setup_only(const Options& options);
/// setup_s: the median over kSetupReps fresh `vppbench --setup-only`
/// processes of the time from spawn until the child reported its set-up
/// done, so process start, static initialization and the module DB count
/// too. Negative when a set-up process failed.
[[nodiscard]] double spawned_setup_s(const Options& options);

// --- Workload configurations --------------------------------------------------
// Built the way vppctl builds them: a SweepRequest expanded through
// server::sweep_config_from_request, so VPP levels are millivolt-quantized
// exactly like `vppctl campaign run`.

/// Alg. 1 over all 30 modules: 4 rows, 0.1 V steps, rows_per_shard 1
/// (846 shards), jobs 2. The caller sets the manifest path.
[[nodiscard]] core::CampaignPlan alg1_plan(std::uint64_t seed);
/// Alg. 2 over all 30 modules: 24 rows, 0.1 V steps, jobs 2, no manifest.
[[nodiscard]] core::CampaignPlan trcd_plan(std::uint64_t seed);
/// Alg. 3 over all 30 modules: 4 rows, 0.1 V steps, jobs 2, no manifest.
[[nodiscard]] core::CampaignPlan retention_plan(std::uint64_t seed);
/// The distributed Alg. 1 plan: alg1_plan with each worker's jobs 1.
[[nodiscard]] core::CampaignPlan distributed_plan(std::uint64_t seed);
inline constexpr int kDistributedWorkers = 2;
inline constexpr std::uint64_t kLeaseShards = 4;

/// The plan restricted to `count` modules drawn by `seed`, in plan order:
/// the sample a traced run decomposes.
[[nodiscard]] core::CampaignPlan sample_modules(core::CampaignPlan plan,
                                               std::uint64_t seed,
                                               std::size_t count);

/// vppd_mix: the seeded request sequence and the daemon that serves it.
inline constexpr std::size_t kVppdRequests = 400;
inline constexpr int kVppdClients = 2;
[[nodiscard]] std::vector<server::SweepRequest> vppd_sequence(
    std::uint64_t seed);
[[nodiscard]] server::Server::Config vppd_config();
/// Identity of a request: equal keys must get byte-identical results.
[[nodiscard]] std::string request_key(const server::SweepRequest& request);
[[nodiscard]] core::JobPhase request_phase(const server::SweepRequest& request);
/// The one-module plan Service::sweep builds for `request`.
[[nodiscard]] core::CampaignPlan request_plan(
    const server::SweepRequest& request);

/// Grid cells (sampled row x grid point) of a grid set.
template <typename Grid>
std::uint64_t cell_count(const std::vector<Grid>& grids) {
  std::uint64_t cells = 0;
  for (const Grid& g : grids) cells += g.rows.size() * g.points.size();
  return cells;
}

/// Digest of every grid's grid_json, keyed "<prefix>/<module>".
template <typename Grid>
std::vector<std::pair<std::string, std::string>> grid_digests(
    const std::string& prefix, const std::vector<Grid>& grids);

/// Recompute one seed-chosen shard per module through
/// core::run_campaign_shards and compare its bytes with `grids`.
template <typename Grid>
void verify_shards(const core::CampaignPlan& plan, core::JobPhase phase,
                   const std::vector<Grid>& grids, std::uint64_t seed,
                   Report& report);

/// The shard record `coord` names, cut out of a finished grid set.
template <typename Grid>
core::ManifestShard shard_from_grids(const std::vector<Grid>& grids,
                                     const core::ShardCoord& coord);

/// Shards the plan compiles to for `phase` (0 when it does not compile).
[[nodiscard]] std::uint64_t planned_shards(const core::CampaignPlan& plan,
                                           core::JobPhase phase);
/// Delete a manifest and its lease ledger, if present.
void remove_manifest(const std::string& path);

/// Manifest-record bytes of a shard without its session counts (grids keep
/// only per-module sums of those).
[[nodiscard]] std::string shard_bytes(core::ManifestShard shard,
                                      core::JobPhase phase);

// --- Workloads ------------------------------------------------------------------

void run_alg1_campaign(const Options& options, Report& report);
void run_alg23_campaign(const Options& options, Report& report);
void run_vppd_mix(const Options& options, Report& report);
void run_distributed_2w(const Options& options, Report& report);

void trace_alg1_campaign(const Options& options, Report& report);
void trace_alg23_campaign(const Options& options, Report& report);
void trace_vppd_mix(const Options& options, Report& report);
void trace_distributed_2w(const Options& options, Report& report);

// --- Spans ------------------------------------------------------------------------

/// Trace layers; each is one track (tid) of the Chrome trace.
enum class Layer : int {
  kServer = 1,
  kCore,
  kHarness,
  kSoftmc,
  kDram,
  kCommon,
};

/// In-memory spans, written out once the run ends. A replayed call and the
/// call it decomposes sit on different layer tracks; `parent` links a span
/// to the call whose result it must reproduce. Thread-safe: each recording
/// thread gets its own lane of every layer's track, so concurrent spans
/// never overlap on one track.
class Tracer {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  Id begin(std::string name, Layer layer, Id parent = kNone,
           std::string key = {});
  void end(Id id);
  /// Record a span timed by the caller.
  Id add(std::string name, Layer layer, Clock::time_point start,
         Clock::time_point end, Id parent = kNone, std::string key = {});

  /// Durations of every span named `name`, in units of `unit_s` seconds.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              double unit_s) const;
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;
  /// Per span name: count, total and self time in ms. Self time is a span's
  /// duration minus the part of it its child spans cover.
  void self_times(common::JsonWriter& json) const;

 private:
  struct Span {
    std::string name;
    Layer layer = Layer::kCore;
    Clock::time_point start;
    Clock::time_point end;
    Id parent = kNone;
    std::string key;
    int lane = 0;
  };
  /// Lane of the calling thread; caller holds mu_.
  int lane_locked();

  mutable std::mutex mu_;
  std::vector<std::thread::id> lanes_;
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on close() or destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, Layer layer,
        Tracer::Id parent = Tracer::kNone, std::string key = {})
      : tracer_(tracer),
        id_(tracer.begin(std::move(name), layer, parent, std::move(key))) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Tracer::Id id() const noexcept { return id_; }
  void close() {
    if (open_) tracer_.end(id_);
    open_ = false;
  }

 private:
  Tracer& tracer_;
  Tracer::Id id_;
  bool open_ = true;
};

}  // namespace vppbench
