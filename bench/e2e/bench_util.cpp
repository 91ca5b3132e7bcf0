#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "bench.hpp"
#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "core/export.hpp"

namespace vppbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void LatencyHistogram::add(double ms) {
  const double steps = ms > kMinMs ? std::log(ms / kMinMs) / std::log(kGrowth) : 0.0;
  const auto i = std::min(static_cast<std::size_t>(steps), buckets_.size() - 1);
  ++buckets_[i];
  ++count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return kMinMs * std::pow(kGrowth, static_cast<double>(i) + 0.5);
  }
  return kMinMs * std::pow(kGrowth, static_cast<double>(buckets_.size()));
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

namespace {

void write_value(common::JsonWriter& w, const common::JsonValue& v) {
  using Kind = common::JsonValue::Kind;
  switch (v.kind()) {
    case Kind::kNull:
      w.raw("null");
      break;
    case Kind::kBool:
      w.value(v.as_bool());
      break;
    case Kind::kNumber:
      w.value(v.as_number());
      break;
    case Kind::kString:
      w.value(std::string_view(v.as_string()));
      break;
    case Kind::kArray:
      w.begin_array();
      for (const common::JsonValue& item : v.items()) write_value(w, item);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        write_value(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string json_text(const common::JsonValue& v) {
  common::JsonWriter w;
  write_value(w, v);
  return w.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t bytes_written() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double spawned_setup_s(const Options& options) {
  const std::string seed = std::to_string(options.seed);
  std::vector<std::string> args = {"vppbench",  options.workload, "--setup-only",
                                   "--seed",    seed,             "--out",
                                   options.out_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const Clock::time_point t0 = Clock::now();
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    char byte = 0;
    ssize_t got = -1;
    if (spawned == 0) {
      do {
        got = ::read(fds[0], &byte, 1);
      } while (got < 0 && errno == EINTR);
    }
    const Clock::time_point t1 = Clock::now();
    ::close(fds[0]);
    int status = 0;
    if (spawned == 0) {
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    if (got != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return -1.0;
    }
    samples.push_back(seconds_between(t0, t1));
  }
  return median(std::move(samples));
}

// --- Report ------------------------------------------------------------------

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::output(std::string key, std::string digest_hex) {
  outputs_.emplace_back(std::move(key), std::move(digest_hex));
}

void Report::fail(std::string message) {
  std::fprintf(stderr, "vppbench: check failed: %s\n", message.c_str());
  failures_.push_back(std::move(message));
}

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::info(std::string key, std::string value) {
  info_.emplace_back(std::move(key), std::move(value));
}

std::string Report::json(const Options& options) const {
  common::JsonWriter w;
  w.begin_object();
  w.kv("workload", std::string_view(options.workload));
  w.kv("seed", options.seed);
  w.kv("trace", options.trace);
  w.kv("correct", failures_.empty());
  w.key("failures").begin_array();
  for (const std::string& f : failures_) w.value(std::string_view(f));
  w.end_array();
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.key("outputs").begin_object();
  for (const auto& [key, hex] : outputs_) w.kv(key, std::string_view(hex));
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [key, value] : info_) w.kv(key, std::string_view(value));
  w.end_object();
  w.end_object();
  return w.str();
}

// --- Workload configurations ---------------------------------------------------

namespace {

core::CampaignPlan campaign_plan(const char* test, std::uint32_t rows,
                                 std::uint64_t seed) {
  server::SweepRequest request;
  request.test = test;
  request.rows = rows;
  request.step = 0.1;
  request.seed = seed;
  core::CampaignPlan plan;
  plan.sweep = server::sweep_config_from_request(request);
  plan.seed = seed;
  plan.jobs = 2;
  plan.rows_per_shard = 4;
  plan.modules = vppstudy::chips::all_profiles();
  return plan;
}

}  // namespace

core::CampaignPlan alg1_plan(std::uint64_t seed) {
  // 4 rows sample 3 per module (the bank-edge row is skipped). One row per
  // shard gives 846 shards, and so 846 manifest rewrites, against the 1,128
  // of the full-size campaign (16 rows, 15 sampled, 4 per shard) at a fifth
  // of its physics.
  core::CampaignPlan plan = campaign_plan("rowhammer", 4, seed);
  plan.rows_per_shard = 1;
  return plan;
}

core::CampaignPlan trcd_plan(std::uint64_t seed) {
  return campaign_plan("trcd", 24, seed);
}

core::CampaignPlan retention_plan(std::uint64_t seed) {
  return campaign_plan("retention", 4, seed);
}

core::CampaignPlan distributed_plan(std::uint64_t seed) {
  core::CampaignPlan plan = alg1_plan(seed);
  plan.jobs = 1;
  return plan;
}

core::CampaignPlan sample_modules(core::CampaignPlan plan, std::uint64_t seed,
                                  std::size_t count) {
  std::vector<std::size_t> order(plan.modules.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  common::Xoshiro256 rng(common::hash_key({seed, 0x73616d706c65ULL}));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  order.resize(std::min(count, order.size()));
  std::sort(order.begin(), order.end());
  std::vector<dram::ModuleProfile> picked;
  for (const std::size_t i : order) picked.push_back(plan.modules[i]);
  plan.modules = std::move(picked);
  return plan;
}

std::vector<server::SweepRequest> vppd_sequence(std::uint64_t seed) {
  // The mix's composition is drawn once from a fixed stream: Zipf-like
  // module popularity over the module DB order, so overlapping grids on the
  // popular modules give partial and full cache hits. The seed picks the
  // arrival order and the campaign seed every request carries, which keeps
  // the cells a cold daemon must compute the same set for every seed.
  constexpr double kZipfExponent = 2.2;
  const auto& profiles = vppstudy::chips::all_profiles();
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf.push_back(total);
  }
  common::Xoshiro256 mix(0x7670706d6978ULL);
  std::vector<server::SweepRequest> out;
  out.reserve(kVppdRequests);
  for (std::size_t i = 0; i < kVppdRequests; ++i) {
    server::SweepRequest r;
    const double u = mix.uniform() * total;
    const auto m = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    r.module = profiles[std::min(m, profiles.size() - 1)].name;
    const double t = mix.uniform();
    r.test = t < 0.6 ? "rowhammer" : t < 0.8 ? "trcd" : "retention";
    r.rows = 8;
    static constexpr double kSteps[] = {0.1, 0.2, 0.3};
    r.step = kSteps[mix.bounded(3)];
    r.seed = seed;
    if (mix.uniform() < 0.25) r.temps = {50.0, 65.0};
    out.push_back(std::move(r));
  }
  common::Xoshiro256 order(common::hash_key({seed, 0x7670706464ULL}));
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[order.bounded(i)]);
  }
  return out;
}

server::Server::Config vppd_config() {
  server::Server::Config config;
  config.service.jobs = 2;
  config.service.rows_per_shard = 4;
  return config;
}

std::string request_key(const server::SweepRequest& r) {
  std::string key = r.module + "/" + r.test + "/" + std::to_string(r.rows) +
                    "/" + std::to_string(r.step) + "/" + std::to_string(r.seed);
  for (const double t : r.temps) key += "/" + std::to_string(t);
  return key;
}

core::JobPhase request_phase(const server::SweepRequest& request) {
  return request.test == "trcd"        ? core::JobPhase::kTrcd
         : request.test == "retention" ? core::JobPhase::kRetention
                                       : core::JobPhase::kRowHammer;
}

core::CampaignPlan request_plan(const server::SweepRequest& request) {
  core::CampaignPlan plan;
  plan.sweep = server::sweep_config_from_request(request);
  plan.axes.temperatures_c = request.temps;
  plan.modules.push_back(*vppstudy::chips::profile_by_name(request.module));
  plan.seed = request.seed;
  plan.rows_per_shard = vppd_config().service.rows_per_shard;
  return plan;
}

// --- Output checks -------------------------------------------------------------

namespace {

std::vector<harness::RowHammerRowResult>& rows_of(core::ManifestShard& s,
                                                  const core::HammerGrid&) {
  return s.hammer;
}
std::vector<harness::TrcdRowResult>& rows_of(core::ManifestShard& s,
                                             const core::TrcdGrid&) {
  return s.trcd;
}
std::vector<harness::RetentionRowResult>& rows_of(core::ManifestShard& s,
                                                  const core::RetentionGrid&) {
  return s.retention;
}

}  // namespace

template <typename Grid>
std::vector<std::pair<std::string, std::string>> grid_digests(
    const std::string& prefix, const std::vector<Grid>& grids) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Grid& g : grids) {
    out.emplace_back(prefix + "/" + g.module_name,
                     digest(core::grid_json(g).str()));
  }
  return out;
}

template <typename Grid>
core::ManifestShard shard_from_grids(const std::vector<Grid>& grids,
                                     const core::ShardCoord& coord) {
  core::ManifestShard shard;
  shard.module = coord.module;
  shard.point = coord.point;
  shard.row_begin = coord.row_begin;
  shard.row_end = coord.row_end;
  const Grid& g = grids.at(coord.module_index);
  const auto it = std::find(g.points.begin(), g.points.end(), coord.point);
  if (it == g.points.end()) return shard;  // leaves rows empty: a mismatch
  const auto& cells = g.cells[static_cast<std::size_t>(it - g.points.begin())];
  rows_of(shard, g).assign(cells.begin() + coord.row_begin,
                           cells.begin() + coord.row_end);
  return shard;
}

std::uint64_t planned_shards(const core::CampaignPlan& plan,
                             core::JobPhase phase) {
  auto grid = core::compile_campaign_shards(plan, phase);
  return grid ? grid->size() : 0;
}

void remove_manifest(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(core::campaign_ledger_path(path), ec);
}

std::string shard_bytes(core::ManifestShard shard, core::JobPhase phase) {
  shard.counted = false;
  shard.counts = {};
  common::JsonWriter w;
  core::manifest_shard_json(w, shard, phase);
  return w.str();
}

template <typename Grid>
void verify_shards(const core::CampaignPlan& plan, core::JobPhase phase,
                   const std::vector<Grid>& grids, std::uint64_t seed,
                   Report& report) {
  auto grid = core::compile_campaign_shards(plan, phase);
  if (!grid) {
    report.fail("shard grid: " + grid.error().to_string());
    return;
  }
  std::map<std::size_t, std::vector<const core::ShardCoord*>> by_module;
  for (const core::ShardCoord& c : *grid) by_module[c.module_index].push_back(&c);
  std::vector<std::uint64_t> picks;
  for (const auto& [m, coords] : by_module) {
    picks.push_back(coords[common::hash_key({seed, m}) % coords.size()]->index);
  }
  core::CampaignPlan recompute = plan;
  recompute.manifest_path.clear();
  auto batch = core::run_campaign_shards(recompute, phase, picks, nullptr);
  if (!batch) {
    report.fail("shard recompute: " + batch.error().to_string());
    return;
  }
  if (batch->shards.size() != picks.size()) {
    report.fail("shard recompute returned the wrong shard count");
    return;
  }
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const core::ShardCoord& coord = (*grid)[picks[i]];
    if (shard_bytes(batch->shards[i], phase) !=
        shard_bytes(shard_from_grids(grids, coord), phase)) {
      report.fail("recomputed shard " + std::to_string(coord.index) + " of " +
                  coord.module + " differs from the campaign's grid");
    }
  }
  if constexpr (std::is_same_v<Grid, core::HammerGrid>) {
    for (const core::ManifestWcdp& w : batch->wcdp) {
      for (const core::HammerGrid& g : grids) {
        if (g.module_name == w.module && g.wcdp != w.wcdp) {
          report.fail("recomputed WCDP prep of " + w.module + " differs");
        }
      }
    }
  }
}

#define VPPBENCH_GRID_TEMPLATES(Grid)                                        \
  template std::vector<std::pair<std::string, std::string>> grid_digests(   \
      const std::string&, const std::vector<Grid>&);                         \
  template core::ManifestShard shard_from_grids(const std::vector<Grid>&,    \
                                                const core::ShardCoord&);    \
  template void verify_shards(const core::CampaignPlan&, core::JobPhase,     \
                              const std::vector<Grid>&, std::uint64_t,       \
                              Report&);
VPPBENCH_GRID_TEMPLATES(core::HammerGrid)
VPPBENCH_GRID_TEMPLATES(core::TrcdGrid)
VPPBENCH_GRID_TEMPLATES(core::RetentionGrid)
#undef VPPBENCH_GRID_TEMPLATES

// --- Tracer ----------------------------------------------------------------------

Tracer::Id Tracer::begin(std::string name, Layer layer, Id parent,
                         std::string key) {
  const Clock::time_point now = Clock::now();
  return add(std::move(name), layer, now, now, parent, std::move(key));
}

void Tracer::end(Id id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

Tracer::Id Tracer::add(std::string name, Layer layer, Clock::time_point start,
                       Clock::time_point end, Id parent, std::string key) {
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), layer, start, end, parent, std::move(key),
                    lane_locked()});
  return static_cast<Id>(spans_.size() - 1);
}

int Tracer::lane_locked() {
  const std::thread::id me = std::this_thread::get_id();
  const auto it = std::find(lanes_.begin(), lanes_.end(), me);
  if (it != lanes_.end()) return static_cast<int>(it - lanes_.begin());
  lanes_.push_back(me);
  return static_cast<int>(lanes_.size() - 1);
}

std::vector<double> Tracer::durations(std::string_view name,
                                      double unit_s) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(seconds_between(s.start, s.end) / unit_s);
  }
  return out;
}

double Tracer::total_s(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations(name, 1.0)) total += d;
  return total;
}

std::size_t Tracer::count(std::string_view name) const {
  return durations(name, 1.0).size();
}

namespace {

constexpr std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kServer: return "server";
    case Layer::kCore: return "core";
    case Layer::kHarness: return "harness";
    case Layer::kSoftmc: return "softmc";
    case Layer::kDram: return "dram";
    case Layer::kCommon: return "common";
  }
  return "unknown";
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mu_);
  const auto tid = [](Layer layer, int lane) {
    return static_cast<int>(layer) * 100 + lane;
  };
  std::set<std::pair<Layer, int>> tracks;
  for (const Span& s : spans_) tracks.emplace(s.layer, s.lane);
  common::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& [layer, lane] : tracks) {
    std::string name(layer_name(layer));
    if (lane > 0) name += " #" + std::to_string(lane);
    w.begin_object();
    w.kv("name", "thread_name").kv("ph", "M").kv("pid", 1);
    w.kv("tid", tid(layer, lane));
    w.key("args").begin_object().kv("name", std::string_view(name)).end_object();
    w.end_object();
  }
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", std::string_view(s.name)).kv("ph", "X").kv("pid", 1);
    w.kv("tid", tid(s.layer, s.lane));
    w.kv("ts", us(s.start)).kv("dur", us(s.end) - us(s.start));
    w.key("args").begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    if (!s.key.empty()) w.kv("key", std::string_view(s.key));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.write_file(path);
}

void Tracer::self_times(common::JsonWriter& json) const {
  std::lock_guard lock(mu_);
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent == kNone) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const Clock::time_point lo = std::max(s.start, p.start);
    const Clock::time_point hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += seconds_between(lo, hi);
  }
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = seconds_between(spans_[i].start, spans_[i].end);
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_ms += d * 1e3;
    t.self_ms += std::max(0.0, d - covered[i]) * 1e3;
  }
  json.begin_object();
  for (const auto& [name, t] : by_name) {
    json.key(name).begin_object();
    json.kv("count", t.count).kv("total_ms", t.total_ms).kv("self_ms", t.self_ms);
    json.end_object();
  }
  json.end_object();
}

}  // namespace vppbench
