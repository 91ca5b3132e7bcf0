#include "replay.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/units.hpp"
#include "core/parallel_study.hpp"
#include "harness/experiment.hpp"
#include "harness/wcdp.hpp"
#include "softmc/row_ops.hpp"
#include "softmc/session.hpp"

namespace vppbench {

namespace {

using common::Error;
using common::ErrorCode;
using Column = std::array<std::uint8_t, dram::kBytesPerColumn>;

/// The session state every engine shard starts from (refresh off, chamber
/// settled, VPP programmed); the engine's own helper is file-local.
common::Status setup_session(softmc::Session& session, double temp_c,
                             double vpp_v) {
  session.set_auto_refresh(false);
  if (auto st = session.set_temperature(temp_c); !st.ok()) return st;
  return session.set_vpp(vpp_v);
}

/// The harness config at a hammer grid point, as the engine derives it: a
/// hammer-count axis overrides the BER count, an on-time axis the spacing.
harness::RowHammerConfig hammer_config_at(const core::SweepConfig& sweep,
                                          const core::AxisPoint& point) {
  harness::RowHammerConfig config = sweep.hammer;
  if (point.hammer_count != 0) config.ber_hc = point.hammer_count;
  if (point.act_to_act_ns > 0.0) config.act_to_act_ns = point.act_to_act_ns;
  return config;
}

std::string cell_key(const dram::ModuleProfile& profile,
                     const core::AxisPoint& point, std::uint32_t row) {
  return profile.name + " " +
         std::to_string(core::vpp_millivolts(point.vpp_v)) + "mV " +
         std::to_string(core::temperature_millidegrees(point.temperature_c)) +
         "mC row " + std::to_string(row);
}

bool same(const harness::RowHammerRowResult& a,
          const harness::RowHammerRowResult& b) {
  return a.row == b.row && a.wcdp == b.wcdp && a.hc_first == b.hc_first &&
         a.ber == b.ber;
}
bool same(const harness::TrcdRowResult& a, const harness::TrcdRowResult& b) {
  return a.row == b.row && a.wcdp == b.wcdp && a.trcd_min_ns == b.trcd_min_ns;
}
bool same(const harness::RetentionRowResult& a,
          const harness::RetentionRowResult& b) {
  return a.row == b.row && a.wcdp == b.wcdp && a.trefw_ms == b.trefw_ms &&
         a.ber == b.ber;
}

// --- The algorithms' row control flow, over any primitive --------------------
// Each mirrors its harness test_row line for line, so driving it with the
// harness primitive (or that primitive's softmc replay) reproduces test_row.

template <typename MeasureBer>
common::Expected<harness::RowHammerRowResult> alg1_row(
    std::uint32_t row, dram::DataPattern wcdp,
    const harness::RowHammerConfig& config, MeasureBer&& measure_ber) {
  harness::RowHammerRowResult result;
  result.row = row;
  result.wcdp = wcdp;
  for (int i = 0; i < config.num_iterations; ++i) {
    VPP_ASSIGN_OR_RETURN(const double ber, measure_ber(config.ber_hc));
    result.ber = std::max(result.ber, ber);
  }
  std::uint64_t hc = config.initial_hc;
  std::uint64_t step = config.initial_step;
  std::uint64_t smallest_flipping = 0;
  while (step > config.min_step) {
    double worst_ber = 0.0;
    for (int i = 0; i < config.num_iterations; ++i) {
      VPP_ASSIGN_OR_RETURN(const double ber, measure_ber(hc));
      worst_ber = std::max(worst_ber, ber);
    }
    if (worst_ber == 0.0) {
      hc += step;
    } else {
      smallest_flipping =
          smallest_flipping == 0 ? hc : std::min(smallest_flipping, hc);
      hc = hc > step ? hc - step : config.min_step;
    }
    step /= 2;
  }
  result.hc_first = smallest_flipping != 0 ? smallest_flipping : hc;
  return result;
}

template <typename IsFaulty>
common::Expected<harness::TrcdRowResult> alg2_row(
    std::uint32_t row, dram::DataPattern wcdp,
    const harness::TrcdConfig& config, IsFaulty&& is_faulty) {
  harness::TrcdRowResult result;
  result.row = row;
  result.wcdp = wcdp;
  double trcd = config.start_ns;
  bool found_faulty = false;
  bool found_reliable = false;
  double trcd_min = config.start_ns;
  while (!found_faulty || !found_reliable) {
    VPP_ASSIGN_OR_RETURN(const bool faulty, is_faulty(trcd));
    if (faulty) {
      found_faulty = true;
      trcd += config.step_ns;
      if (trcd > config.max_ns) {
        return Error{ErrorCode::kInvalidArgument,
                     "row never became reliable below the search bound"};
      }
    } else {
      found_reliable = true;
      trcd_min = trcd;
      trcd -= config.step_ns;
      if (trcd <= 0.0) break;
    }
  }
  result.trcd_min_ns = trcd_min;
  return result;
}

template <typename MeasureBer>
common::Expected<harness::RetentionRowResult> alg3_row(
    std::uint32_t row, dram::DataPattern wcdp,
    const harness::RetentionConfig& config, MeasureBer&& measure_ber) {
  harness::RetentionRowResult result;
  result.row = row;
  result.wcdp = wcdp;
  for (double trefw = config.min_trefw_ms; trefw <= config.max_trefw_ms;
       trefw *= 2.0) {
    double worst = 0.0;
    for (int i = 0; i < config.num_iterations; ++i) {
      VPP_ASSIGN_OR_RETURN(const double ber, measure_ber(trefw));
      worst = std::max(worst, ber);
    }
    result.trefw_ms.push_back(trefw);
    result.ber.push_back(worst);
  }
  return result;
}

// --- The softmc and dram layers ------------------------------------------------

/// A softmc session plus two twin devices fed the session's command stream
/// directly. The first twin is timed as a whole per program (the dispatch
/// baseline); the second is timed per device call (the dram spans), so its
/// timer reads never inflate the baseline.
class Rig {
 public:
  Rig(ReplayContext& ctx, const dram::ModuleProfile& profile)
      : ctx_(ctx),
        session_(profile),
        ops_(session_.timing()),
        twin_(profile),
        probe_(profile) {}

  common::Status setup(double temp_c, double vpp_v) {
    VPP_RETURN_IF_ERROR(setup_session(session_, temp_c, vpp_v));
    for (dram::Module* m : {&twin_, &probe_}) {
      m->set_vpp(session_.module().vpp());
      m->set_temperature(session_.module().temperature());
    }
    return common::Status::ok_status();
  }

  void key(std::uint64_t stream) {
    session_.set_noise_stream(stream);
    twin_.set_noise_stream(stream);
    probe_.set_noise_stream(stream);
  }

  [[nodiscard]] const dram::RowMapping& mapping() const {
    return session_.module().mapping();
  }

  [[nodiscard]] std::uint64_t device_flips() const {
    const dram::ModuleStats& s = probe_.stats();
    return s.hammer_bit_flips + s.retention_bit_flips + s.trcd_read_errors;
  }

  /// One session operation: build its RowOps program, run it with
  /// Session::execute, then send the same commands to both twins, whose
  /// reads must equal the session's. `readback` marks programs whose ACT
  /// senses the row under test.
  template <typename Build>
  common::Expected<softmc::ExecutionResult> op(std::string_view name,
                                               Build&& build,
                                               Tracer::Id parent,
                                               bool readback) {
    Tracer& tracer = ctx_.tracer;
    Scope span(tracer, "softmc." + std::string(name), Layer::kSoftmc, parent);
    const Clock::time_point t0 = Clock::now();
    common::Expected<softmc::Program> program = build(ops_);
    const Clock::time_point t1 = Clock::now();
    if (!program) return std::move(program).error();
    softmc::ExecutionResult result = session_.execute(*program);
    const Clock::time_point t2 = Clock::now();
    span.close();
    tracer.add("softmc.build", Layer::kSoftmc, t0, t1, span.id());
    tracer.add("softmc.execute", Layer::kSoftmc, t1, t2, span.id());
    if (!result.status.ok()) return std::move(result.status).error();

    const Clock::time_point d0 = Clock::now();
    auto direct = send(twin_, twin_clock_, *program, Tracer::kNone, readback);
    const Clock::time_point d1 = Clock::now();
    const Tracer::Id program_span = tracer.add(
        "dram.program", Layer::kDram, d0, d1, span.id(), std::string(name));
    auto probed = send(probe_, probe_clock_, *program, program_span, readback);
    if (!direct) return std::move(direct).error();
    if (!probed) return std::move(probed).error();
    if (*direct != result.reads || *probed != result.reads) {
      return Error{ErrorCode::kUnknown,
                   "direct dram::Module reads differ from Session::execute"};
    }
    return result;
  }

 private:
  /// The dispatcher's clock arithmetic and device calls, minus observers.
  /// With a `timed` parent, every device call gets a dram span (column
  /// bursts one span each, with their length as the key).
  common::Expected<std::vector<Column>> send(dram::Module& m, double& clock,
                                              const softmc::Program& program,
                                              Tracer::Id timed,
                                              bool readback) {
    std::vector<Column> reads;
    reads.reserve(program.read_count());
    Clock::time_point burst_start{};
    std::uint64_t burst = 0;
    const auto close_burst = [&] {
      if (burst == 0) return;
      const Clock::time_point now = Clock::now();
      ctx_.tracer.add("dram.columns", Layer::kDram, burst_start, now, timed,
                      std::to_string(burst));
      ctx_.stats.column_ops += burst;
      ctx_.stats.column_s += seconds_between(burst_start, now);
      burst = 0;
    };
    const bool time_calls = timed != Tracer::kNone;
    for (const softmc::Instruction& inst : program.instructions()) {
      clock += inst.slots_after_previous * common::kCommandSlotNs;
      if (inst.extra_wait_ns > 0.0) clock += inst.extra_wait_ns;
      const bool column = inst.kind == dram::CommandKind::kRead ||
                          inst.kind == dram::CommandKind::kWrite;
      if (time_calls) {
        if (!column) {
          close_burst();
        } else if (burst == 0) {
          burst_start = Clock::now();
        }
      }
      const Clock::time_point t0 = time_calls ? Clock::now() : Clock::time_point{};
      common::Status st;
      const char* span = nullptr;
      switch (inst.kind) {
        case dram::CommandKind::kActivate:
          if (inst.loop_count > 0) {
            double now = clock;
            st = inst.loop_row_b == inst.row
                     ? m.hammer_single(inst.bank, inst.row, inst.loop_count,
                                       inst.loop_act_to_act_ns, now)
                     : m.hammer_pair(inst.bank, inst.row, inst.loop_row_b,
                                     inst.loop_count, inst.loop_act_to_act_ns,
                                     now);
            clock = now;
            span = "dram.hammer_pair";
          } else {
            st = m.activate(inst.bank, inst.row, clock);
            span = readback ? "dram.activate_readback" : "dram.activate";
          }
          break;
        case dram::CommandKind::kPrecharge:
          st = m.precharge(inst.bank, clock);
          span = "dram.precharge";
          break;
        case dram::CommandKind::kPrechargeAll:
          st = m.precharge_all(clock);
          span = "dram.precharge";
          break;
        case dram::CommandKind::kRead: {
          auto data = m.read(inst.bank, inst.column, clock);
          if (data) {
            reads.push_back(*data);
          } else {
            st = std::move(data).error();
          }
          break;
        }
        case dram::CommandKind::kWrite:
          st = m.write(inst.bank, inst.column, inst.write_data, clock);
          break;
        case dram::CommandKind::kRefresh:
          st = m.refresh(clock);
          span = "dram.refresh";
          break;
        case dram::CommandKind::kNop:
          break;
      }
      if (time_calls && span != nullptr) {
        ctx_.tracer.add(span, Layer::kDram, t0, Clock::now(), timed);
      }
      if (time_calls && column) ++burst;
      if (!st.ok()) return std::move(st).error();
    }
    if (time_calls) close_burst();
    return reads;
  }

  ReplayContext& ctx_;
  softmc::Session session_;
  softmc::RowOps ops_;
  dram::Module twin_;
  dram::Module probe_;
  double twin_clock_ = 0.0;
  double probe_clock_ = 0.0;
};

common::Expected<std::vector<std::uint8_t>> row_image(
    const softmc::ExecutionResult& r) {
  if (r.reads.size() != dram::kColumnsPerRow) {
    return Error{ErrorCode::kReadUnderrun, "row readout returned " +
                                               std::to_string(r.reads.size()) +
                                               " bursts"};
  }
  std::vector<std::uint8_t> out(dram::kBytesPerRow);
  for (std::size_t c = 0; c < r.reads.size(); ++c) {
    std::copy(r.reads[c].begin(), r.reads[c].end(),
              out.begin() + c * dram::kBytesPerColumn);
  }
  return out;
}

using Build = common::Expected<softmc::Program>;

/// RowHammerTest::measure_ber as session operations.
common::Expected<double> rig_hammer_ber(Rig& rig, std::uint32_t bank,
                                        std::uint32_t row,
                                        dram::DataPattern pattern,
                                        std::uint64_t hc, double act_to_act_ns,
                                        Tracer::Id parent) {
  const auto nb = rig.mapping().physical_neighbors(row);
  if (!nb.valid) {
    return Error{ErrorCode::kInvalidArgument,
                 "victim row has no double-sided neighborhood"};
  }
  const auto victim = dram::pattern_row(pattern, dram::kBytesPerRow);
  const auto aggressor =
      dram::pattern_row(dram::inverse_pattern(pattern), dram::kBytesPerRow);
  for (const auto& init : {std::pair{row, &victim},
                           std::pair{nb.below, &aggressor},
                           std::pair{nb.above, &aggressor}}) {
    VPP_RETURN_IF_ERROR(rig.op(
        "init_row",
        [&](const softmc::RowOps& o) -> Build {
          return o.init_row(bank, init.first, *init.second);
        },
        parent, false));
  }
  if (hc > 0) {
    VPP_RETURN_IF_ERROR(rig.op(
        "hammer",
        [&](const softmc::RowOps& o) -> Build {
          return o.hammer_pair(bank, nb.below, nb.above, hc, act_to_act_ns);
        },
        parent, false));
  }
  VPP_ASSIGN_OR_RETURN(
      const softmc::ExecutionResult read,
      rig.op(
          "read_row",
          [&](const softmc::RowOps& o) -> Build {
            return o.read_row(bank, row, harness::kSafeReadTrcdNs);
          },
          parent, true));
  VPP_ASSIGN_OR_RETURN(const auto observed, row_image(read));
  return harness::bit_error_rate(victim, observed);
}

/// TrcdTest::is_faulty as session operations.
common::Expected<bool> rig_is_faulty(Rig& rig, std::uint32_t bank,
                                     std::uint32_t row,
                                     dram::DataPattern pattern, double trcd_ns,
                                     const harness::TrcdConfig& config,
                                     Tracer::Id parent) {
  const auto image = dram::pattern_row(pattern, dram::kBytesPerRow);
  for (int iter = 0; iter < config.num_iterations; ++iter) {
    VPP_RETURN_IF_ERROR(rig.op(
        "init_row",
        [&](const softmc::RowOps& o) -> Build {
          return o.init_row(bank, row, image);
        },
        parent, false));
    for (std::uint32_t c = 0; c < dram::kColumnsPerRow;
         c += config.column_stride) {
      VPP_ASSIGN_OR_RETURN(
          const softmc::ExecutionResult r,
          rig.op(
              "read_column",
              [&](const softmc::RowOps& o) -> Build {
                return o.read_column(bank, row, c, trcd_ns);
              },
              parent, true));
      if (r.reads.size() != 1) {
        return Error{ErrorCode::kReadUnderrun, "expected one read burst"};
      }
      for (std::uint32_t i = 0; i < dram::kBytesPerColumn; ++i) {
        if (r.reads[0][i] != image[c * dram::kBytesPerColumn + i]) return true;
      }
    }
  }
  return false;
}

/// RetentionTest::measure_ber as session operations.
common::Expected<double> rig_retention_ber(Rig& rig, std::uint32_t bank,
                                           std::uint32_t row,
                                           dram::DataPattern pattern,
                                           double trefw_ms,
                                           Tracer::Id parent) {
  const auto image = dram::pattern_row(pattern, dram::kBytesPerRow);
  VPP_RETURN_IF_ERROR(rig.op(
      "init_row",
      [&](const softmc::RowOps& o) -> Build {
        return o.init_row(bank, row, image);
      },
      parent, false));
  VPP_RETURN_IF_ERROR(rig.op(
      "wait",
      [&](const softmc::RowOps& o) -> Build {
        return o.wait(common::ms_to_ns(trefw_ms));
      },
      parent, false));
  VPP_ASSIGN_OR_RETURN(
      const softmc::ExecutionResult read,
      rig.op(
          "read_row",
          [&](const softmc::RowOps& o) -> Build {
            return o.read_row(bank, row, harness::kSafeReadTrcdNs);
          },
          parent, true));
  VPP_ASSIGN_OR_RETURN(const auto observed, row_image(read));
  return harness::bit_error_rate(image, observed);
}

/// The shared replay skeleton. `Traits` binds one algorithm: its harness
/// test class and config, its test_row span, its primitive (harness call
/// and softmc replay) and the row control flow over that primitive.
template <typename Traits>
void replay_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                 const dram::ModuleProfile& profile,
                 const core::AxisPoint& point,
                 const typename Traits::Result& expected, Tracer::Id parent) {
  const std::uint32_t bank = plan.sweep.sampling.bank;
  const std::uint32_t row = expected.row;
  const auto config = Traits::config(plan.sweep, point);
  const double temp = point.resolved_temperature(Traits::kPhase);
  const std::uint64_t stream = core::point_stream_seed(
      plan.seed, profile.seed, Traits::kPhase, row, point);
  const std::string key = cell_key(profile, point, row);
  const auto failed = [&](const std::string& what) {
    ctx.report.fail(what + " replay of " + key + " differs");
  };
  const auto errored = [&](const std::string& what, const Error& e) {
    ctx.report.fail(what + " replay of " + key + ": " + e.to_string());
  };

  // harness: the algorithm's own entry point on a fresh session.
  softmc::Session s1(profile);
  if (auto st = setup_session(s1, temp, point.vpp_v); !st.ok()) {
    return errored("session setup", st.error());
  }
  s1.set_noise_stream(stream);
  typename Traits::Test t1(s1, config);
  Scope row_span(ctx.tracer, Traits::kRowSpan, Layer::kHarness, parent, key);
  auto r1 = t1.test_row(bank, row, expected.wcdp);
  row_span.close();
  if (!r1) return errored(Traits::kRowSpan, r1.error());
  if (!same(*r1, expected)) return failed(Traits::kRowSpan);

  // harness, call by call: must reproduce test_row.
  softmc::Session s2(profile);
  if (auto st = setup_session(s2, temp, point.vpp_v); !st.ok()) {
    return errored("session setup", st.error());
  }
  s2.set_noise_stream(stream);
  typename Traits::Test t2(s2, config);
  using Arg = typename Traits::Arg;
  using Value = typename Traits::Value;
  struct Call {
    Arg arg;
    Value value;
    Tracer::Id span;
  };
  std::vector<Call> calls;
  auto r2 = Traits::row(
      row, expected.wcdp, config,
      [&](Arg arg) -> common::Expected<Value> {
        Scope span(ctx.tracer, Traits::kCallSpan, Layer::kHarness,
                   row_span.id(), key);
        auto value = Traits::call(t2, bank, row, expected.wcdp, arg);
        span.close();
        if (value) calls.push_back({arg, *value, span.id()});
        return value;
      });
  if (!r2) return errored(Traits::kCallSpan, r2.error());
  if (!same(*r2, *r1)) return failed(Traits::kCallSpan);

  // softmc + dram: every call as session operations and device commands.
  Rig rig(ctx, profile);
  if (auto st = rig.setup(temp, point.vpp_v); !st.ok()) {
    return errored("rig setup", st.error());
  }
  rig.key(stream);
  const std::uint64_t flips_before = rig.device_flips();
  for (const Call& c : calls) {
    auto value = Traits::replay(rig, bank, row, expected.wcdp, c.arg, config,
                                c.span);
    if (!value) return errored("softmc", value.error());
    if (*value != c.value) return failed(std::string("softmc ") + Traits::kCallSpan);
  }
  ++ctx.stats.cells;
  ctx.stats.flips += rig.device_flips() - flips_before;
}

struct HammerTraits {
  using Result = harness::RowHammerRowResult;
  using Test = harness::RowHammerTest;
  using Arg = std::uint64_t;  // hammer count
  using Value = double;       // BER
  static constexpr core::JobPhase kPhase = core::JobPhase::kRowHammer;
  static constexpr const char* kRowSpan = "harness.test_row";
  static constexpr const char* kCallSpan = "harness.measure_ber";
  static harness::RowHammerConfig config(const core::SweepConfig& sweep,
                                         const core::AxisPoint& point) {
    return hammer_config_at(sweep, point);
  }
  template <typename F>
  static auto row(std::uint32_t r, dram::DataPattern p,
                  const harness::RowHammerConfig& c, F&& f) {
    return alg1_row(r, p, c, std::forward<F>(f));
  }
  static common::Expected<double> call(Test& t, std::uint32_t bank,
                                       std::uint32_t r, dram::DataPattern p,
                                       std::uint64_t hc) {
    return t.measure_ber(bank, r, p, hc);
  }
  static common::Expected<double> replay(Rig& rig, std::uint32_t bank,
                                         std::uint32_t r, dram::DataPattern p,
                                         std::uint64_t hc,
                                         const harness::RowHammerConfig& c,
                                         Tracer::Id parent) {
    return rig_hammer_ber(rig, bank, r, p, hc, c.act_to_act_ns, parent);
  }
};

struct TrcdTraits {
  using Result = harness::TrcdRowResult;
  using Test = harness::TrcdTest;
  using Arg = double;  // tRCD probe
  using Value = bool;  // faulty
  static constexpr core::JobPhase kPhase = core::JobPhase::kTrcd;
  static constexpr const char* kRowSpan = "harness.trcd_row";
  static constexpr const char* kCallSpan = "harness.is_faulty";
  static harness::TrcdConfig config(const core::SweepConfig& sweep,
                                    const core::AxisPoint&) {
    return sweep.trcd;
  }
  template <typename F>
  static auto row(std::uint32_t r, dram::DataPattern p,
                  const harness::TrcdConfig& c, F&& f) {
    return alg2_row(r, p, c, std::forward<F>(f));
  }
  static common::Expected<bool> call(Test& t, std::uint32_t bank,
                                     std::uint32_t r, dram::DataPattern p,
                                     double trcd) {
    return t.is_faulty(bank, r, p, trcd);
  }
  static common::Expected<bool> replay(Rig& rig, std::uint32_t bank,
                                       std::uint32_t r, dram::DataPattern p,
                                       double trcd,
                                       const harness::TrcdConfig& c,
                                       Tracer::Id parent) {
    return rig_is_faulty(rig, bank, r, p, trcd, c, parent);
  }
};

struct RetentionTraits {
  using Result = harness::RetentionRowResult;
  using Test = harness::RetentionTest;
  using Arg = double;    // refresh window, ms
  using Value = double;  // BER
  static constexpr core::JobPhase kPhase = core::JobPhase::kRetention;
  static constexpr const char* kRowSpan = "harness.retention_row";
  static constexpr const char* kCallSpan = "harness.retention_ber";
  static harness::RetentionConfig config(const core::SweepConfig& sweep,
                                         const core::AxisPoint&) {
    return sweep.retention;
  }
  template <typename F>
  static auto row(std::uint32_t r, dram::DataPattern p,
                  const harness::RetentionConfig& c, F&& f) {
    return alg3_row(r, p, c, std::forward<F>(f));
  }
  static common::Expected<double> call(Test& t, std::uint32_t bank,
                                       std::uint32_t r, dram::DataPattern p,
                                       double trefw_ms) {
    return t.measure_ber(bank, r, p, trefw_ms);
  }
  static common::Expected<double> replay(Rig& rig, std::uint32_t bank,
                                         std::uint32_t r, dram::DataPattern p,
                                         double trefw_ms,
                                         const harness::RetentionConfig&,
                                         Tracer::Id parent) {
    return rig_retention_ber(rig, bank, r, p, trefw_ms, parent);
  }
};

}  // namespace

void replay_hammer_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                        const dram::ModuleProfile& profile,
                        const core::AxisPoint& point,
                        const harness::RowHammerRowResult& expected,
                        Tracer::Id parent) {
  replay_cell<HammerTraits>(ctx, plan, profile, point, expected, parent);
}

void replay_trcd_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                      const dram::ModuleProfile& profile,
                      const core::AxisPoint& point,
                      const harness::TrcdRowResult& expected,
                      Tracer::Id parent) {
  replay_cell<TrcdTraits>(ctx, plan, profile, point, expected, parent);
}

void replay_retention_cell(ReplayContext& ctx, const core::CampaignPlan& plan,
                           const dram::ModuleProfile& profile,
                           const core::AxisPoint& point,
                           const harness::RetentionRowResult& expected,
                           Tracer::Id parent) {
  replay_cell<RetentionTraits>(ctx, plan, profile, point, expected, parent);
}

void replay_wcdp(ReplayContext& ctx, const core::CampaignPlan& plan,
                 const dram::ModuleProfile& profile,
                 const std::vector<std::uint32_t>& rows,
                 const std::vector<dram::DataPattern>& expected,
                 Tracer::Id parent) {
  const std::vector<double> levels =
      core::usable_vpp_levels(plan.sweep, profile.vppmin_v);
  if (levels.empty() || rows.size() != expected.size()) {
    ctx.report.fail("WCDP replay of " + profile.name + ": no prep to replay");
    return;
  }
  const double nominal = levels.front();
  softmc::Session session(profile);
  if (auto st = setup_session(session, common::kHammerTestTempC, nominal);
      !st.ok()) {
    ctx.report.fail("WCDP replay setup: " + st.error().to_string());
    return;
  }
  session.set_noise_stream(core::job_stream_seed(
      plan.seed, profile.seed, core::vpp_millivolts(nominal),
      core::JobPhase::kWcdp));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Scope span(ctx.tracer, "harness.wcdp_row", Layer::kHarness, parent,
               profile.name + " row " + std::to_string(rows[i]));
    auto found = harness::find_wcdp_hammer(session, plan.sweep.sampling.bank,
                                           rows[i]);
    span.close();
    if (!found || *found != expected[i]) {
      ctx.report.fail("WCDP replay of " + profile.name + " row " +
                      std::to_string(rows[i]) + " differs");
      return;
    }
  }
}

}  // namespace vppbench
