// The SoftMC host session: owns the device under test, the external VPP
// supply, the thermal chamber, a monotonically advancing command clock, and
// the command dispatcher with its observer chain (timing checker first, then
// always-on command counters, then an optional trace recorder). The
// characterization harness (src/harness) talks only to this class -- the
// same boundary the paper's host software has against the FPGA.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/expected.hpp"
#include "dram/module.hpp"
#include "dram/timing.hpp"
#include "softmc/counters.hpp"
#include "softmc/dispatcher.hpp"
#include "softmc/power_rail.hpp"
#include "softmc/program.hpp"
#include "softmc/row_ops.hpp"
#include "softmc/thermal.hpp"
#include "softmc/timing_checker.hpp"
#include "softmc/trace_recorder.hpp"

namespace vppstudy::softmc {

class FaultInjector;

class Session {
 public:
  /// Takes ownership of the module (the DIMM seated on the interposer).
  explicit Session(dram::ModuleProfile profile);

  [[nodiscard]] dram::Module& module() noexcept { return module_; }
  [[nodiscard]] const dram::Module& module() const noexcept { return module_; }
  [[nodiscard]] const dram::Ddr4Timing& timing() const noexcept {
    return timing_;
  }
  [[nodiscard]] double clock_ns() const noexcept { return clock_ns_; }

  // --- Rig control -----------------------------------------------------------
  /// Program the external VPP supply; fails with kVppOutOfRange when the
  /// voltage is outside the instrument's range, kModuleUnresponsive when
  /// the module stops responding at this level.
  common::Status set_vpp(double vpp_v);
  [[nodiscard]] double vpp() const noexcept { return rail_.voltage(); }
  /// Drive the heater pads to a setpoint (blocks until the PID settles);
  /// fails with kThermalTimeout when it does not converge.
  common::Status set_temperature(double temp_c);
  [[nodiscard]] double temperature() const noexcept {
    return chamber_.temperature_c();
  }
  /// Refresh management: the characterization tests disable refresh, which
  /// is also what neutralizes on-die TRR (section 4.1).
  void set_auto_refresh(bool enabled) noexcept { auto_refresh_ = enabled; }
  /// Re-key the device's sequential measurement-noise draws. The parallel
  /// sweep engine calls this once per (module, VPP level) job so every job
  /// owns an independent, deterministic noise stream (dram::Module docs).
  void set_noise_stream(std::uint64_t stream) noexcept {
    module_.set_noise_stream(stream);
  }

  // --- Program execution -------------------------------------------------------
  [[nodiscard]] ExecutionResult execute(const Program& program) {
    return dispatcher_.execute(program, clock_ns_);
  }

  [[nodiscard]] const std::vector<TimingViolation>& violations() const noexcept {
    return checker_.violations();
  }
  void clear_violations() { checker_.clear_violations(); }

  // --- Instrumentation ---------------------------------------------------------
  /// Always-on command counters (see softmc/counters.hpp).
  [[nodiscard]] const CommandCounts& counters() const noexcept {
    return counters_.counts();
  }
  void reset_counters() noexcept { counters_.reset(); }

  /// Attach a command trace ring buffer (replacing any previous one).
  void enable_trace(std::size_t capacity = CommandTraceRecorder::kDefaultCapacity);
  void disable_trace();
  /// nullptr unless enable_trace() was called.
  [[nodiscard]] const CommandTraceRecorder* trace() const noexcept {
    return trace_.get();
  }

  /// Attach a fault injector: registered as the dispatcher's command
  /// interceptor and as an observer (replacing any previous injector).
  /// Borrowed -- must outlive the session or be detached with nullptr.
  void set_fault_injector(FaultInjector* injector);

  /// Register an external observer (fault injectors, custom metrics). The
  /// observer is borrowed and must outlive the session (or be removed).
  void add_observer(SessionObserver* observer) {
    dispatcher_.add_observer(observer);
  }
  void remove_observer(SessionObserver* observer) {
    dispatcher_.remove_observer(observer);
  }

  // --- Convenience operations used by the harness -----------------------------
  // init_row/read_row each make one CommandDispatcher::execute_transfer
  // call with RowOps' row transfer (ACT, one column burst, PRE); the
  // dispatcher copies the burst in bulk, or walks it command by command when
  // an interceptor is attached or its first command would be flagged. The
  // rest are thin wrappers over RowOps program builders + execute().
  /// ACT + 1024 WR + PRE with nominal timing.
  common::Status init_row(std::uint32_t bank, std::uint32_t row,
                          const std::vector<std::uint8_t>& image);
  /// ACT + 1024 RD + PRE; returns the full 8KB row. `trcd_ns <= 0` uses the
  /// nominal tRCD. Characterization harnesses pass a generous latency so
  /// verification reads cannot be corrupted by marginal activation timing
  /// (isolating the effect under test, section 4.1). Fails with
  /// kReadUnderrun if the device returned fewer bursts than requested.
  common::Expected<std::vector<std::uint8_t>> read_row(std::uint32_t bank,
                                                       std::uint32_t row,
                                                       double trcd_ns = -1.0);
  /// One ACT + single-column RD at an explicit (possibly violating) tRCD,
  /// then PRE. Returns the 8 bytes read (Alg. 2's inner access).
  common::Expected<std::array<std::uint8_t, dram::kBytesPerColumn>>
  read_column_with_trcd(std::uint32_t bank, std::uint32_t row,
                        std::uint32_t column, double trcd_ns);
  /// Double-sided hammer: `count` alternating activations of each aggressor.
  /// `act_to_act_ns <= 0` uses the nominal tRC spacing.
  common::Status hammer_double_sided(std::uint32_t bank, std::uint32_t row_a,
                                     std::uint32_t row_b, std::uint64_t count,
                                     double act_to_act_ns = -1.0);
  /// Idle wait (retention tests). Issues REFs during the wait when auto
  /// refresh is enabled.
  common::Status wait_ms(double ms);

  /// Return the rig to the state of a freshly constructed Session(profile):
  /// pristine rail and thermal chamber, cleared timing history and counters,
  /// trace and fault injector detached, command clock at zero, auto-refresh
  /// off, and the device power-cycled (dram::Module::reset_device_state --
  /// which retains the per-row physics caches, the whole point of reuse).
  /// A reused session is bit-identical to a fresh one; the campaign engine
  /// keeps one Session per (worker, module) arena slot across shard jobs on
  /// the strength of this, and the tier-1 suite asserts the equivalence.
  void reset_for_job();
  /// reset_for_job within one job: the same reset, but the fault injector
  /// and trace ring stay attached. A shard that must clear device state
  /// between rows (pattern attacks leave TRR state behind) stays under the
  /// job's fault plan and keeps its trace.
  void reset_rig();

 private:
  dram::Module module_;
  dram::Ddr4Timing timing_;
  PowerRail rail_;
  ThermalChamber chamber_;
  TimingChecker checker_;
  SessionCounters counters_;
  std::unique_ptr<CommandTraceRecorder> trace_;
  CommandDispatcher dispatcher_;
  RowOps ops_;
  FaultInjector* injector_ = nullptr;
  double clock_ns_ = 0.0;
  bool auto_refresh_ = false;
};

}  // namespace vppstudy::softmc
