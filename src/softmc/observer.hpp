// The session observer interface: the command stream is the observable
// artifact of the methodology (every deliberate timing violation, hammer
// loop, and failure mode of sections 4.1-4.3 is a sequence of DDR4 commands
// the host issues). The CommandDispatcher notifies observers of every
// command, hammer loop, timing violation, device error, and clock advance;
// TimingChecker is the first observer, CommandTraceRecorder and
// SessionCounters ride on the same hooks, and FaultInjector plugs in via the
// active CommandInterceptor hook below to perturb commands before the device
// (and the observers) see them.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dram/types.hpp"
#include "softmc/program.hpp"

namespace vppstudy::softmc {

/// One JEDEC timing rule a command would have broken. Deliberate violations
/// are the methodology, so these are observations, never failures.
struct TimingViolation {
  std::string rule;       ///< e.g. "tRCD"
  std::uint32_t bank = 0;
  double required_ns = 0.0;
  double actual_ns = 0.0;
  double at_ns = 0.0;
};

/// Hook interface for the command dispatch loop. All callbacks default to
/// no-ops so observers override only what they need. Callback order per
/// instruction: on_clock_advance (as the command clock moves to issue
/// time), on_command (at issue, before the device acts), then -- after the
/// device acts -- on_hammer for loop instructions, on_violation for each
/// new timing violation, and on_error if the device rejected the command.
/// The column burst of a session row write or read arrives through
/// on_column_run, whose default replays exactly that per-command sequence.
class SessionObserver {
 public:
  virtual ~SessionObserver() = default;

  /// The command clock moved from `from_ns` to `to_ns`.
  virtual void on_clock_advance(double from_ns, double to_ns) {
    (void)from_ns;
    (void)to_ns;
  }
  /// An instruction issues at `now_ns`. Hammer loops (loop_count > 0)
  /// surface here once at loop start; their activations are reported via
  /// on_hammer when the loop retires.
  virtual void on_command(const Instruction& inst, double now_ns) {
    (void)inst;
    (void)now_ns;
  }
  /// The uniform column burst of a session row write or read issues:
  /// burst.count RD (or WR) commands on one bank, the first
  /// burst.first_slots slots after `start_ns`, each later one
  /// burst.spacing_slots after its predecessor. The dispatcher delivers a
  /// burst only when the device accepts all of it and the timing checker
  /// flags none of it, so no on_violation or on_error falls inside it, and
  /// it notifies every observer of the whole burst before the device acts
  /// on it. The default replays on_clock_advance + on_command per command
  /// at the same issue times, with the Instructions RowOps::program would
  /// hold; an override must leave the observer in the same state that
  /// replay would.
  virtual void on_column_run(const ColumnBurst& burst, double start_ns) {
    double now = start_ns;
    for (std::size_t i = 0; i < burst.count; ++i) {
      const double from = now;
      now += burst.slots(i) * common::kCommandSlotNs;
      on_clock_advance(from, now);
      on_command(burst.instruction(i), now);
    }
  }
  /// A hammer loop retired: `count` activations of each aggressor at
  /// `act_to_act_ns` spacing between start_ns and end_ns.
  virtual void on_hammer(std::uint32_t bank, std::uint64_t count,
                         double act_to_act_ns, double start_ns,
                         double end_ns) {
    (void)bank;
    (void)count;
    (void)act_to_act_ns;
    (void)start_ns;
    (void)end_ns;
  }
  /// A single-row hammer loop retired: `count` activations of ONE row (the
  /// burst primitive of non-uniform pattern specs, encoded as a loop with
  /// loop_row_b == row). Defaults to forwarding into on_hammer so existing
  /// observers keep correct timing semantics; observers that count
  /// *activations* (which on_hammer doubles) must override.
  virtual void on_hammer_single(std::uint32_t bank, std::uint64_t count,
                                double act_to_act_ns, double start_ns,
                                double end_ns) {
    on_hammer(bank, count, act_to_act_ns, start_ns, end_ns);
  }
  /// The timing checker flagged a JEDEC rule.
  virtual void on_violation(const TimingViolation& violation) {
    (void)violation;
  }
  /// The device rejected a command; execution aborts after this call.
  virtual void on_error(const common::Error& error, double now_ns) {
    (void)error;
    (void)now_ns;
  }
};

/// Active counterpart to the passive SessionObserver: consulted by the
/// dispatcher *before* each instruction is scheduled, it may mutate the
/// instruction in flight (timing, addresses), drop it (the command leaves
/// the host but never reaches the device -- observers do not see it, so a
/// recorded trace mirrors the device's view and stays replayable), duplicate
/// it, or fail it with a typed error as if the device had rejected it. After
/// a successful RD it may additionally corrupt the returned burst. Exactly
/// one interceptor can be active per dispatcher; softmc::FaultInjector is
/// the canonical implementation.
class CommandInterceptor {
 public:
  enum class Action : std::uint8_t {
    kPass,       ///< issue the (possibly mutated) instruction normally
    kDrop,       ///< time passes, but the device never sees the command
    kDuplicate,  ///< issue twice, one command slot apart
    kFail,       ///< abort execution with `Decision::error`
  };
  struct Decision {
    Action action = Action::kPass;
    common::Error error;  ///< only meaningful for kFail
  };

  virtual ~CommandInterceptor() = default;

  /// Called once per program instruction (before the command clock advances
  /// to its issue time). `inst` is a mutable copy; edits apply to this issue
  /// only.
  virtual Decision intercept(Instruction& inst, double now_ns) = 0;

  /// Called after the device successfully returned a read burst; may flip
  /// bits in `data` (silent corruption -- no typed error is raised).
  virtual void corrupt_read(std::uint32_t bank, std::uint32_t column,
                            std::array<std::uint8_t, dram::kBytesPerColumn>& data,
                            double now_ns) {
    (void)bank;
    (void)column;
    (void)data;
    (void)now_ns;
  }
};

}  // namespace vppstudy::softmc
