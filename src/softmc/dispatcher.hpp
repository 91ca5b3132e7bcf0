// CommandDispatcher: the per-instruction dispatch loop extracted from
// Session::execute. It owns nothing but references -- the device under test
// and the observer list -- and is deliberately dumb: it advances the command
// clock, issues each instruction to the module, and notifies observers. The
// timing checker is the first observer, so every command is timing-checked
// before the device acts on it, exactly as in the pre-refactor monolith; the
// dispatcher must not change command ordering or clock arithmetic (sweep
// output is bit-identical by construction).
//
// Column runs: a row read or write is 1,024 consecutive RD (or WR) commands,
// and paying observer fan-out plus device validation per command dominated
// every measurement. The dispatcher issues each maximal run of RD (or WR)
// commands on one bank with no extra waits in bulk -- one on_column_run per
// observer, one dram::Module::column_run validation, then the per-column
// device work -- with the same clock arithmetic. It falls back to the
// per-command loop when an interceptor is attached, when the device would
// reject the run, and for the leading commands of a run the timing checker
// would flag, so errors and violations surface exactly as they did.
//
// Row transfers: the session's init_row/read_row hand over a RowTransfer,
// not a Program. execute_transfer issues its ACT and PRE like any command
// and its ColumnBurst as one run whose device work is a bulk copy
// (Module::ColumnRun::read_columns/write_columns), again with the same clock
// arithmetic and observer callbacks. It declines -- issuing nothing -- when
// an interceptor is attached or the burst's first command would be flagged,
// and the session then executes RowOps' per-command Program instead.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/expected.hpp"
#include "dram/module.hpp"
#include "softmc/observer.hpp"
#include "softmc/program.hpp"
#include "softmc/row_ops.hpp"

namespace vppstudy::softmc {

class TimingChecker;

/// Result of executing a Program.
struct ExecutionResult {
  std::vector<std::array<std::uint8_t, dram::kBytesPerColumn>> reads;
  std::size_t timing_violations = 0;
  common::Status status;  ///< first device error aborts execution
};

class CommandDispatcher {
 public:
  /// The dispatcher watches the checker's violation log for growth so new
  /// violations fan out to observers, and asks it whether a column run
  /// would be flagged. The checker must still be registered as the first
  /// observer (Session does this).
  CommandDispatcher(dram::Module& module, const TimingChecker& checker);

  /// Observers are notified in registration order. The timing checker must
  /// be registered first (Session does this) so it sees commands before any
  /// derived metric does. Observers are borrowed, never owned.
  void add_observer(SessionObserver* observer);
  void remove_observer(SessionObserver* observer);

  /// Install (or clear, with nullptr) the active command interceptor. At
  /// most one is consulted; it is borrowed, never owned. With none
  /// installed the dispatch loop is byte-identical to the pre-interceptor
  /// code path (no per-instruction copy).
  void set_interceptor(CommandInterceptor* interceptor) noexcept {
    interceptor_ = interceptor;
  }
  [[nodiscard]] const CommandInterceptor* interceptor() const noexcept {
    return interceptor_;
  }

  /// Execute `program` against the module, advancing `clock_ns` in place.
  [[nodiscard]] ExecutionResult execute(const Program& program,
                                        double& clock_ns);

  /// Execute `transfer` with its burst in bulk: the commands, clock
  /// arithmetic, observer callbacks and device effects of executing
  /// RowOps::program(transfer), with a read burst's data written straight
  /// into `reads` (burst.count columns). Returns nullopt, having issued
  /// nothing, when the transfer must go command by command: an interceptor
  /// is attached, or the timing checker would flag the burst's first
  /// command.
  [[nodiscard]] std::optional<common::Status> execute_transfer(
      const RowTransfer& transfer, std::span<std::uint8_t> reads,
      double& clock_ns);

 private:
  void advance(double& clock_ns, double ns);
  void notify_command(const Instruction& inst, double now_ns);
  /// Fan out violations appended to the log since `watermark`.
  void notify_new_violations(std::size_t watermark);
  /// Intercept, schedule and issue one program instruction; false aborts
  /// the program.
  bool dispatch_one(const Instruction& original, ExecutionResult& result,
                    double& clock_ns);
  /// Issue one instruction to the device (observers notified first). On a
  /// device rejection fills `result.status`, fans out on_error, and returns
  /// false to abort the program.
  bool issue_one(const Instruction& inst, ExecutionResult& result,
                 double& clock_ns);
  enum class RunOutcome : std::uint8_t { kIssued, kFlagged, kRejected };
  /// Open a column run: kFlagged -- the checker would flag its first
  /// command; kRejected -- the device would reject some command. Nothing is
  /// issued unless the outcome is kIssued, in which case every observer has
  /// seen the run and `device` is open for its device work.
  RunOutcome admit_run(const ColumnRunView& run, double clock_ns,
                       std::optional<dram::Module::ColumnRun>& device);
  /// Issue a span of program instructions as one run, per-column device
  /// work; outcomes as admit_run.
  RunOutcome issue_run(std::span<const Instruction> run,
                       ExecutionResult& result, double& clock_ns);
  /// Issue a uniform burst as one run, bulk device work; read data lands in
  /// `reads`. Outcomes as admit_run.
  RunOutcome issue_burst(const ColumnBurst& burst,
                         std::span<std::uint8_t> reads, double& clock_ns);

  dram::Module& module_;
  const TimingChecker& checker_;
  std::vector<SessionObserver*> observers_;
  CommandInterceptor* interceptor_ = nullptr;
};

}  // namespace vppstudy::softmc
