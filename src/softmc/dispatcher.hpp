// CommandDispatcher: the per-instruction dispatch loop extracted from
// Session::execute. It owns nothing but references -- the device under test
// and the observer list -- and is deliberately dumb: it advances the command
// clock, issues each instruction to the module, and notifies observers. The
// timing checker is the first observer, so every command is timing-checked
// before the device acts on it, exactly as in the pre-refactor monolith; the
// dispatcher must not change command ordering or clock arithmetic (sweep
// output is bit-identical by construction).
//
// Row transfers: a row write or read is 1,024 back-to-back WR (or RD)
// commands, and paying observer fan-out plus device validation per command
// dominated every measurement. The session's init_row/read_row therefore
// hand over a RowTransfer, not a Program, and execute_transfer is the one
// bulk path: it issues the ACT and PRE like any command and the ColumnBurst
// in between as one run -- one on_column_run per observer, one
// dram::Module::column_run validation, then a bulk copy
// (Module::ColumnRun::read_columns/write_columns) -- with the clock
// arithmetic of the per-command loop. It walks the burst command by command
// instead when an interceptor is attached (fault plans address single
// commands), when the timing checker would flag the first command, or when
// the device would reject the run, so errors and violations surface exactly
// where they would. A Program always goes command by command.
#pragma once

#include <array>
#include <cstdint>
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
  /// violations fan out to observers, and asks it whether a burst would be
  /// flagged. The checker must still be registered as the first
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

  /// Execute `program` against the module, one command at a time,
  /// advancing `clock_ns` in place.
  [[nodiscard]] ExecutionResult execute(const Program& program,
                                        double& clock_ns);

  /// What execute_transfer delivered: the first error, and the number of
  /// read bursts written into `reads`.
  struct TransferResult {
    common::Status status;
    std::size_t reads = 0;
  };

  /// Execute `transfer`: the commands, clock arithmetic, observer callbacks
  /// and device effects of executing RowOps::program(transfer), with a read
  /// burst's data written straight into `reads` (8 bytes per burst; bursts
  /// past its end are counted but not stored). The burst goes in bulk
  /// unless an interceptor is attached, its first command would be flagged,
  /// or the device rejects it; then it goes command by command.
  [[nodiscard]] TransferResult execute_transfer(const RowTransfer& transfer,
                                                std::span<std::uint8_t> reads,
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
  /// Issue `burst` as one run with bulk device work; read data lands in
  /// `reads`. Issues nothing and returns false when the timing checker
  /// would flag its first command or the device would reject it.
  bool issue_burst(const ColumnBurst& burst, std::span<std::uint8_t> reads,
                   double& clock_ns);

  dram::Module& module_;
  const TimingChecker& checker_;
  std::vector<SessionObserver*> observers_;
  CommandInterceptor* interceptor_ = nullptr;
};

}  // namespace vppstudy::softmc
