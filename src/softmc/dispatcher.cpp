#include "softmc/dispatcher.hpp"

#include <algorithm>

#include "common/units.hpp"
#include "softmc/timing_checker.hpp"

namespace vppstudy::softmc {

using common::Error;
using common::ErrorCode;
using common::Status;

namespace {

/// An instruction a column run can hold: a plain RD/WR with no extra wait.
bool runnable(const Instruction& inst) noexcept {
  return (inst.kind == dram::CommandKind::kRead ||
          inst.kind == dram::CommandKind::kWrite) &&
         inst.loop_count == 0 && inst.extra_wait_ns <= 0.0;
}

/// One past the last instruction of the maximal column run starting at
/// `begin` (same kind, same bank); `begin` when none starts there.
std::size_t column_run_end(std::span<const Instruction> insts,
                           std::size_t begin) {
  const Instruction& first = insts[begin];
  if (!runnable(first)) return begin;
  std::size_t end = begin + 1;
  while (end < insts.size() && runnable(insts[end]) &&
         insts[end].kind == first.kind && insts[end].bank == first.bank) {
    ++end;
  }
  return end;
}

}  // namespace

CommandDispatcher::CommandDispatcher(dram::Module& module,
                                     const TimingChecker& checker)
    : module_(module), checker_(checker) {}

void CommandDispatcher::add_observer(SessionObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void CommandDispatcher::remove_observer(SessionObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void CommandDispatcher::advance(double& clock_ns, double ns) {
  const double from = clock_ns;
  clock_ns += ns;
  for (SessionObserver* obs : observers_) obs->on_clock_advance(from, clock_ns);
}

void CommandDispatcher::notify_command(const Instruction& inst,
                                       double now_ns) {
  for (SessionObserver* obs : observers_) obs->on_command(inst, now_ns);
}

void CommandDispatcher::notify_new_violations(std::size_t watermark) {
  const std::vector<TimingViolation>& log = checker_.violations();
  for (std::size_t i = watermark; i < log.size(); ++i) {
    for (SessionObserver* obs : observers_) obs->on_violation(log[i]);
  }
}

bool CommandDispatcher::issue_one(const Instruction& inst,
                                  ExecutionResult& result, double& clock_ns) {
  // The timing checker is the first observer: it sees the command at its
  // issue timestamp before the device acts on it (hammer loops are
  // checked when the loop retires, via on_hammer below).
  std::size_t watermark = checker_.violations().size();
  notify_command(inst, clock_ns);
  notify_new_violations(watermark);

  Status st;
  switch (inst.kind) {
    case dram::CommandKind::kActivate:
      if (inst.loop_count > 0) {
        const double start = clock_ns;
        double now = clock_ns;
        // loop_row_b == row is the single-row burst encoding
        // (Program::hammer_single); hammer_pair rejects identical rows.
        const bool single = inst.loop_row_b == inst.row;
        st = single ? module_.hammer_single(inst.bank, inst.row,
                                            inst.loop_count,
                                            inst.loop_act_to_act_ns, now)
                    : module_.hammer_pair(inst.bank, inst.row, inst.loop_row_b,
                                          inst.loop_count,
                                          inst.loop_act_to_act_ns, now);
        watermark = checker_.violations().size();
        for (SessionObserver* obs : observers_) {
          if (single) {
            obs->on_hammer_single(inst.bank, inst.loop_count,
                                  inst.loop_act_to_act_ns, start, now);
          } else {
            obs->on_hammer(inst.bank, inst.loop_count,
                           inst.loop_act_to_act_ns, start, now);
          }
        }
        notify_new_violations(watermark);
        const double from = clock_ns;
        clock_ns = now;
        for (SessionObserver* obs : observers_) {
          obs->on_clock_advance(from, clock_ns);
        }
      } else {
        st = module_.activate(inst.bank, inst.row, clock_ns);
      }
      break;
    case dram::CommandKind::kPrecharge:
      st = module_.precharge(inst.bank, clock_ns);
      break;
    case dram::CommandKind::kPrechargeAll:
      st = module_.precharge_all(clock_ns);
      break;
    case dram::CommandKind::kRead: {
      auto data = module_.read(inst.bank, inst.column, clock_ns);
      if (!data) {
        st = std::move(data).error();
      } else {
        if (interceptor_ != nullptr) {
          interceptor_->corrupt_read(inst.bank, inst.column, *data, clock_ns);
        }
        result.reads.push_back(*data);
      }
      break;
    }
    case dram::CommandKind::kWrite:
      st = module_.write(inst.bank, inst.column, inst.write_data, clock_ns);
      break;
    case dram::CommandKind::kRefresh:
      st = module_.refresh(clock_ns);
      break;
    case dram::CommandKind::kNop:
      break;
  }
  if (!st.ok()) {
    result.status = std::move(st)
                        .error()
                        .with_op(dram::command_name(inst.kind))
                        .with_bank(static_cast<std::int32_t>(inst.bank));
    for (SessionObserver* obs : observers_) {
      obs->on_error(result.status.error(), clock_ns);
    }
    return false;
  }
  return true;
}

CommandDispatcher::RunOutcome CommandDispatcher::admit_run(
    const ColumnRunView& run, double clock_ns,
    std::optional<dram::Module::ColumnRun>& device) {
  if (checker_.flags_column(run.bank(),
                            clock_ns + run.slots(0) * common::kCommandSlotNs)) {
    return RunOutcome::kFlagged;
  }
  std::uint32_t max_column = 0;
  if (const ColumnBurst* burst = run.burst()) {
    max_column = burst->first_column + burst->count - 1;
  } else {
    for (const Instruction& inst : run.instructions()) {
      max_column = std::max(max_column, inst.column);
    }
  }
  auto opened = module_.column_run(run.kind(), run.bank(), max_column);
  if (!opened) return RunOutcome::kRejected;
  device.emplace(*opened);
  for (SessionObserver* obs : observers_) obs->on_column_run(run, clock_ns);
  return RunOutcome::kIssued;
}

CommandDispatcher::RunOutcome CommandDispatcher::issue_run(
    std::span<const Instruction> run, ExecutionResult& result,
    double& clock_ns) {
  std::optional<dram::Module::ColumnRun> device;
  const RunOutcome outcome = admit_run(ColumnRunView(run), clock_ns, device);
  if (outcome != RunOutcome::kIssued) return outcome;
  const bool reading = run.front().kind == dram::CommandKind::kRead;
  for (const Instruction& inst : run) {
    clock_ns += inst.slots_after_previous * common::kCommandSlotNs;
    if (reading) {
      result.reads.push_back(device->read(inst.column, clock_ns));
    } else {
      device->write(inst.column, inst.write_data);
    }
  }
  return RunOutcome::kIssued;
}

CommandDispatcher::RunOutcome CommandDispatcher::issue_burst(
    const ColumnBurst& burst, std::span<std::uint8_t> reads,
    double& clock_ns) {
  std::optional<dram::Module::ColumnRun> device;
  const RunOutcome outcome =
      admit_run(ColumnRunView(burst), clock_ns, device);
  if (outcome != RunOutcome::kIssued) return outcome;
  clock_ns += burst.first_slots * common::kCommandSlotNs;
  const double first_ns = clock_ns;
  for (std::uint32_t i = 1; i < burst.count; ++i) {
    clock_ns += burst.spacing_slots * common::kCommandSlotNs;
  }
  if (burst.kind == dram::CommandKind::kRead) {
    device->read_columns(burst.first_column, first_ns,
                         burst.spacing_slots * common::kCommandSlotNs,
                         reads.first(burst.count * dram::kBytesPerColumn));
  } else {
    device->write_columns(burst.first_column, burst.write_data);
  }
  return RunOutcome::kIssued;
}

bool CommandDispatcher::dispatch_one(const Instruction& original,
                                     ExecutionResult& result,
                                     double& clock_ns) {
  // With no interceptor this reduces to advance + issue_one on the original
  // instruction -- no copy, identical behavior to the pre-interceptor
  // dispatch loop.
  Instruction mutated;
  const Instruction* inst = &original;
  CommandInterceptor::Decision decision;
  if (interceptor_ != nullptr) {
    mutated = original;
    decision = interceptor_->intercept(mutated, clock_ns);
    inst = &mutated;
  }

  advance(clock_ns, inst->slots_after_previous * common::kCommandSlotNs);
  if (inst->extra_wait_ns > 0.0) advance(clock_ns, inst->extra_wait_ns);

  if (decision.action == CommandInterceptor::Action::kDrop) {
    // The command left the host but never reached the device: time still
    // passes, but no observer sees it (the trace ring must mirror the
    // device's view so a captured dump replays the failure faithfully).
    return true;
  }
  if (decision.action == CommandInterceptor::Action::kFail) {
    result.status = std::move(decision.error)
                        .with_op(dram::command_name(inst->kind))
                        .with_bank(static_cast<std::int32_t>(inst->bank));
    for (SessionObserver* obs : observers_) {
      obs->on_error(result.status.error(), clock_ns);
    }
    return false;
  }

  if (!issue_one(*inst, result, clock_ns)) return false;
  if (decision.action == CommandInterceptor::Action::kDuplicate) {
    advance(clock_ns, common::kCommandSlotNs);
    return issue_one(*inst, result, clock_ns);
  }
  return true;
}

ExecutionResult CommandDispatcher::execute(const Program& program,
                                           double& clock_ns) {
  ExecutionResult result;
  result.reads.reserve(program.read_count());
  const std::size_t violations_before = checker_.violations().size();
  const std::span<const Instruction> insts = program.instructions();
  // [i, run_end) is what is left of the column run at i. Runs are only
  // formed without an interceptor: fault plans address single commands.
  std::size_t run_end = 0;
  bool rejected = false;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (interceptor_ == nullptr) {
      if (i >= run_end) {
        run_end = column_run_end(insts, i);
        rejected = false;
      }
      if (!rejected && run_end - i > 1) {
        const RunOutcome outcome =
            issue_run(insts.subspan(i, run_end - i), result, clock_ns);
        if (outcome == RunOutcome::kIssued) {
          i = run_end - 1;
          continue;
        }
        // A run the device rejects goes per command to its end, so the
        // error surfaces at its command; a flagged one issues its first
        // command alone and retries the rest as a run.
        rejected = outcome == RunOutcome::kRejected;
      }
    }
    if (!dispatch_one(insts[i], result, clock_ns)) break;
  }
  result.timing_violations = checker_.violations().size() - violations_before;
  return result;
}

std::optional<Status> CommandDispatcher::execute_transfer(
    const RowTransfer& transfer, std::span<std::uint8_t> reads,
    double& clock_ns) {
  // The ACT issues at act_ns and the checker then holds it as the bank's
  // last ACT, so the burst's first command is flagged exactly when this
  // test (flags_column's, on the same clock sums) says so.
  const double act_ns =
      clock_ns + transfer.act.slots_after_previous * common::kCommandSlotNs;
  const double first_ns =
      act_ns + transfer.burst.first_slots * common::kCommandSlotNs;
  if (interceptor_ != nullptr || checker_.violates_trcd(first_ns - act_ns)) {
    return std::nullopt;
  }
  ExecutionResult result;
  if (!dispatch_one(transfer.act, result, clock_ns)) return result.status;
  if (issue_burst(transfer.burst, reads, clock_ns) != RunOutcome::kIssued) {
    // Only reachable when something moved the device between the ACT and
    // the burst; go command by command so the error surfaces at its command.
    for (std::size_t i = 0; i < transfer.burst.count; ++i) {
      if (!dispatch_one(transfer.burst.instruction(i), result, clock_ns)) {
        return result.status;
      }
    }
    for (std::size_t c = 0; c < result.reads.size(); ++c) {
      std::copy(result.reads[c].begin(), result.reads[c].end(),
                reads.begin() + c * dram::kBytesPerColumn);
    }
  }
  dispatch_one(transfer.pre, result, clock_ns);
  return result.status;
}

}  // namespace vppstudy::softmc
