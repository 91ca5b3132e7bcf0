#include "softmc/dispatcher.hpp"

#include <algorithm>

#include "common/units.hpp"
#include "softmc/timing_checker.hpp"

namespace vppstudy::softmc {

using common::Status;

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

bool CommandDispatcher::issue_burst(const ColumnBurst& burst,
                                    std::span<std::uint8_t> reads,
                                    double& clock_ns) {
  // Column commands leave the checker's state alone and tRCD only grows
  // along a burst, so if its first command is not flagged none is.
  if (checker_.flags_column(
          burst.bank, clock_ns + burst.first_slots * common::kCommandSlotNs)) {
    return false;
  }
  auto device = module_.column_run(burst.kind, burst.bank,
                                   burst.first_column + burst.count - 1);
  if (!device) return false;
  for (SessionObserver* obs : observers_) obs->on_column_run(burst, clock_ns);
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
  return true;
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
  for (const Instruction& inst : program.instructions()) {
    if (!dispatch_one(inst, result, clock_ns)) break;
  }
  result.timing_violations = checker_.violations().size() - violations_before;
  return result;
}

CommandDispatcher::TransferResult CommandDispatcher::execute_transfer(
    const RowTransfer& transfer, std::span<std::uint8_t> reads,
    double& clock_ns) {
  const ColumnBurst& burst = transfer.burst;
  ExecutionResult result;
  bool ok = dispatch_one(transfer.act, result, clock_ns);
  std::size_t delivered = 0;
  if (ok && interceptor_ == nullptr &&
      issue_burst(burst, reads, clock_ns)) {
    if (burst.kind == dram::CommandKind::kRead) delivered = burst.count;
  } else {
    if (burst.kind == dram::CommandKind::kRead) {
      result.reads.reserve(burst.count);
    }
    for (std::size_t i = 0; ok && i < burst.count; ++i) {
      ok = dispatch_one(burst.instruction(i), result, clock_ns);
    }
    delivered = result.reads.size();
    const std::size_t stored =
        std::min(delivered, reads.size() / dram::kBytesPerColumn);
    for (std::size_t c = 0; c < stored; ++c) {
      std::copy(result.reads[c].begin(), result.reads[c].end(),
                reads.begin() + c * dram::kBytesPerColumn);
    }
  }
  if (ok) dispatch_one(transfer.pre, result, clock_ns);
  return {std::move(result.status), delivered};
}

}  // namespace vppstudy::softmc
