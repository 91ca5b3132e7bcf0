#include "softmc/counters.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/units.hpp"

namespace vppstudy::softmc {

CommandCounts& CommandCounts::operator+=(const CommandCounts& other) noexcept {
  activates += other.activates;
  hammer_loops += other.hammer_loops;
  hammer_activations += other.hammer_activations;
  reads += other.reads;
  writes += other.writes;
  precharges += other.precharges;
  refreshes += other.refreshes;
  waits += other.waits;
  timing_violations += other.timing_violations;
  device_errors += other.device_errors;
  simulated_ns += other.simulated_ns;
  return *this;
}

std::string CommandCounts::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ACT=%" PRIu64 " hammerACT=%" PRIu64 " RD=%" PRIu64
                " WR=%" PRIu64 " PRE=%" PRIu64 " REF=%" PRIu64
                " viol=%" PRIu64 " err=%" PRIu64 " sim=%.3fms",
                activates, hammer_activations, reads, writes, precharges,
                refreshes, timing_violations, device_errors,
                simulated_ns / 1e6);
  return buf;
}

void SessionCounters::on_column_run(const ColumnBurst& burst,
                                    double start_ns) {
  double now = start_ns;
  for (std::size_t i = 0; i < burst.count; ++i) {
    const double from = now;
    now += burst.slots(i) * common::kCommandSlotNs;
    counts_.simulated_ns += now - from;
  }
  (burst.kind == dram::CommandKind::kRead ? counts_.reads : counts_.writes) +=
      burst.count;
}

void SessionCounters::on_command(const Instruction& inst, double now_ns) {
  (void)now_ns;
  switch (inst.kind) {
    case dram::CommandKind::kActivate:
      if (inst.loop_count > 0) {
        ++counts_.hammer_loops;  // expanded ACTs arrive via on_hammer
      } else {
        ++counts_.activates;
      }
      break;
    case dram::CommandKind::kPrecharge:
    case dram::CommandKind::kPrechargeAll:
      ++counts_.precharges;
      break;
    case dram::CommandKind::kRead:
      ++counts_.reads;
      break;
    case dram::CommandKind::kWrite:
      ++counts_.writes;
      break;
    case dram::CommandKind::kRefresh:
      ++counts_.refreshes;
      break;
    case dram::CommandKind::kNop:
      ++counts_.waits;
      break;
  }
}

}  // namespace vppstudy::softmc
