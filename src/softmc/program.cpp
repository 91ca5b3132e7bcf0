#include "softmc/program.hpp"

#include <cmath>
#include <cstring>

#include "common/units.hpp"

namespace vppstudy::softmc {

Instruction ColumnBurst::instruction(std::size_t i) const noexcept {
  Instruction inst;
  inst.kind = kind;
  inst.bank = bank;
  inst.column = first_column + static_cast<std::uint32_t>(i);
  inst.slots_after_previous = slots(i);
  if (kind == dram::CommandKind::kWrite) {
    std::memcpy(inst.write_data.data(),
                write_data.data() + i * dram::kBytesPerColumn,
                dram::kBytesPerColumn);
  }
  return inst;
}

Program::Program(dram::Ddr4Timing timing) : timing_(timing) {}

std::uint32_t Program::slots_for(double ns) noexcept {
  if (ns <= 0.0) return 1;
  return static_cast<std::uint32_t>(
      std::ceil(ns / common::kCommandSlotNs - 1e-9));
}

Program& Program::push(Instruction inst, double default_delay_ns,
                       double delay_ns) {
  const double d = delay_ns < 0.0 ? default_delay_ns : delay_ns;
  inst.slots_after_previous = slots_for(d);
  instructions_.push_back(inst);
  return *this;
}

Program& Program::act(std::uint32_t bank, std::uint32_t row, double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row;
  // Default: a full tRP has elapsed since whatever came before.
  return push(i, timing_.t_rp_ns, delay_ns);
}

Program& Program::pre(std::uint32_t bank, double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kPrecharge;
  i.bank = bank;
  return push(i, timing_.t_ras_ns, delay_ns);
}

Program& Program::rd(std::uint32_t bank, std::uint32_t column,
                     double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kRead;
  i.bank = bank;
  i.column = column;
  ++read_count_;
  return push(i, timing_.t_rcd_ns, delay_ns);
}

Program& Program::wr(std::uint32_t bank, std::uint32_t column,
                     std::array<std::uint8_t, dram::kBytesPerColumn> data,
                     double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kWrite;
  i.bank = bank;
  i.column = column;
  i.write_data = data;
  return push(i, timing_.t_rcd_ns, delay_ns);
}

Program& Program::ref(double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kRefresh;
  return push(i, timing_.t_rp_ns, delay_ns);
}

Program& Program::wait_ns(double ns) {
  Instruction i;
  i.kind = dram::CommandKind::kNop;
  i.slots_after_previous = 1;
  i.extra_wait_ns = ns;
  instructions_.push_back(i);
  return *this;
}

Program& Program::hammer(std::uint32_t bank, std::uint32_t row_a,
                         std::uint32_t row_b, std::uint64_t count,
                         double act_to_act_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row_a;
  i.loop_row_b = row_b;
  i.loop_count = count;
  i.loop_act_to_act_ns =
      act_to_act_ns > 0.0 ? act_to_act_ns : timing_.t_rc_ns;
  return push(i, timing_.t_rp_ns, -1.0);
}

Program& Program::hammer_single(std::uint32_t bank, std::uint32_t row,
                                std::uint64_t count, double act_to_act_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row;
  i.loop_row_b = row;
  i.loop_count = count;
  i.loop_act_to_act_ns =
      act_to_act_ns > 0.0 ? act_to_act_ns : timing_.t_rc_ns;
  return push(i, timing_.t_rp_ns, -1.0);
}

}  // namespace vppstudy::softmc
