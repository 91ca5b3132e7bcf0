#include "softmc/row_ops.hpp"

#include <algorithm>

namespace vppstudy::softmc {

using common::Error;
using common::ErrorCode;

common::Expected<RowTransfer> RowOps::row_write(
    std::uint32_t bank, std::uint32_t row,
    std::span<const std::uint8_t> image) const {
  if (image.size() != dram::kBytesPerRow) {
    return Error{ErrorCode::kBadRowImage,
                 "row image must be exactly one row (" +
                     std::to_string(dram::kBytesPerRow) + " bytes), got " +
                     std::to_string(image.size())}
        .with_bank_row(static_cast<std::int32_t>(bank), row);
  }
  // Burst writes back-to-back at 4-clock column spacing.
  RowTransfer t = row_read(bank, row);
  t.burst.kind = dram::CommandKind::kWrite;
  t.burst.write_data = image;
  t.pre.slots_after_previous =
      Program::slots_for(timing_.t_wr_ns + column_spacing_ns());
  return t;
}

RowTransfer RowOps::row_read(std::uint32_t bank, std::uint32_t row,
                             double trcd_ns) const {
  RowTransfer t;
  t.act.kind = dram::CommandKind::kActivate;
  t.act.bank = bank;
  t.act.row = row;
  // A full tRP has elapsed since whatever came before.
  t.act.slots_after_previous = Program::slots_for(timing_.t_rp_ns);
  t.burst.kind = dram::CommandKind::kRead;
  t.burst.bank = bank;
  t.burst.count = dram::kColumnsPerRow;
  t.burst.first_slots =
      Program::slots_for(trcd_ns > 0.0 ? trcd_ns : timing_.t_rcd_ns);
  t.burst.spacing_slots = Program::slots_for(column_spacing_ns());
  t.pre.kind = dram::CommandKind::kPrecharge;
  t.pre.bank = bank;
  t.pre.slots_after_previous = Program::slots_for(timing_.t_rtp_ns);
  return t;
}

Program RowOps::program(const RowTransfer& transfer) const {
  Program p(timing_);
  p.reserve(transfer.burst.count + 2);
  p.push_raw(transfer.act);
  for (std::size_t i = 0; i < transfer.burst.count; ++i) {
    p.push_raw(transfer.burst.instruction(i));
  }
  p.push_raw(transfer.pre);
  return p;
}

common::Expected<Program> RowOps::init_row(
    std::uint32_t bank, std::uint32_t row,
    const std::vector<std::uint8_t>& image) const {
  auto transfer = row_write(bank, row, image);
  if (!transfer) return std::move(transfer).error();
  return program(*transfer);
}

Program RowOps::read_row(std::uint32_t bank, std::uint32_t row,
                         double trcd_ns) const {
  return program(row_read(bank, row, trcd_ns));
}

Program RowOps::read_column(std::uint32_t bank, std::uint32_t row,
                            std::uint32_t column, double trcd_ns) const {
  Program p(timing_);
  p.act(bank, row);
  p.rd(bank, column, trcd_ns);  // possibly < nominal: the experiment
  p.pre(bank, std::max(timing_.t_ras_ns - trcd_ns, timing_.t_rtp_ns));
  return p;
}

Program RowOps::hammer_pair(std::uint32_t bank, std::uint32_t row_a,
                            std::uint32_t row_b, std::uint64_t count,
                            double act_to_act_ns) const {
  Program p(timing_);
  p.hammer(bank, row_a, row_b, count, act_to_act_ns);
  return p;
}

Program RowOps::wait(double ns, bool ref_after) const {
  Program p(timing_);
  p.wait_ns(ns);
  if (ref_after) p.ref(timing_.t_rp_ns);
  return p;
}

}  // namespace vppstudy::softmc
