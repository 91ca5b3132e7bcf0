// SoftMC-style instruction programs. A test is a list of DDR4 commands, each
// scheduled a number of 1.5ns command slots after its predecessor (our FPGA
// interface can issue one command per 1.5ns, section 4.3 footnote 10).
// Builders default to nominal DDR4 timing; characterization tests override
// the slot counts to *violate* timing deliberately -- that flexibility is the
// entire reason the study uses an FPGA platform instead of a CPU.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dram/timing.hpp"
#include "dram/types.hpp"

namespace vppstudy::softmc {

struct Instruction {
  dram::CommandKind kind = dram::CommandKind::kNop;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t column = 0;
  std::array<std::uint8_t, dram::kBytesPerColumn> write_data{};
  /// Command slots (1.5ns each) after the previous instruction issues.
  std::uint32_t slots_after_previous = 1;
  /// kNop only: extra idle time (used for retention waits; slots would
  /// overflow for multi-second waits).
  double extra_wait_ns = 0.0;
  /// Hammer-loop extension (maps to SoftMC's LOOP construct): when
  /// loop_count > 0, this ACT alternates (row, loop_row_b) loop_count times
  /// each with loop_act_to_act_ns spacing.
  std::uint64_t loop_count = 0;
  std::uint32_t loop_row_b = 0;
  double loop_act_to_act_ns = 0.0;
};

/// A uniform column burst: `count` RD (or WR) commands to consecutive
/// columns of one bank's open row, starting at `first_column`. The first
/// issues `first_slots` command slots after the preceding command, each
/// later one `spacing_slots` after its predecessor. A WR burst's payload is
/// `count` columns of bytes in column order (borrowed, not owned). RowOps
/// describes a row write or read as ACT + one burst + PRE; instruction(i)
/// is the burst's i-th command exactly as a Program would hold it.
struct ColumnBurst {
  dram::CommandKind kind = dram::CommandKind::kRead;
  std::uint32_t bank = 0;
  std::uint32_t first_column = 0;
  std::uint32_t count = 0;
  std::uint32_t first_slots = 1;
  std::uint32_t spacing_slots = 1;
  std::span<const std::uint8_t> write_data;

  [[nodiscard]] std::uint32_t slots(std::size_t i) const noexcept {
    return i == 0 ? first_slots : spacing_slots;
  }
  [[nodiscard]] Instruction instruction(std::size_t i) const noexcept;
};

/// Fluent builder for instruction sequences.
class Program {
 public:
  explicit Program(dram::Ddr4Timing timing);

  [[nodiscard]] const dram::Ddr4Timing& timing() const noexcept {
    return timing_;
  }
  [[nodiscard]] const std::vector<Instruction>& instructions() const noexcept {
    return instructions_;
  }
  /// Number of RD instructions: lets the executor pre-size its read-burst
  /// buffer (a 1024-column row read would otherwise reallocate ~10 times).
  [[nodiscard]] std::size_t read_count() const noexcept { return read_count_; }

  /// Convert a latency in ns to command slots, rounding *up* (the FPGA can
  /// only lengthen timing to the next 1.5ns boundary).
  [[nodiscard]] static std::uint32_t slots_for(double ns) noexcept;

  /// Pre-size the instruction list (row-granularity builders know their
  /// command count up front; 1024-column bursts would reallocate ~10 times).
  Program& reserve(std::size_t n) {
    instructions_.reserve(n);
    return *this;
  }

  /// Append a pre-built instruction verbatim -- the slot count and
  /// extra_wait_ns are taken as-is, with no nominal-timing defaults. This is
  /// the trace-replay path (softmc/trace_replayer): a dump entry's absolute
  /// timestamp is reproduced exactly by computing the wait externally, which
  /// slots_for()'s round-up would distort. RowOps expands its row transfers
  /// through it too.
  Program& push_raw(Instruction inst) {
    if (inst.kind == dram::CommandKind::kRead) ++read_count_;
    instructions_.push_back(inst);
    return *this;
  }

  Program& act(std::uint32_t bank, std::uint32_t row, double delay_ns = -1.0);
  Program& pre(std::uint32_t bank, double delay_ns = -1.0);
  Program& rd(std::uint32_t bank, std::uint32_t column, double delay_ns = -1.0);
  Program& wr(std::uint32_t bank, std::uint32_t column,
              std::array<std::uint8_t, dram::kBytesPerColumn> data,
              double delay_ns = -1.0);
  Program& ref(double delay_ns = -1.0);
  Program& wait_ns(double ns);
  /// Double-sided hammer loop: ACT/PRE row_a and row_b alternately,
  /// `count` times each. `act_to_act_ns <= 0` uses the nominal tRC; larger
  /// spacings keep each aggressor open longer (RowPress-style on-time
  /// experiments).
  Program& hammer(std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
                  std::uint64_t count, double act_to_act_ns = -1.0);
  /// Single-row hammer loop: ACT/PRE one row `count` times. Encoded as a
  /// loop instruction with loop_row_b == row (the double-sided encoding
  /// forbids identical rows, so the degenerate case is unambiguous). The
  /// burst primitive of non-uniform pattern specs (harness/pattern_spec).
  Program& hammer_single(std::uint32_t bank, std::uint32_t row,
                         std::uint64_t count, double act_to_act_ns = -1.0);

 private:
  Program& push(Instruction inst, double default_delay_ns, double delay_ns);

  dram::Ddr4Timing timing_;
  std::vector<Instruction> instructions_;
  std::size_t read_count_ = 0;
};

}  // namespace vppstudy::softmc
