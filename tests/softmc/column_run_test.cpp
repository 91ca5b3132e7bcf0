// Column-run dispatch against the per-command loop. Without an interceptor
// the dispatcher issues each run of consecutive RD (or WR) commands on one
// bank in bulk (observer on_column_run + one dram::Module::column_run
// validation); attaching a pass-through interceptor -- a FaultInjector with
// an empty plan -- forces the per-command loop for every instruction. The
// two must agree bit for bit on everything a caller can see: read bursts,
// device stats, command counters (simulated_ns included), the violation
// log, the trace ring, and each observer's full callback sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "dram/data_pattern.hpp"
#include "dram/types.hpp"
#include "softmc/fault_injector.hpp"
#include "softmc/program_text.hpp"
#include "softmc/session.hpp"

namespace vppstudy::softmc {
namespace {

dram::ModuleProfile small_profile(const char* name = "B3") {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

/// Logs every callback with exact (hex-float) timestamps.
class CallbackLog final : public SessionObserver {
 public:
  void on_clock_advance(double from_ns, double to_ns) override {
    add("clock %a %a", from_ns, to_ns);
  }
  void on_command(const Instruction& inst, double now_ns) override {
    add("%s b%u r%u c%u x%llu @%a", dram::command_name(inst.kind), inst.bank,
        inst.row, inst.column,
        static_cast<unsigned long long>(inst.loop_count), now_ns);
  }
  void on_column_run(std::span<const Instruction> run,
                     double start_ns) override {
    ++runs;
    SessionObserver::on_column_run(run, start_ns);
  }
  void on_hammer(std::uint32_t bank, std::uint64_t count,
                 double act_to_act_ns, double start_ns,
                 double end_ns) override {
    add("hammer b%u x%llu %a %a %a", bank,
        static_cast<unsigned long long>(count), act_to_act_ns, start_ns,
        end_ns);
  }
  void on_violation(const TimingViolation& v) override {
    add("violation %s b%u %a %a %a", v.rule.c_str(), v.bank, v.required_ns,
        v.actual_ns, v.at_ns);
  }
  void on_error(const common::Error& error, double now_ns) override {
    events.push_back("error " + error.to_string());
    add("error @%a", now_ns);
  }

  std::vector<std::string> events;
  std::size_t runs = 0;

 private:
  template <typename... Args>
  void add(const char* fmt, Args... args) {
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, args...);
    events.emplace_back(buf);
  }
};

/// One session, optionally forced onto the per-command loop.
struct Rig {
  explicit Rig(bool per_command, const char* module = "B3")
      : session(small_profile(module)), passthrough(FaultPlan{}) {
    session.add_observer(&log);
    session.enable_trace(8192);
    if (per_command) session.set_fault_injector(&passthrough);
  }

  Session session;
  FaultInjector passthrough;
  CallbackLog log;
  std::vector<ExecutionResult> results;

  void run(const Program& program) {
    results.push_back(session.execute(program));
  }
};

void expect_same_violations(const std::vector<TimingViolation>& a,
                            const std::vector<TimingViolation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule, b[i].rule) << i;
    EXPECT_EQ(a[i].bank, b[i].bank) << i;
    EXPECT_EQ(a[i].required_ns, b[i].required_ns) << i;
    EXPECT_EQ(a[i].actual_ns, b[i].actual_ns) << i;
    EXPECT_EQ(a[i].at_ns, b[i].at_ns) << i;
  }
}

/// Everything a caller can observe must match between the two rigs.
void expect_equivalent(const Rig& runs, const Rig& reference) {
  ASSERT_EQ(runs.results.size(), reference.results.size());
  for (std::size_t i = 0; i < runs.results.size(); ++i) {
    const ExecutionResult& a = runs.results[i];
    const ExecutionResult& b = reference.results[i];
    EXPECT_EQ(a.reads, b.reads) << "program " << i;
    EXPECT_EQ(a.timing_violations, b.timing_violations) << "program " << i;
    ASSERT_EQ(a.status.ok(), b.status.ok()) << "program " << i;
    if (!a.status.ok()) {
      EXPECT_EQ(a.status.error().to_string(), b.status.error().to_string());
    }
  }
  EXPECT_EQ(runs.session.module().stats(), reference.session.module().stats());
  EXPECT_EQ(runs.session.counters(), reference.session.counters());
  EXPECT_EQ(runs.session.clock_ns(), reference.session.clock_ns());
  expect_same_violations(runs.session.violations(),
                         reference.session.violations());
  EXPECT_EQ(runs.session.trace()->entries(),
            reference.session.trace()->entries());
  EXPECT_EQ(runs.log.events, reference.log.events);
  // The reference really went command by command.
  EXPECT_EQ(reference.log.runs, 0u);
}

TEST(ColumnRunEquivalence, InitAndReadRowAtNominalTiming) {
  Rig runs(false);
  Rig reference(true);
  const RowOps ops(runs.session.timing());
  for (Rig* rig : {&runs, &reference}) {
    for (const std::uint32_t row : {100u, 101u, 2047u}) {
      const auto image = dram::pattern_row(
          row % 2 == 0 ? dram::DataPattern::kCheckerAA
                       : dram::DataPattern::kThickCC,
          dram::kBytesPerRow);
      rig->run(*ops.init_row(0, row, image));
      rig->run(ops.hammer_pair(0, row + 1, row + 3, 50000));
      rig->run(ops.read_row(0, row));
    }
  }
  expect_equivalent(runs, reference);
  EXPECT_EQ(runs.log.runs, 6u);  // one per init_row and per read_row
  EXPECT_TRUE(runs.session.violations().empty());
}

TEST(ColumnRunEquivalence, ReadRowBelowSpecTrcdFlagsInsideTheRun) {
  Rig runs(false, "A0");
  Rig reference(true, "A0");
  const RowOps ops(runs.session.timing());
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  for (Rig* rig : {&runs, &reference}) {
    rig->run(*ops.init_row(1, 50, image));
    rig->run(ops.read_row(1, 50, 3.0));
    rig->run(ops.read_row(1, 50, 7.5));
  }
  expect_equivalent(runs, reference);
  // The leading reads violate tRCD; the rest of each row still went as a run.
  EXPECT_GE(runs.session.violations().size(), 2u);
  EXPECT_EQ(runs.session.violations().front().rule, "tRCD");
  EXPECT_EQ(runs.log.runs, 3u);
}

TEST(ColumnRunEquivalence, ProgramTextMixingBanksKindsAndBadColumn) {
  Rig runs(false);
  Rig reference(true);
  const std::string text =
      "ACT 0 10\n"
      "ACT 1 20 @3\n"
      "WR 0 0 00112233445566ff @15\n"
      "WR 0 1 0123456789abcdef @6\n"
      "WR 0 2 fedcba9876543210 @6\n"
      "WR 1 0 a5a5a5a5a5a5a5a5 @6\n"
      "WR 1 1 5a5a5a5a5a5a5a5a @6\n"
      "RD 0 2 @6\n"
      "RD 0 1 @6\n"
      "RD 0 0 @6\n"
      "WAIT 10\n"
      "RD 0 1 @6\n"
      "RD 1 0 @1.5\n"
      "RD 1 1 @1.5\n"
      "RD 1 5 @1.5\n"
      "RD 1 1024 @1.5\n"  // out of range: aborts mid-run
      "RD 1 6 @1.5\n"
      "PRE 0\n"
      "PRE 1\n";
  auto program = program_from_text(text, runs.session.timing());
  ASSERT_TRUE(program.has_value()) << program.error().message;
  runs.run(*program);
  reference.run(*program);
  expect_equivalent(runs, reference);
  const ExecutionResult& r = runs.results.front();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.error().code, common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.reads.size(), 7u);  // every read before the bad column
  EXPECT_GT(runs.log.runs, 0u);
}

TEST(ColumnRunEquivalence, VppBelowVppminRejectsTheRun) {
  Rig runs(false);  // B3: VPPmin 1.6V
  Rig reference(true);
  const RowOps ops(runs.session.timing());
  const auto image =
      dram::pattern_row(dram::DataPattern::kAllOnes, dram::kBytesPerRow);
  Program reads(runs.session.timing());
  for (std::uint32_t c = 0; c < 16; ++c) reads.rd(2, c, 6.0);
  for (Rig* rig : {&runs, &reference}) {
    rig->run(*ops.init_row(2, 7, image));
    Program open(rig->session.timing());
    open.act(2, 7);
    rig->run(open);
    EXPECT_FALSE(rig->session.set_vpp(1.5).ok());
    rig->run(reads);
    rig->run(ops.read_row(2, 7));
  }
  expect_equivalent(runs, reference);
  for (std::size_t i = 2; i < 4; ++i) {
    const ExecutionResult& r = runs.results[i];
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.error().code, common::ErrorCode::kModuleUnresponsive);
    EXPECT_TRUE(r.reads.empty());
  }
  EXPECT_EQ(runs.session.counters().device_errors, 2u);
}

TEST(ColumnRun, ReadRowNotifiesEachObserverOnce) {
  Rig rig(false);
  const auto image =
      dram::pattern_row(dram::DataPattern::kChecker55, dram::kBytesPerRow);
  ASSERT_TRUE(rig.session.init_row(0, 9, image).ok());
  auto row = rig.session.read_row(0, 9);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(*row, image);
  EXPECT_EQ(rig.log.runs, 2u);
  // The default on_column_run still replays every command.
  EXPECT_EQ(rig.session.trace()->total_recorded(),
            4u + 2u * dram::kColumnsPerRow);
}

TEST(ColumnRun, SingleColumnReadsAndWritesStayPerCommand) {
  Rig rig(false);
  Program p(rig.session.timing());
  std::array<std::uint8_t, dram::kBytesPerColumn> word{};
  word.fill(0x3c);
  p.act(0, 4).wr(0, 0, word).rd(0, 0).wr(1, 0, word).pre(0);
  rig.run(p);
  ASSERT_FALSE(rig.results.front().status.ok());  // WR to closed bank 1
  EXPECT_EQ(rig.results.front().reads.size(), 1u);
  EXPECT_EQ(rig.log.runs, 0u);
}

TEST(ColumnRun, ModuleRunValidatesLikeASingleCommand) {
  dram::Module m(small_profile());
  auto closed = m.column_run(dram::CommandKind::kWrite, 0, 3);
  ASSERT_FALSE(closed.has_value());
  auto single = m.write(0, 3, std::array<std::uint8_t, 8>{}, 0.0);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(closed.error().to_string(), single.error().to_string());

  ASSERT_TRUE(m.activate(0, 11, 0.0).ok());
  auto wide = m.column_run(dram::CommandKind::kRead, 0, dram::kColumnsPerRow);
  ASSERT_FALSE(wide.has_value());
  EXPECT_EQ(wide.error().code, common::ErrorCode::kInvalidArgument);
  auto bank = m.column_run(dram::CommandKind::kRead, 99, 0);
  ASSERT_FALSE(bank.has_value());
  EXPECT_EQ(bank.error().code, common::ErrorCode::kInvalidArgument);

  auto run = m.column_run(dram::CommandKind::kWrite, 0, 1);
  ASSERT_TRUE(run.has_value());
  std::array<std::uint8_t, 8> word{};
  word.fill(0x81);
  run->write(1, word);
  auto read = m.read(0, 1, 100.0);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, word);
  EXPECT_EQ(m.stats().writes, 1u);
  EXPECT_EQ(m.stats().reads, 1u);
}

}  // namespace
}  // namespace vppstudy::softmc
