// Bulk column bursts against the per-command loop. Session::init_row and
// read_row issue their row transfer's column burst as one run (observer
// on_column_run + one dram::Module::column_run validation + a bulk copy);
// every Program, and every burst while an interceptor is attached, goes
// command by command. Attaching a pass-through interceptor -- a
// FaultInjector with an empty plan -- forces the per-command walk of the
// burst too. The paths must agree bit for bit on everything a caller can
// see: read bursts and row images, returned errors, device stats, command
// counters (simulated_ns included), the violation log, the trace ring, and
// each observer's full callback sequence. Under a non-empty fault plan the
// session's row I/O must also match executing RowOps::program(transfer).
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
  void on_column_run(const ColumnBurst& burst, double start_ns) override {
    ++runs;
    SessionObserver::on_column_run(burst, start_ns);
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

/// One session, optionally forced onto the per-command loop by an injector
/// running `plan` (empty: pass-through).
struct Rig {
  explicit Rig(bool per_command, const char* module = "B3",
               FaultPlan plan = {})
      : session(small_profile(module)), injector(std::move(plan)) {
    session.add_observer(&log);
    session.enable_trace(8192);
    if (per_command) session.set_fault_injector(&injector);
  }

  Session session;
  FaultInjector injector;
  CallbackLog log;
  std::vector<ExecutionResult> results;
  /// Session row I/O outcomes: "ok" or the error, and each row read back.
  std::vector<std::string> outcomes;
  std::vector<std::vector<std::uint8_t>> rows;

  void run(const Program& program) {
    results.push_back(session.execute(program));
  }
  void init(std::uint32_t bank, std::uint32_t row,
            const std::vector<std::uint8_t>& image) {
    const common::Status st = session.init_row(bank, row, image);
    outcomes.push_back(st.ok() ? "ok" : st.error().to_string());
  }
  void read(std::uint32_t bank, std::uint32_t row, double trcd_ns = -1.0) {
    auto image = session.read_row(bank, row, trcd_ns);
    outcomes.push_back(image ? "ok" : image.error().to_string());
    if (image) rows.push_back(*std::move(image));
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
  EXPECT_EQ(runs.outcomes, reference.outcomes);
  EXPECT_EQ(runs.rows, reference.rows);
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
  EXPECT_EQ(runs.log.runs, 0u);  // a Program never forms a run
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
  // The leading reads violate tRCD; every command went one by one.
  EXPECT_GE(runs.session.violations().size(), 2u);
  EXPECT_EQ(runs.session.violations().front().rule, "tRCD");
  EXPECT_EQ(runs.log.runs, 0u);
}

TEST(ColumnRunEquivalence, ProgramTextMixingBanksKindsAndBadColumn) {
  Rig runs(false);
  Rig reference(true);
  Program program(runs.session.timing());
  program.act(0, 10)
      .act(1, 20, 3)
      .wr(0, 0, {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0xff}, 15)
      .wr(0, 1, {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, 6)
      .wr(0, 2, {0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10}, 6)
      .wr(1, 0, {0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}, 6)
      .wr(1, 1, {0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a}, 6)
      .rd(0, 2, 6)
      .rd(0, 1, 6)
      .rd(0, 0, 6)
      .wait_ns(10)
      .rd(0, 1, 6)
      .rd(1, 0, 1.5)
      .rd(1, 1, 1.5)
      .rd(1, 5, 1.5)
      .rd(1, 1024, 1.5)  // out of range: aborts mid-run
      .rd(1, 6, 1.5)
      .pre(0)
      .pre(1);
  runs.run(program);
  reference.run(program);
  expect_equivalent(runs, reference);
  const ExecutionResult& r = runs.results.front();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.error().code, common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.reads.size(), 7u);  // every read before the bad column
  EXPECT_EQ(runs.log.runs, 0u);
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

TEST(ColumnRunEquivalence, SessionRowIoAtNominalTiming) {
  Rig runs(false);
  Rig reference(true);
  for (Rig* rig : {&runs, &reference}) {
    for (const std::uint32_t row : {100u, 101u, 2047u}) {
      const auto image = dram::pattern_row(
          row % 2 == 0 ? dram::DataPattern::kCheckerAA
                       : dram::DataPattern::kThickCC,
          dram::kBytesPerRow);
      rig->init(0, row, image);
      ASSERT_TRUE(
          rig->session.hammer_double_sided(0, row + 1, row + 3, 50000).ok());
      rig->read(0, row);
      rig->read(0, row, 30.0);
    }
  }
  expect_equivalent(runs, reference);
  EXPECT_EQ(runs.rows.size(), 6u);
  EXPECT_EQ(runs.log.runs, 9u);  // one burst per init_row and per read_row
  EXPECT_TRUE(runs.session.violations().empty());
}

TEST(ColumnRunEquivalence, SessionReadRowBelowSpecTrcdGoesPerCommand) {
  Rig runs(false, "A0");
  Rig reference(true, "A0");
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  for (Rig* rig : {&runs, &reference}) {
    rig->init(1, 50, image);
    rig->read(1, 50, 3.0);
    rig->read(1, 50, 7.5);
  }
  expect_equivalent(runs, reference);
  EXPECT_GE(runs.session.violations().size(), 2u);
  EXPECT_EQ(runs.session.violations().front().rule, "tRCD");
  EXPECT_GT(runs.session.module().stats().trcd_read_errors, 0u);
  // Flagged bursts go command by command: only the init_row burst is a run.
  EXPECT_EQ(runs.log.runs, 1u);
}

TEST(ColumnRunEquivalence, SessionLegalTrcdAtLowVppKeepsTheNoiseSequence) {
  // A0 at 1.7V: a read at nominal tRCD is legal (no violation, so the burst
  // goes in bulk) but not certainly safe, so the device reads it column by
  // column; the certainly-safe 30ns read is one copy. Every read draws the
  // next noise position either way. The marginal 11ns single-column reads
  // at 2.5V come out differently for different jitter draws, so they
  // expose any drift in that sequence.
  Rig runs(false, "A0");
  Rig reference(true, "A0");
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  for (Rig* rig : {&runs, &reference}) {
    ASSERT_TRUE(rig->session.set_vpp(1.7).ok());
    rig->init(1, 50, image);
    rig->read(1, 50, 30.0);
    rig->read(1, 50);
    rig->read(1, 50, 30.0);
    ASSERT_TRUE(rig->session.set_vpp(2.5).ok());
    for (std::uint32_t column = 0; column < 8; ++column) {
      auto word = rig->session.read_column_with_trcd(1, 50, column, 11.0);
      ASSERT_TRUE(word.has_value());
      rig->rows.emplace_back(word->begin(), word->end());
    }
  }
  expect_equivalent(runs, reference);
  EXPECT_EQ(runs.session.violations().size(), 8u);  // the 11ns reads only
  EXPECT_EQ(runs.log.runs, 4u);
  ASSERT_EQ(runs.rows.size(), 11u);
  EXPECT_EQ(runs.rows[0], image);
  EXPECT_NE(runs.rows[1], image);
  EXPECT_EQ(runs.rows[2], image);
}

TEST(ColumnRunEquivalence, SessionRowIoBelowVppminGivesTheSameError) {
  Rig runs(false);  // B3: VPPmin 1.6V
  Rig reference(true);
  const auto image =
      dram::pattern_row(dram::DataPattern::kAllOnes, dram::kBytesPerRow);
  for (Rig* rig : {&runs, &reference}) {
    rig->init(2, 7, image);
    EXPECT_FALSE(rig->session.set_vpp(1.5).ok());
    rig->init(2, 7, image);
    rig->read(2, 7);
  }
  expect_equivalent(runs, reference);
  ASSERT_EQ(runs.outcomes.size(), 3u);
  EXPECT_EQ(runs.outcomes[0], "ok");
  EXPECT_NE(runs.outcomes[1].find("ACT"), std::string::npos)
      << runs.outcomes[1];
  EXPECT_NE(runs.outcomes[2].find("read_row"), std::string::npos)
      << runs.outcomes[2];
  EXPECT_EQ(runs.session.counters().device_errors, 2u);
}

TEST(ColumnRunEquivalence, SessionWrongSizeImageIssuesNothing) {
  Rig runs(false);
  Rig reference(true);
  for (Rig* rig : {&runs, &reference}) {
    rig->init(0, 9, std::vector<std::uint8_t>(dram::kBytesPerRow - 1, 0xff));
    rig->init(0, 9, {});
  }
  expect_equivalent(runs, reference);
  ASSERT_EQ(runs.outcomes.size(), 2u);
  EXPECT_NE(runs.outcomes[0].find("8191"), std::string::npos)
      << runs.outcomes[0];
  EXPECT_EQ(runs.session.counters(), CommandCounts{});
  EXPECT_EQ(runs.session.clock_ns(), 0.0);
  EXPECT_EQ(runs.session.trace()->total_recorded(), 0u);
  EXPECT_TRUE(runs.log.events.empty());
}

/// Session::init_row spelled as executing RowOps::program(transfer).
void program_init(Rig& rig, std::uint32_t bank, std::uint32_t row,
                  const std::vector<std::uint8_t>& image) {
  const RowOps ops(rig.session.timing());
  auto program = ops.init_row(bank, row, image);
  ASSERT_TRUE(program.has_value());
  const common::Status st = rig.session.execute(*program).status;
  rig.outcomes.push_back(st.ok() ? "ok" : st.error().to_string());
}

/// Session::read_row spelled as executing RowOps::program(transfer), with
/// read_row's error context and burst-count check.
void program_read(Rig& rig, std::uint32_t bank, std::uint32_t row) {
  const RowOps ops(rig.session.timing());
  ExecutionResult r = rig.session.execute(ops.read_row(bank, row));
  if (!r.status.ok()) {
    rig.outcomes.push_back(std::move(r.status)
                               .error()
                               .with_bank_row(static_cast<std::int32_t>(bank),
                                              row)
                               .with_context("read_row")
                               .to_string());
    return;
  }
  if (r.reads.size() != dram::kColumnsPerRow) {
    rig.outcomes.push_back(
        common::Error{common::ErrorCode::kReadUnderrun,
                      "row readout returned " +
                          std::to_string(r.reads.size()) + " of " +
                          std::to_string(dram::kColumnsPerRow) +
                          " read bursts"}
            .with_module(rig.session.module().profile().name)
            .with_bank_row(static_cast<std::int32_t>(bank), row)
            .with_op("RD")
            .to_string());
    return;
  }
  rig.outcomes.push_back("ok");
  std::vector<std::uint8_t> image;
  for (const auto& burst : r.reads) {
    image.insert(image.end(), burst.begin(), burst.end());
  }
  rig.rows.push_back(std::move(image));
}

TEST(ColumnRunEquivalence, SessionRowIoUnderFaultsMatchesTheProgram) {
  const FaultPlan plan =
      FaultPlan::parse(
          "seed=11;drop_read=0.0004;flip_read=0.0005,bits=3;"
          "dup_act=0.15;delay_pre=0.3,ns=9")
          .value();
  Rig session_io(true, "B3", plan);
  Rig programs(true, "B3", plan);
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  Program close_bank(session_io.session.timing());
  close_bank.pre(0);
  for (std::uint32_t row = 100; row < 116; ++row) {
    session_io.init(0, row, image);
    program_init(programs, 0, row, image);
    // A duplicated ACT leaves the bank open; both rigs close it alike.
    for (Rig* rig : {&session_io, &programs}) rig->run(close_bank);
    session_io.read(0, row);
    program_read(programs, 0, row);
    for (Rig* rig : {&session_io, &programs}) rig->run(close_bank);
  }
  expect_equivalent(session_io, programs);
  EXPECT_EQ(session_io.log.runs, 0u);
  EXPECT_EQ(session_io.injector.counts(), programs.injector.counts());
  EXPECT_EQ(session_io.injector.log(), programs.injector.log());
  EXPECT_EQ(session_io.injector.commands_seen(),
            programs.injector.commands_seen());

  // Every fault kind of the plan fired, and each shows up where it should.
  const FaultInjector::InjectionCounts& counts = session_io.injector.counts();
  EXPECT_GT(counts.dropped_reads, 0u);
  EXPECT_GT(counts.corrupted_reads, 0u);
  EXPECT_GT(counts.duplicated_acts, 0u);
  EXPECT_GT(counts.delayed_pres, 0u);
  const auto has_outcome = [&](const std::string& needle) {
    for (const std::string& o : session_io.outcomes) {
      if (o.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_outcome("1023 of 1024"));
  EXPECT_TRUE(has_outcome("kDeviceProtocol"));
  bool corrupted = false;
  for (const auto& row : session_io.rows) corrupted |= row != image;
  EXPECT_TRUE(corrupted);
  bool trp = false;
  for (const TimingViolation& v : session_io.session.violations()) {
    trp |= v.rule == "tRP";
  }
  EXPECT_TRUE(trp);
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
