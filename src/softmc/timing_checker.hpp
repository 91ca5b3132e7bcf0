// Observational DDR4 timing checker. SoftMC deliberately lets tests violate
// timing -- that is the methodology -- so the checker never blocks a command;
// it records which JEDEC rule a command would have broken, letting tests and
// benches distinguish intentional violations (reduced tRCD) from bugs. It is
// the first observer on the CommandDispatcher: it sees every command before
// the device acts on it.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "dram/timing.hpp"
#include "dram/types.hpp"
#include "softmc/observer.hpp"

namespace vppstudy::softmc {

class TimingChecker : public SessionObserver {
 public:
  explicit TimingChecker(dram::Ddr4Timing timing);

  /// Observe a command at `now_ns`; appends violations (if any).
  void observe(dram::CommandKind kind, std::uint32_t bank, double now_ns);
  /// Observe a bulk hammer loop (checked against tRC once).
  void observe_hammer(std::uint32_t bank, std::uint64_t count,
                      double act_to_act_ns, double start_ns, double end_ns);
  /// Whether a RD/WR to `bank` at `now_ns` would be flagged (tRCD). Column
  /// commands leave the checker's state alone, so along a burst on one bank
  /// only a prefix can be flagged: the dispatcher asks this for a burst's
  /// first command before issuing the burst in bulk.
  [[nodiscard]] bool flags_column(std::uint32_t bank,
                                  double now_ns) const noexcept;

  // --- SessionObserver -------------------------------------------------------
  /// Loop instructions are skipped here (their timing is checked when the
  /// loop retires, via on_hammer).
  void on_command(const Instruction& inst, double now_ns) override {
    if (inst.loop_count > 0) return;
    observe(inst.kind, inst.bank, now_ns);
  }
  /// Nothing to check: the dispatcher delivers only bursts whose first
  /// command is not flagged, and column commands leave the state alone.
  void on_column_run(const ColumnBurst& burst, double start_ns) override {
    (void)burst;
    (void)start_ns;
  }
  void on_hammer(std::uint32_t bank, std::uint64_t count,
                 double act_to_act_ns, double start_ns,
                 double end_ns) override {
    observe_hammer(bank, count, act_to_act_ns, start_ns, end_ns);
  }

  [[nodiscard]] const std::vector<TimingViolation>& violations() const noexcept {
    return violations_;
  }
  void clear_violations() { violations_.clear(); }

  /// Forget all command history and recorded violations, returning the
  /// checker to its just-constructed state (Session::reset_for_job).
  void reset() {
    banks_.assign(banks_.size(), BankTimes{});
    violations_.clear();
    recent_acts_.clear();
    last_act_any_bank_ = -1e18;
  }

 private:
  struct BankTimes {
    double last_act = -1e18;
    double last_pre = -1e18;
    bool open = false;
  };

  void record(const std::string& rule, std::uint32_t bank, double required,
              double actual, double at);

  dram::Ddr4Timing timing_;
  std::vector<BankTimes> banks_;
  std::vector<TimingViolation> violations_;
  std::deque<double> recent_acts_;  ///< rank-level, for tFAW
  double last_act_any_bank_ = -1e18;
};

}  // namespace vppstudy::softmc
