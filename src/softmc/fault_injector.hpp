// FaultInjector: a deterministic, seeded SessionObserver + CommandInterceptor
// that perturbs the command stream and returned data in flight, modeling the
// misbehaving silicon the paper's host software had to survive at reduced
// VPP (section 4.1): activations that never latch, corrupted read bursts,
// late precharges that violate tRP at the next ACT, and modules that go
// silent mid-program. Every decision is a pure function of
// (plan seed, attempt salt, command index, fault kind), so the same plan
// injects the same faults in the same places on every run -- which is what
// makes the replay-fuzz CI gauntlet and the harness retry policy testable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/expected.hpp"
#include "softmc/observer.hpp"

namespace vppstudy::softmc {

/// The fault taxonomy. Documented error-path mapping (asserted in
/// tests/softmc/fault_injector_test.cpp and docs/MODEL.md):
///   kDropAct      -> kDeviceProtocol   (a later RD/WR hits a closed row)
///   kDuplicateAct -> kDeviceProtocol   (second ACT lands on an open bank)
///   kDropRead     -> kReadUnderrun     (row readout returns fewer bursts)
///   kFlipReadBits -> no typed error: silent data corruption, surfaces as
///                    bit flips in whatever experiment verifies the row
///   kDelayPre     -> no typed error: the late PRE shortens the gap to the
///                    next ACT, tripping the TimingChecker's tRP rule
///   kSpuriousError-> the rule's configured ErrorCode, surfaced mid-program
///                    as if the device had rejected the command
enum class FaultKind : std::uint8_t {
  kDropAct,
  kDuplicateAct,
  kDropRead,
  kFlipReadBits,
  kDelayPre,
  kSpuriousError,
};

/// Stable spec/JSON name, e.g. "drop_act".
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;

/// The typed error a fault of this kind is documented to provoke;
/// kUnknown for the silent kinds (kFlipReadBits, kDelayPre).
[[nodiscard]] common::ErrorCode expected_error_code(FaultKind kind) noexcept;

/// One injection rule: probability-based (`probability` per eligible
/// command) or schedule-based (`at_command` pins the fault to one exact
/// host-command index). A rule with probability 0 and no schedule is inert.
struct FaultRule {
  /// Sentinel: no scheduled command index.
  static constexpr std::uint64_t kNoSchedule = ~0ULL;

  FaultKind kind = FaultKind::kDropAct;
  double probability = 0.0;
  std::uint64_t at_command = kNoSchedule;
  std::uint32_t bits = 1;      ///< kFlipReadBits: bits flipped per burst
  double delay_ns = 10.0;      ///< kDelayPre: how late the PRE lands
  common::ErrorCode code = common::ErrorCode::kModuleUnresponsive;  ///< kSpuriousError

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

/// A seeded set of fault rules.
///
/// Spec grammar (semicolon-separated clauses):
///   seed=<N>
///   <kind>=<probability>[,bits=<n>][,ns=<delay>][,code=<kErrorCode>]
///   <kind>@<command-index>[,bits=<n>][,ns=<delay>][,code=<kErrorCode>]
/// with <kind> one of drop_act, dup_act, drop_read, flip_read, delay_pre,
/// spurious. Example:
///   "seed=42;drop_act=0.001;flip_read=0.0005,bits=2;spurious@5000,code=kModuleUnresponsive"
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
  [[nodiscard]] static common::Result<FaultPlan> parse(std::string_view spec);
  /// Canonical spec string (parse(to_string()) round-trips).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

class FaultInjector final : public SessionObserver, public CommandInterceptor {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Per-kind injection tallies.
  struct InjectionCounts {
    std::uint64_t dropped_acts = 0;
    std::uint64_t duplicated_acts = 0;
    std::uint64_t dropped_reads = 0;
    std::uint64_t corrupted_reads = 0;
    std::uint64_t flipped_bits = 0;
    std::uint64_t delayed_pres = 0;
    std::uint64_t spurious_errors = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
      return dropped_acts + duplicated_acts + dropped_reads +
             corrupted_reads + delayed_pres + spurious_errors;
    }
    InjectionCounts& operator+=(const InjectionCounts& other) noexcept {
      dropped_acts += other.dropped_acts;
      duplicated_acts += other.duplicated_acts;
      dropped_reads += other.dropped_reads;
      corrupted_reads += other.corrupted_reads;
      flipped_bits += other.flipped_bits;
      delayed_pres += other.delayed_pres;
      spurious_errors += other.spurious_errors;
      return *this;
    }
    friend bool operator==(const InjectionCounts&,
                           const InjectionCounts&) = default;
  };

  /// One injected fault, for post-mortems and determinism assertions.
  struct InjectionEvent {
    FaultKind kind = FaultKind::kDropAct;
    std::uint64_t command_index = 0;
    double at_ns = 0.0;

    friend bool operator==(const InjectionEvent&,
                           const InjectionEvent&) = default;
  };

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const InjectionCounts& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] const std::vector<InjectionEvent>& log() const noexcept {
    return log_;
  }
  /// Host commands intercepted so far (the command-index domain of
  /// schedule-based rules).
  [[nodiscard]] std::uint64_t commands_seen() const noexcept {
    return commands_seen_;
  }

  /// Re-salt the injection draws for a retry attempt: the same plan under a
  /// different attempt perturbs *different* commands, so a bounded-retry
  /// policy can make progress against probabilistic faults while staying
  /// fully deterministic. Resets counters, log, and command index.
  void set_attempt(std::uint32_t attempt) noexcept;
  [[nodiscard]] std::uint32_t attempt() const noexcept { return attempt_; }

  // --- CommandInterceptor ----------------------------------------------------
  Decision intercept(Instruction& inst, double now_ns) override;
  void corrupt_read(std::uint32_t bank, std::uint32_t column,
                    std::array<std::uint8_t, dram::kBytesPerColumn>& data,
                    double now_ns) override;

 private:
  [[nodiscard]] bool fires(const FaultRule& rule, std::uint64_t index,
                           std::uint64_t salt) const noexcept;
  void record(FaultKind kind, std::uint64_t index, double at_ns);

  FaultPlan plan_;
  std::uint32_t attempt_ = 0;
  std::uint64_t commands_seen_ = 0;
  /// tRP debt from a delayed PRE, reclaimed at the next ACT on that bank.
  double pending_trp_debt_ns_ = 0.0;
  std::uint32_t pending_trp_bank_ = 0;
  InjectionCounts counts_;
  std::vector<InjectionEvent> log_;
};

}  // namespace vppstudy::softmc
