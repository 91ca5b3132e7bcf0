// Retry/backoff policy for characterization campaigns on misbehaving rigs.
// At reduced wordline voltage the paper's modules intermittently drop off the
// bus, corrupt reads, or reject commands (section 4.1); a long campaign
// survives those by classifying each typed failure as transient (retry the
// module's job within a bounded attempt budget) or persistent (quarantine
// the module and keep the partial results). The deterministic
// counterpart of the faults themselves lives in softmc/fault_injector.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace vppstudy::harness {

/// How a typed failure should be treated by a campaign runner.
enum class FaultClass : std::uint8_t {
  kTransient,   ///< plausibly a one-off rig glitch: retry is worthwhile
  kPersistent,  ///< deterministic misconfiguration: retrying cannot help
};

/// Classify an ErrorCode. Transient: the device-interaction failures a
/// flaky rig produces (unresponsive module, protocol rejections, read
/// underruns, fatal timing, thermal timeouts, and kUnknown -- unattributed
/// failures get the benefit of the doubt). Persistent: configuration and
/// data errors (invalid arguments, out-of-range VPP, parse failures, empty
/// samples) that are pure functions of the inputs.
[[nodiscard]] FaultClass classify_error(common::ErrorCode code) noexcept;

/// Bounded-retry policy: an attempt budget. Retries run back to back, with
/// no backoff between attempts.
struct RetryPolicy {
  std::uint32_t max_attempts = 3;  ///< total attempts, first one included

  /// True when `code` is transient and attempts remain after `attempts_used`.
  [[nodiscard]] bool should_retry(common::ErrorCode code,
                                  std::uint32_t attempts_used) const noexcept {
    return attempts_used < max_attempts &&
           classify_error(code) == FaultClass::kTransient;
  }
};

/// A module the campaign gave up on, with the evidence.
struct QuarantineRecord {
  std::string module;
  common::ErrorCode code = common::ErrorCode::kUnknown;
  std::string message;
  std::uint32_t attempts = 0;  ///< attempts burned before quarantine
};

}  // namespace vppstudy::harness
