#include "harness/recovery.hpp"

namespace vppstudy::harness {

FaultClass classify_error(common::ErrorCode code) noexcept {
  using common::ErrorCode;
  switch (code) {
    case ErrorCode::kUnknown:
    case ErrorCode::kModuleUnresponsive:
    case ErrorCode::kThermalTimeout:
    case ErrorCode::kTimingViolationFatal:
    case ErrorCode::kReadUnderrun:
    case ErrorCode::kDeviceProtocol:
      return FaultClass::kTransient;
    // A failed socket write, a momentarily full daemon queue, or a shard
    // lease lost to expiry is worth a retry (the worker can re-lease); the
    // rest of the server-layer codes describe requests that cannot succeed
    // as issued.
    case ErrorCode::kIoError:
    case ErrorCode::kQueueFull:
    case ErrorCode::kLeaseExpired:
      return FaultClass::kTransient;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kVppOutOfRange:
    case ErrorCode::kBadRowImage:
    case ErrorCode::kSolverDiverged:
    case ErrorCode::kParseError:
    case ErrorCode::kNoUsableLevels:
    case ErrorCode::kEmptySample:
    case ErrorCode::kFrameTooLarge:
    case ErrorCode::kUnknownRequest:
    case ErrorCode::kQuotaExceeded:
    case ErrorCode::kCancelled:
      return FaultClass::kPersistent;
  }
  return FaultClass::kTransient;
}

}  // namespace vppstudy::harness
