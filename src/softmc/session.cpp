#include "softmc/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "softmc/fault_injector.hpp"

namespace vppstudy::softmc {

using common::Error;
using common::ErrorCode;
using common::Status;

namespace {

std::int64_t to_millivolts(double volts) noexcept {
  return static_cast<std::int64_t>(std::llround(volts * 1000.0));
}

}  // namespace

Session::Session(dram::ModuleProfile profile)
    : module_(std::move(profile)),
      timing_(dram::timing_for_speed_grade(module_.profile().frequency_mts)),
      rail_(common::kNominalVppV),
      checker_(timing_),
      dispatcher_(module_, checker_),
      ops_(timing_) {
  module_.set_vpp(rail_.voltage());
  module_.set_temperature(chamber_.temperature_c());
  // Observer order is part of the execution contract: the timing checker
  // must see every command first, then derived metrics accumulate.
  dispatcher_.add_observer(&checker_);
  dispatcher_.add_observer(&counters_);
}

void Session::reset_for_job() {
  set_fault_injector(nullptr);
  disable_trace();
  checker_.reset();
  counters_.reset();
  // Rail and chamber are small value types; reconstructing them reproduces
  // the constructor's state exactly (the chamber's PID plant temperature
  // must start pristine for a later settle() to be bit-identical to a fresh
  // session's).
  rail_ = PowerRail(common::kNominalVppV);
  chamber_ = ThermalChamber();
  clock_ns_ = 0.0;
  auto_refresh_ = false;
  module_.reset_device_state();
  module_.set_vpp(rail_.voltage());
  module_.set_temperature(chamber_.temperature_c());
}

void Session::set_fault_injector(FaultInjector* injector) {
  if (injector_ != nullptr) {
    dispatcher_.remove_observer(injector_);
    dispatcher_.set_interceptor(nullptr);
  }
  injector_ = injector;
  if (injector_ != nullptr) {
    dispatcher_.set_interceptor(injector_);
    dispatcher_.add_observer(injector_);
  }
}

void Session::enable_trace(std::size_t capacity) {
  disable_trace();
  trace_ = std::make_unique<CommandTraceRecorder>(capacity);
  dispatcher_.add_observer(trace_.get());
}

void Session::disable_trace() {
  if (!trace_) return;
  dispatcher_.remove_observer(trace_.get());
  trace_.reset();
}

Status Session::set_vpp(double vpp_v) {
  auto applied = rail_.set_voltage(vpp_v);
  if (!applied) {
    return std::move(applied)
        .error()
        .with_module(module_.profile().name)
        .with_vpp_mv(to_millivolts(vpp_v));
  }
  module_.set_vpp(*applied);
  if (!module_.responsive()) {
    return Error{ErrorCode::kModuleUnresponsive,
                 "module " + module_.profile().name +
                     " stopped communicating at VPP=" +
                     std::to_string(*applied) + "V (below VPPmin)"}
        .with_module(module_.profile().name)
        .with_vpp_mv(to_millivolts(*applied));
  }
  return Status::ok_status();
}

Status Session::set_temperature(double temp_c) {
  const auto settle = chamber_.settle(temp_c);
  module_.set_temperature(settle.temperature_c);
  if (!settle.converged) {
    return Error{ErrorCode::kThermalTimeout,
                 "thermal chamber failed to settle at " +
                     std::to_string(temp_c) + "C"}
        .with_module(module_.profile().name);
  }
  return Status::ok_status();
}

Status Session::init_row(std::uint32_t bank, std::uint32_t row,
                         const std::vector<std::uint8_t>& image) {
  auto transfer = ops_.row_write(bank, row, image);
  if (!transfer) {
    return std::move(transfer).error().with_module(module_.profile().name);
  }
  return dispatcher_.execute_transfer(*transfer, {}, clock_ns_).status;
}

common::Expected<std::vector<std::uint8_t>> Session::read_row(
    std::uint32_t bank, std::uint32_t row, double trcd_ns) {
  std::vector<std::uint8_t> out(dram::kBytesPerRow);
  auto [status, bursts] = dispatcher_.execute_transfer(
      ops_.row_read(bank, row, trcd_ns), out, clock_ns_);
  if (!status.ok()) {
    return std::move(status)
        .error()
        .with_bank_row(static_cast<std::int32_t>(bank), row)
        .with_context("read_row");
  }
  if (bursts != dram::kColumnsPerRow) {
    // A short read is a rig fault, not data: zero-filling the tail would
    // masquerade as bit flips in whatever experiment is verifying this row.
    return Error{ErrorCode::kReadUnderrun,
                 "row readout returned " + std::to_string(bursts) + " of " +
                     std::to_string(dram::kColumnsPerRow) + " read bursts"}
        .with_module(module_.profile().name)
        .with_bank_row(static_cast<std::int32_t>(bank), row)
        .with_op("RD");
  }
  return out;
}

common::Expected<std::array<std::uint8_t, dram::kBytesPerColumn>>
Session::read_column_with_trcd(std::uint32_t bank, std::uint32_t row,
                               std::uint32_t column, double trcd_ns) {
  auto r = execute(ops_.read_column(bank, row, column, trcd_ns));
  if (!r.status.ok()) {
    return std::move(r.status)
        .error()
        .with_bank_row(static_cast<std::int32_t>(bank), row)
        .with_context("read_column_with_trcd");
  }
  if (r.reads.size() != 1) {
    return Error{ErrorCode::kReadUnderrun,
                 "expected exactly one read burst, got " +
                     std::to_string(r.reads.size())}
        .with_module(module_.profile().name)
        .with_bank_row(static_cast<std::int32_t>(bank), row)
        .with_op("RD");
  }
  return r.reads.front();
}

Status Session::hammer_double_sided(std::uint32_t bank, std::uint32_t row_a,
                                    std::uint32_t row_b, std::uint64_t count,
                                    double act_to_act_ns) {
  return execute(ops_.hammer_pair(bank, row_a, row_b, count, act_to_act_ns))
      .status;
}

Status Session::wait_ms(double ms) {
  if (!auto_refresh_) {
    return execute(ops_.wait(common::ms_to_ns(ms))).status;
  }
  // With refresh enabled, interleave REF commands at tREFI.
  double remaining_ns = common::ms_to_ns(ms);
  while (remaining_ns > 0.0) {
    const double chunk = std::min(remaining_ns, timing_.t_refi_ns);
    auto r = execute(ops_.wait(chunk, /*ref_after=*/true));
    if (!r.status.ok()) return r.status;
    remaining_ns -= chunk;
  }
  return Status::ok_status();
}

}  // namespace vppstudy::softmc
