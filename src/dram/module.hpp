// The DDR4 module device model: a rank of lock-step chips exposed at module
// granularity (8KB rows, 64-bit columns), with externally driven VPP/VDD
// rails, a bank state machine, lazily evaluated cell physics, an internal
// logical->physical row mapping, TRR, and optional on-die ECC.
//
// The host (src/softmc) supplies cycle-accurate command timestamps; the
// device reacts physically (partial restoration on short tRAS, read errors
// on short tRCD, decay without REF, disturbance from neighbor activations).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/units.hpp"
#include "dram/mapping.hpp"
#include "dram/mode_registers.hpp"
#include "dram/physics.hpp"
#include "dram/profile.hpp"
#include "dram/trr.hpp"
#include "dram/types.hpp"

namespace vppstudy::dram {

/// Counters a test harness reads out after an experiment.
struct ModuleStats {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t hammer_bit_flips = 0;
  std::uint64_t retention_bit_flips = 0;
  std::uint64_t trcd_read_errors = 0;
  std::uint64_t trr_mitigations = 0;
  std::uint64_t ondie_ecc_corrections = 0;

  friend bool operator==(const ModuleStats&, const ModuleStats&) = default;
};

/// How a module's senses were served: from a row's flip index or by the
/// full-row scan (docs/MODEL.md "Sensing hot path & flip index"). Apart
/// from ModuleStats, whose equality the fast and reference paths share.
struct FlipIndexStats {
  std::uint64_t builds = 0;          ///< flip indexes built or rebuilt
  std::uint64_t index_senses = 0;    ///< senses answered from flip indexes
  std::uint64_t full_row_scans = 0;  ///< senses that scanned the whole row
  std::uint64_t index_bytes = 0;     ///< heap bytes the cached indexes hold
};

class Module {
  struct RowState;

 public:
  /// Behavioral switches that do not belong to the device profile.
  struct Options {
    /// Evaluate flips with the reference 65536-bit row scan instead of the
    /// flip-index fast path. Both are bit-exact by construction (the
    /// determinism suite asserts it); the reference scan exists so tests
    /// and benches can measure and cross-check the fast path.
    bool reference_sensing = false;
  };

  explicit Module(ModuleProfile profile);
  Module(ModuleProfile profile, Options options);

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const ModuleProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] const CellPhysics& physics() const noexcept { return physics_; }
  [[nodiscard]] const RowMapping& mapping() const noexcept { return mapping_; }
  [[nodiscard]] const ModuleStats& stats() const noexcept { return stats_; }
  /// Module-lifetime, like the per-row physics store the indexes live in:
  /// reset_device_state() keeps them.
  [[nodiscard]] const FlipIndexStats& flip_index_stats() const noexcept {
    return flip_index_stats_;
  }

  // --- Power rail and environment -------------------------------------------
  /// Drive the external VPP rail. The device accepts any voltage; whether it
  /// still *responds* is a separate question (see responsive()).
  void set_vpp(double vpp_v) noexcept { vpp_v_ = vpp_v; }
  [[nodiscard]] double vpp() const noexcept { return vpp_v_; }
  void set_temperature(double temp_c) noexcept { temp_c_ = temp_c; }
  [[nodiscard]] double temperature() const noexcept { return temp_c_; }
  /// Below the module's VPPmin the access transistors can no longer connect
  /// cells to bitlines and the module stops communicating (section 7).
  [[nodiscard]] bool responsive() const noexcept {
    return vpp_v_ >= profile_.vppmin_v - 1e-9;
  }

  void set_trr_enabled(bool enabled) noexcept { trr_enabled_ = enabled; }
  /// TRR tracker-dynamics tally (insertions/evictions/displaced acts/
  /// mitigations) -- the basis of per-pattern TRR-bypass accounting: snapshot
  /// before and after an attack and diff.
  [[nodiscard]] const TrrEngine::Counters& trr_counters() const noexcept {
    return trr_.counters();
  }

  /// Test/bench hook: toggle the reference full-row scan (see Options).
  void set_reference_sensing(bool on) noexcept {
    options_.reference_sensing = on;
  }
  [[nodiscard]] bool reference_sensing() const noexcept {
    return options_.reference_sensing;
  }

  /// MRS command: program a mode register (banks must be precharged).
  /// Supported: MR0 (CL/BL), MR2 (CWL), MR4 (refresh options), MR6 (vendor
  /// TRR enable). FGR 2x widens the per-REF stripe so every row is visited
  /// twice per refresh window.
  [[nodiscard]] common::Status load_mode_register(int mr_index,
                                                  std::uint32_t operand,
                                                  double now_ns);
  [[nodiscard]] const ModeRegisters& mode_registers() const noexcept {
    return mode_registers_;
  }

  /// Optional run-to-run measurement noise (relative sigma on the effective
  /// disturbance of each hammer evaluation). Real rigs see small thermal and
  /// supply fluctuations between iterations -- the paper quantifies them via
  /// the coefficient of variation across 10 repeats (section 4.6). Default 0
  /// keeps the model bit-exact across repeated identical experiments.
  void set_measurement_noise(double relative_sigma) noexcept {
    measurement_noise_sigma_ = relative_sigma;
  }

  /// Select an independent stream for the *sequential* noise draws (read
  /// jitter, hammer measurement noise) and restart their counters. Stream 0
  /// reproduces the default sequence. The parallel sweep engine derives one
  /// stream per (module, VPP level) job so that a job's results are a pure
  /// function of its key, independent of scheduling (core/parallel_study).
  void set_noise_stream(std::uint64_t stream) noexcept {
    noise_stream_ = stream;
    read_noise_counter_ = 0;
    hammer_noise_counter_ = 0;
  }
  /// The active sequential-noise stream key (recorded in trace dumps so a
  /// replay session can reproduce the same noise draws).
  [[nodiscard]] std::uint64_t noise_stream() const noexcept {
    return noise_stream_;
  }

  // --- DDR4 command interface (now_ns: host-provided command time) -----------
  [[nodiscard]] common::Status activate(std::uint32_t bank,
                                        std::uint32_t logical_row,
                                        double now_ns);
  [[nodiscard]] common::Status precharge(std::uint32_t bank, double now_ns);
  [[nodiscard]] common::Status precharge_all(double now_ns);
  /// Read one 64-bit column burst from the open row. Reads issued before the
  /// slowest cells have sensed (short tRCD) return corrupted data.
  [[nodiscard]] common::Expected<std::array<std::uint8_t, kBytesPerColumn>>
  read(std::uint32_t bank, std::uint32_t column, double now_ns);
  [[nodiscard]] common::Status write(
      std::uint32_t bank, std::uint32_t column,
      std::span<const std::uint8_t, kBytesPerColumn> data, double now_ns);
  /// A validated run of column commands on one bank's open row. column_run()
  /// makes the checks read()/write() make per command -- responsive, bank,
  /// column range, open row -- once for the whole run, so the per-column
  /// calls below re-check nothing. read()/write() are one-column runs: this
  /// is the only per-column implementation. A run stays valid until the
  /// next non-column command or rail change on the module.
  ///
  /// read_columns()/write_columns() are the bulk forms for a uniform burst
  /// of consecutive columns: same data, stats and noise-counter steps as
  /// the per-column calls, in one copy when nothing can differ per column.
  class ColumnRun {
   public:
    /// One RD burst at `now_ns` (tRCD-marginal reads return corrupted data).
    [[nodiscard]] std::array<std::uint8_t, kBytesPerColumn> read(
        std::uint32_t column, double now_ns);
    void write(std::uint32_t column,
               std::span<const std::uint8_t, kBytesPerColumn> data);
    /// RD of out.size() / kBytesPerColumn consecutive columns from
    /// `first_column` into `out`; the first issues at `first_ns`, each later
    /// one `spacing_ns` after its predecessor (added one step at a time, as
    /// the host clock advances). tRCD only grows along the burst and
    /// trcd_certainly_safe is monotone in it, so when the first read is
    /// certainly safe the whole burst is one copy; otherwise each column is
    /// read() at its issue time.
    void read_columns(std::uint32_t first_column, double first_ns,
                      double spacing_ns, std::span<std::uint8_t> out);
    /// WR of data.size() / kBytesPerColumn consecutive columns from
    /// `first_column`: one copy.
    void write_columns(std::uint32_t first_column,
                       std::span<const std::uint8_t> data);

   private:
    /// Whether no cell can fail a read at `now_ns` (refreshes the row's
    /// cached tRCD mean when the rail moved).
    [[nodiscard]] bool trcd_certainly_safe(double now_ns);

    friend class Module;
    ColumnRun(Module& module, std::uint32_t bank, std::uint32_t physical_row,
              double activate_ns, RowState& row)
        : module_(&module),
          bank_(bank),
          physical_row_(physical_row),
          activate_ns_(activate_ns),
          row_(&row) {}

    Module* module_;
    std::uint32_t bank_;
    std::uint32_t physical_row_;
    double activate_ns_;  ///< when the open row was activated
    RowState* row_;
  };
  /// Open a run of `kind` (kRead or kWrite) commands on `bank` addressing
  /// columns up to `max_column`. Fails with the error read()/write() would
  /// return for a `kind` command on `bank` at `max_column`.
  [[nodiscard]] common::Expected<ColumnRun> column_run(CommandKind kind,
                                                       std::uint32_t bank,
                                                       std::uint32_t max_column);

  /// One REF command: refreshes the next stripe of rows in every bank and
  /// gives TRR its chance to act.
  [[nodiscard]] common::Status refresh(double now_ns);

  /// Bulk double-sided hammer fast path (the SoftMC LOOP instruction):
  /// alternately activate+precharge `row_a` and `row_b` `count` times each,
  /// spaced `act_to_act_ns` apart. Advances `now_ns` past the loop.
  [[nodiscard]] common::Status hammer_pair(std::uint32_t bank,
                                           std::uint32_t logical_row_a,
                                           std::uint32_t logical_row_b,
                                           std::uint64_t count,
                                           double act_to_act_ns,
                                           double& now_ns);

  /// Single-row hammer fast path: activate+precharge one row `count` times.
  /// The burst primitive of non-uniform attack patterns
  /// (harness/pattern_spec), where each aggressor is hammered on its own
  /// schedule rather than in interleaved pairs.
  [[nodiscard]] common::Status hammer_single(std::uint32_t bank,
                                             std::uint32_t logical_row,
                                             std::uint64_t count,
                                             double act_to_act_ns,
                                             double& now_ns);

  /// Test/debug support: direct snapshot of a row's stored bytes, evaluating
  /// pending physics first (as an activation at `now_ns` would).
  [[nodiscard]] std::vector<std::uint8_t> debug_row_snapshot(
      std::uint32_t bank, std::uint32_t logical_row, double now_ns);

  /// Return the device to its power-on state: all mutable experiment state
  /// (row contents, bank state machines, stats, rail/temperature pushes,
  /// noise streams, mode registers, TRR tables, refresh cursor) is reset as
  /// if the module were freshly constructed. The per-row physics store is
  /// deliberately PRESERVED: everything in it is a pure function of
  /// (module seed, bank, row), so a reused module is bit-identical to a
  /// fresh one while skipping the expensive cache rebuilds. Behavioral
  /// Options (reference_sensing) are left as currently set.
  /// softmc::Session::reset_for_job builds its worker-arena reuse on this.
  void reset_device_state();

 private:
  /// Lazily built per-row caches of quantities that are pure functions of
  /// (module seed, bank, row). They are device-lifetime immutable, so they
  /// live in a store that survives reset_device_state(); the memory budget
  /// is documented in docs/MODEL.md ("Sensing hot path & flip index").
  struct RowPhysicsCache {
    bool has_params = false;
    CellPhysics::RowParams params;
    /// Memoized trcd_row_mean_ns at `trcd_mean_vpp` (the one VPP-dependent
    /// quantity on the read path; VPP rarely changes between read bursts).
    double trcd_mean_vpp = -1.0;  ///< no valid rail voltage is negative
    double trcd_mean_ns = 0.0;
    bool has_weak = false;
    std::vector<CellPhysics::WeakCell> weak;  ///< sorted by bit index
    std::vector<std::uint64_t> polarity;      ///< charged_words, empty=unbuilt
    CellPhysics::RowFlipIndex hammer_index;     ///< unbuilt until first use
    CellPhysics::RowFlipIndex retention_index;
    /// Deterministic power-up byte image of the row (hash of coordinates);
    /// empty until the row is first initialized. Re-initializing a row after
    /// reset_device_state() becomes a copy instead of 8192 hash chains.
    std::vector<std::uint8_t> powerup;
  };
  struct RowState {
    std::vector<std::uint8_t> data;  ///< kBytesPerRow once initialized
    double restore_time_ns = 0.0;
    double restore_vpp = common::kNominalVppV;
    double restore_q = 1.0;  ///< fraction of full restoration achieved
    double neigh_below_acts = 0.0;  ///< weighted snapshot at last restore
    double neigh_above_acts = 0.0;
    double neigh2_below_acts = 0.0;  ///< distance-2 snapshots
    double neigh2_above_acts = 0.0;
    bool initialized = false;
    /// Borrowed from physics_store_ (nodes are pointer-stable); wired up by
    /// row_state() when the RowState is created.
    RowPhysicsCache* physics = nullptr;
  };
  struct BankState {
    std::unordered_map<std::uint32_t, RowState> rows;  // by physical row
    /// Disturbance-weighted activation counts by physical row: a plain ACT
    /// adds 1.0, a hammer-loop activation adds its on-time factor.
    std::unordered_map<std::uint32_t, double> acts;
    std::int64_t open_physical_row = -1;
    /// State of the open row (unordered_map nodes are pointer-stable), so
    /// the per-column read/write burst skips the hash lookup.
    RowState* open_row_state = nullptr;
    double activate_time_ns = 0.0;
  };

  [[nodiscard]] common::Status check_responsive() const;
  [[nodiscard]] common::Error range_error(std::string what,
                                          std::uint32_t value,
                                          std::uint32_t limit) const;
  RowState& row_state(BankState& bank_state, std::uint32_t bank,
                      std::uint32_t physical_row);
  [[nodiscard]] double acts_of(const BankState& b,
                               std::uint32_t physical_row) const;
  /// Apply pending retention + hammer physics to a row, then mark it
  /// restored at `now_ns` (what a row activation's sensing does).
  void sense_and_restore(std::uint32_t bank, BankState& bs,
                         std::uint32_t physical_row, RowState& rs,
                         double now_ns);
  void apply_flips(std::uint32_t bank, std::uint32_t physical_row,
                   RowState& rs, double p_hammer, double p_retention,
                   double dt_s);
  void ensure_initialized(std::uint32_t bank, std::uint32_t physical_row,
                          RowState& rs);
  void refresh_physical_row(std::uint32_t bank, std::uint32_t physical_row,
                            double now_ns);

  // --- Per-row physics cache accessors (lazily built) -----------------------
  [[nodiscard]] const CellPhysics::RowParams& cached_row_params(
      std::uint32_t bank, std::uint32_t physical_row, RowState& rs);
  [[nodiscard]] const std::vector<CellPhysics::WeakCell>& cached_weak_cells(
      std::uint32_t bank, std::uint32_t physical_row, RowState& rs);
  [[nodiscard]] const std::vector<std::uint64_t>& cached_polarity(
      std::uint32_t bank, std::uint32_t physical_row, RowState& rs);
  /// The row's flip index for a draw kind, rebuilt deeper when it does not
  /// cover `p` (p <= 1/16); nullptr for a row no index can serve, which
  /// the caller scans instead.
  [[nodiscard]] const CellPhysics::RowFlipIndex* covering_flip_index(
      std::uint32_t bank, std::uint32_t physical_row, RowState& rs,
      CellPhysics::CellDraw what, double p);

  ModuleProfile profile_;
  Options options_;
  CellPhysics physics_;
  RowMapping mapping_;
  TrrEngine trr_;
  ModeRegisters mode_registers_;
  bool trr_enabled_ = true;
  std::vector<BankState> banks_;
  /// Per-bank physics caches keyed by physical row; module-lifetime (pure
  /// functions of the seed), survives reset_device_state().
  std::vector<std::unordered_map<std::uint32_t, RowPhysicsCache>>
      physics_store_;
  ModuleStats stats_;
  FlipIndexStats flip_index_stats_;
  double vpp_v_ = common::kNominalVppV;
  double temp_c_ = common::kHammerTestTempC;
  std::uint32_t refresh_cursor_ = 0;
  std::uint64_t noise_stream_ = 0;  ///< XORed into the seed of noise draws
  std::uint64_t read_noise_counter_ = 0;
  std::uint64_t hammer_noise_counter_ = 0;
  double measurement_noise_sigma_ = 0.0;
};

}  // namespace vppstudy::dram
