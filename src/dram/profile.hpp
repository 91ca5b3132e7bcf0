// Per-module characterization profile. One of these exists for each of the
// 30 DIMMs of Table 3 (src/chips/module_db.cpp); it carries both the public
// catalog data (density, organization, dates) and the calibration anchors
// the cell physics uses so the harness re-measures the paper's numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dram/mapping.hpp"
#include "dram/types.hpp"

namespace vppstudy::dram {

/// A class of retention-weak rows (Obsv. 15 / Fig. 11): a fraction of rows
/// carries `words_affected` weak cells whose retention time at VPPmin falls
/// just below a refresh-window boundary. Weak cells land in *distinct* 64-bit
/// words (which is why SECDED repairs them, Obsv. 14).
struct RetentionWeakClass {
  double row_fraction = 0.0;       ///< fraction of rows in this class
  std::uint32_t words_affected = 0;///< weak cells (= erroneous words) per row
  /// Retention time band of the weak cells at VPPmin [ms]. Choose inside
  /// (32, 64] to populate Fig. 11a, (64, 128] for Fig. 11b.
  double t_ret_lo_ms = 0.0;
  double t_ret_hi_ms = 0.0;

  friend bool operator==(const RetentionWeakClass&,
                         const RetentionWeakClass&) = default;
};

struct ModuleProfile {
  // --- Catalog data (Tables 1 and 3) ---------------------------------------
  std::string name;        ///< e.g. "A0"
  std::string dimm_model;  ///< e.g. "MTA18ASF2G72PZ-2G3B1QK"
  Manufacturer mfr = Manufacturer::kMfrA;
  int num_chips = 8;
  int density_gbit = 8;    ///< per-chip density
  int org_width = 8;       ///< x4 / x8
  std::string die_revision;///< "-" when the DIMM vendor scrubbed it
  std::string mfr_date;    ///< week-year, "-" when unknown
  int frequency_mts = 2400;

  // --- Geometry -------------------------------------------------------------
  std::uint32_t rows_per_bank = 65536;
  std::uint32_t banks = kBanksPerRank;
  /// Post-manufacturing row repairs (fused-out rows remapped to spares);
  /// section 4.2 cites these as a reason internal mappings must be
  /// reverse-engineered.
  std::vector<RowRepair> row_repairs;

  // --- RowHammer calibration anchors (Table 3) -------------------------------
  double hc_first_nominal = 30e3;  ///< module-min HCfirst at VPP = 2.5V
  double ber_nominal = 1e-3;       ///< worst-row BER at HC=300K, VPP = 2.5V
  double vppmin_v = 1.6;           ///< lowest VPP with working communication
  double hc_first_vppmin = 32e3;   ///< module-min HCfirst at VPPmin
  double ber_vppmin = 0.8e-3;      ///< worst-row BER at HC=300K at VPPmin
  double vpp_rec_v = 2.5;          ///< recommended VPP (Table 3, VPP_Rec)

  // --- Row activation latency model (Fig. 7) --------------------------------
  double trcd0_ns = 11.0;          ///< module tRCDmin at nominal VPP
  double trcd_vpp_slope_ns = 1.0;  ///< growth toward VPPmin (x sensitivity shape)

  // --- Retention model (Figs. 10/11) ----------------------------------------
  /// Median of ln(retention seconds) across normal cells at 80C, VPP=2.5V.
  double ret_mu_log_s = 4.1;
  RetentionWeakClass weak_64ms;    ///< rows failing first at tREFW = 64ms
  RetentionWeakClass weak_64ms_b;  ///< secondary 64ms class (Mfr. B's 116-word rows)
  RetentionWeakClass weak_128ms;   ///< rows failing first at tREFW = 128ms

  // --- Feature flags ----------------------------------------------------------
  bool has_trr = true;       ///< on-die TRR present (inert without REF)
  bool has_ondie_ecc = false;///< none of the tested modules has on-die ECC

  /// Deterministic seed for all per-cell parameter synthesis.
  std::uint64_t seed = 1;

  [[nodiscard]] int total_chips() const noexcept { return num_chips; }

  friend bool operator==(const ModuleProfile&, const ModuleProfile&) = default;
};

}  // namespace vppstudy::dram
