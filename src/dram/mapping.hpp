// DRAM-internal address mapping (section 4.2, "Finding Physically Adjacent
// Rows"): manufacturers translate the logical row addresses on the DDR4
// interface into internal physical locations. Double-sided RowHammer needs
// the *physical* neighbors of a victim, so the harness reverse-engineers the
// scheme (src/harness/adjacency.*), exactly as prior work [11,12] does.
//
// Each scheme here is a bijection on the row address space, modeled after
// publicly documented vendor behaviors: bit-swizzled (XOR of low bits),
// pairwise-mirrored blocks, and identity-with-block-inversion.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/types.hpp"

namespace vppstudy::dram {

enum class MappingScheme {
  kIdentity,        ///< logical == physical
  kBitSwizzle,      ///< XOR folding of low row bits (Mfr. A style)
  kMirroredPairs,   ///< swap rows 1,2 mod 4 within blocks (Mfr. B style)
  kBlockInvert,     ///< invert low bits in odd 1K blocks (Mfr. C style)
};

/// The scheme a manufacturer's chips use in this model.
[[nodiscard]] MappingScheme scheme_for(Manufacturer mfr) noexcept;

/// Post-manufacturing row repair: a faulty physical row is fused out and its
/// logical address points at a spare. Section 4.2 names this as one of the
/// two reasons internal mappings exist (and why attackers/auditors must
/// reverse-engineer adjacency rather than assume row +/- 1).
struct RowRepair {
  std::uint32_t logical_row = 0;   ///< the repaired logical address
  std::uint32_t spare_physical = 0;///< its new physical location

  friend bool operator==(const RowRepair&, const RowRepair&) = default;
};

class RowMapping {
 public:
  RowMapping(MappingScheme scheme, std::uint32_t rows) noexcept;
  RowMapping(MappingScheme scheme, std::uint32_t rows,
             std::vector<RowRepair> repairs);

  [[nodiscard]] std::uint32_t logical_to_physical(std::uint32_t row) const noexcept;
  [[nodiscard]] std::uint32_t physical_to_logical(std::uint32_t row) const noexcept;
  [[nodiscard]] const std::vector<RowRepair>& repairs() const noexcept {
    return repairs_;
  }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] MappingScheme scheme() const noexcept { return scheme_; }

  /// Logical addresses of the two physical neighbors of `logical_row` (the
  /// rows a double-sided attack must activate). Neighbors outside the bank
  /// clamp inward (edge rows are attacked single-sided in practice; the
  /// harness skips edge victims instead).
  struct Neighbors {
    std::uint32_t below = 0;  ///< logical address of physical row - 1
    std::uint32_t above = 0;  ///< logical address of physical row + 1
    bool valid = false;       ///< false at the physical edges of the bank
  };
  [[nodiscard]] Neighbors physical_neighbors(std::uint32_t logical_row) const noexcept;

 private:
  [[nodiscard]] std::uint32_t base_transform(std::uint32_t row) const noexcept;

  MappingScheme scheme_;
  std::uint32_t rows_;
  std::vector<RowRepair> repairs_;
};

}  // namespace vppstudy::dram
