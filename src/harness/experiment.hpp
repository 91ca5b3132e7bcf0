// Shared experiment plumbing: row sampling (the paper tests four chunks of
// 1K rows evenly distributed across a bank, section 4.2), bit-error counting,
// and result records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/data_pattern.hpp"
#include "dram/mapping.hpp"

namespace vppstudy::harness {

/// Verification reads use this generous activation latency so that marginal
/// tRCD at reduced VPP cannot corrupt the readout of a RowHammer or
/// retention experiment (the paper's "disabling sources of interference",
/// section 4.1; erroneous modules operate reliably at 24ns per Obsv. 7).
inline constexpr double kSafeReadTrcdNs = 30.0;

/// Which rows of a bank an experiment touches.
struct RowSampling {
  std::uint32_t bank = 0;
  std::uint32_t chunks = 4;          ///< evenly distributed across the bank
  std::uint32_t rows_per_chunk = 1024;

  /// Concrete logical row addresses. Rows whose physical position sits at a
  /// bank edge (no two neighbors) are skipped, as are rows whose physical
  /// neighborhood would overlap a chunk boundary ambiguously.
  [[nodiscard]] std::vector<std::uint32_t> sample(
      const dram::RowMapping& mapping) const;
};

/// Count bit flips between an expected and an observed row image, a word at
/// a time (common::simd::xor_popcount). The images must be the same length:
/// a mismatch is a caller bug and aborts in every build.
[[nodiscard]] std::uint64_t count_bit_flips(
    std::span<const std::uint8_t> expected,
    std::span<const std::uint8_t> observed);

/// BER = flipped bits / total bits (the paper's per-row definition).
[[nodiscard]] double bit_error_rate(std::span<const std::uint8_t> expected,
                                    std::span<const std::uint8_t> observed);

}  // namespace vppstudy::harness
