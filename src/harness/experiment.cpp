#include "harness/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/simd.hpp"

namespace vppstudy::harness {

std::vector<std::uint32_t> RowSampling::sample(
    const dram::RowMapping& mapping) const {
  std::vector<std::uint32_t> rows;
  const std::uint32_t total = mapping.rows();
  if (chunks == 0 || rows_per_chunk == 0) return rows;
  rows.reserve(static_cast<std::size_t>(chunks) * rows_per_chunk);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    // Chunk starts spread evenly across the bank.
    const std::uint32_t start =
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(total) * c) / chunks);
    for (std::uint32_t i = 0; i < rows_per_chunk; ++i) {
      const std::uint32_t row = start + i;
      if (row >= total) break;
      if (!mapping.physical_neighbors(row).valid) continue;  // bank edge
      rows.push_back(row);
    }
  }
  return rows;
}

std::uint64_t count_bit_flips(std::span<const std::uint8_t> expected,
                              std::span<const std::uint8_t> observed) {
  // Checked in every build: the kernel reads both spans to the same length.
  if (expected.size() != observed.size()) {
    std::fprintf(stderr,
                 "count_bit_flips: images differ in length (%zu vs %zu "
                 "bytes)\n",
                 expected.size(), observed.size());
    std::abort();
  }
  return common::simd::xor_popcount(expected.data(), observed.data(),
                                    expected.size());
}

double bit_error_rate(std::span<const std::uint8_t> expected,
                      std::span<const std::uint8_t> observed) {
  if (expected.empty()) return 0.0;
  return static_cast<double>(count_bit_flips(expected, observed)) /
         (static_cast<double>(expected.size()) * 8.0);
}

}  // namespace vppstudy::harness
