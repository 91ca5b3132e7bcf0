// Runtime-dispatched batched kernels for the counter-based hash walks.
//
// The device model synthesizes every per-cell quantity from
// hash_key({seed, bank, row, index, tag}) (see common/rng.hpp). The hot
// paths -- charged-polarity word construction, flip-index building, and the
// reference 65536-bit sensing scan -- evaluate that hash for every index of a
// row with a fixed (seed, bank, row) prefix and a fixed trailing tag. Because
// hash_key is a left fold of hash_accumulate, the prefix can be folded once
// and the per-index tail computed as
//
//   out[i] = hash_accumulate(hash_accumulate(prefix, index0 + i), tag)
//
// which is four independent SplitMix64 chains per AVX2 vector. This header
// exposes that walk behind a runtime-dispatched implementation (AVX2 when the
// CPU supports it, portable scalar otherwise). Both paths produce bit-exact
// identical output by construction: the AVX2 kernel performs the same adds,
// shifts, xors, and 64-bit multiplies per lane, just four lanes at a time.
//
// The same dispatch serves xor_popcount, the harness's flip counter: the
// number of bits that differ between two byte images, 256 bits per AVX2 step
// (nibble-table popcount) instead of one byte at a time.
//
// Dispatch is decided once, on first use, from CPU detection; it can be
// overridden for tests via force_impl() or the VPP_SIMD environment variable
// ("scalar" or "avx2"). Overrides are not thread-safe -- install them before
// spawning workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace vppstudy::common::simd {

enum class Impl {
  kScalar,  ///< portable fallback, used on non-x86 or by request
  kAvx2,    ///< 4-wide AVX2 kernels
};

/// True when this CPU can run the AVX2 kernels.
[[nodiscard]] bool avx2_supported() noexcept;

/// The implementation batched walks currently dispatch to.
[[nodiscard]] Impl active_impl() noexcept;

/// Human-readable name of active_impl() ("avx2" / "scalar").
[[nodiscard]] const char* active_impl_name() noexcept;

/// Force a specific implementation (tests, benchmarks, debugging). Returns
/// false and leaves dispatch unchanged if the requested implementation is not
/// supported on this CPU. Pass std::nullopt to restore auto-detection (which
/// still honors the VPP_SIMD environment variable).
bool force_impl(std::optional<Impl> impl) noexcept;

/// out[i] = hash_accumulate(hash_accumulate(prefix, index0 + i), tag) for
/// i in [0, n) -- i.e. hash_key({<prefix words>, index0 + i, tag}) where
/// `prefix` is the fold of the fixed leading key words.
void hash_index_walk(std::uint64_t prefix, std::uint64_t tag,
                     std::uint64_t index0, std::size_t n, std::uint64_t* out);

/// Same walk, converted through to_unit_double: uniform draws in [0, 1).
void uniform_index_walk(std::uint64_t prefix, std::uint64_t tag,
                        std::uint64_t index0, std::size_t n, double* out);

/// Number of bits that differ between a[0, n) and b[0, n): the popcount of
/// a XOR b. Both implementations return the same exact count.
[[nodiscard]] std::uint64_t xor_popcount(const std::uint8_t* a,
                                         const std::uint8_t* b,
                                         std::size_t n);

}  // namespace vppstudy::common::simd
