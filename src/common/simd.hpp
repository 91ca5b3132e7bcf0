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
// which is independent SplitMix64 chains, one per vector lane. Two walks
// share that core: hash_index_walk stores the hashes, and hash_mask_walk
// compares each against an integer threshold and packs the results into
// 64-bit masks, one bit per index -- the shape the sensing scan consumes,
// since a flip draw "uniform > 1 - p" is exactly "hash >= min_hash_above(
// 1 - p)" (common/rng.hpp) and never needs a double.
//
// Three implementations, all bit-exact replicas of the scalar kernel, which
// is the definition: AVX2 runs four lanes and synthesizes the 64-bit
// multiply from 32x32->64 partial products (compare: sign-flipped cmpgt plus
// movemask); AVX-512 (F+DQ) runs eight lanes with native vpmullq (compare:
// cmpge_epu64_mask). Every lane performs the same adds, shifts, xors and
// 64-bit multiplies as mix64.
//
// The same dispatch serves xor_popcount, the harness's flip counter: the
// number of bits that differ between two byte images, 256 bits per AVX2 step
// (nibble-table popcount) instead of one byte at a time. It has no AVX-512
// kernel; the avx512 dispatch runs the AVX2 one.
//
// Dispatch is decided once, on first use, from CPU detection (the widest
// kernel the CPU runs). The VPP_SIMD environment variable selects a
// narrower one: it takes exactly the names active_impl_name() prints
// ("scalar", "avx2", "avx512"), and an unknown or unsupported value is
// reported on stderr and ignored.
// Tests override it via force_impl(). Overrides are not thread-safe --
// install them before spawning workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace vppstudy::common::simd {

enum class Impl {
  kScalar,  ///< portable fallback, used on non-x86 or by request
  kAvx2,    ///< 4-wide AVX2 kernels
  kAvx512,  ///< 8-wide AVX-512 (F+DQ) kernels
};

/// True when this CPU can run `impl`'s kernels (kScalar: always).
[[nodiscard]] bool impl_supported(Impl impl) noexcept;

/// The implementation batched walks currently dispatch to.
[[nodiscard]] Impl active_impl() noexcept;

/// Name of active_impl(): "scalar", "avx2" or "avx512" -- also the values
/// VPP_SIMD accepts.
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

/// Threshold form of the same walk: bit j of out[w] is set iff
/// hash(index0 + 64*w + j) >= min_hash, for w in [0, words).
void hash_mask_walk(std::uint64_t prefix, std::uint64_t tag,
                    std::uint64_t index0, std::size_t words,
                    std::uint64_t min_hash, std::uint64_t* out);

/// Number of bits that differ between a[0, n) and b[0, n): the popcount of
/// a XOR b. Both implementations return the same exact count.
[[nodiscard]] std::uint64_t xor_popcount(const std::uint8_t* a,
                                         const std::uint8_t* b,
                                         std::size_t n);

}  // namespace vppstudy::common::simd
