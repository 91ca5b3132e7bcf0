#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VPP_SIMD_X86 1
#include <immintrin.h>
#else
#define VPP_SIMD_X86 0
#endif

namespace vppstudy::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: the AVX2 and AVX-512
// paths below must match them bit for bit (asserted by the SimdWordWalk and
// SimdMaskWalk test suites).
// ---------------------------------------------------------------------------

// hash_accumulate(h, w) = mix64(h ^ mix64(w)); mix64(tag) is index-free, so
// callers hoist it: hash = mix64(mix64(prefix ^ mix64(index)) ^ mtag).
inline std::uint64_t walk_hash(std::uint64_t prefix, std::uint64_t mtag,
                               std::uint64_t index) {
  return mix64(mix64(prefix ^ mix64(index)) ^ mtag);
}

void hash_index_walk_scalar(std::uint64_t prefix, std::uint64_t tag,
                            std::uint64_t index0, std::size_t n,
                            std::uint64_t* out) {
  const std::uint64_t mtag = mix64(tag);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = walk_hash(prefix, mtag, index0 + i);
  }
}

void hash_mask_walk_scalar(std::uint64_t prefix, std::uint64_t tag,
                           std::uint64_t index0, std::size_t words,
                           std::uint64_t min_hash, std::uint64_t* out) {
  const std::uint64_t mtag = mix64(tag);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = 0;
    for (std::uint64_t j = 0; j < 64; ++j) {
      const std::uint64_t pass =
          walk_hash(prefix, mtag, index0 + 64 * w + j) >= min_hash;
      mask |= pass << j;
    }
    out[w] = mask;
  }
}

std::uint64_t xor_popcount_scalar(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t n) {
  std::uint64_t bits = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t wa = 0;
    std::uint64_t wb = 0;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    bits += static_cast<std::uint64_t>(std::popcount(wa ^ wb));
  }
  for (; i < n; ++i) {
    bits += static_cast<std::uint64_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return bits;
}

#if VPP_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels. AVX2 has no 64-bit mullo, so synthesize it from 32x32->64
// partial products; adds/shifts/xors map 1:1 to the scalar ops, which is what
// makes the lanes bit-exact replicas of mix64.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
mullo64_avx2(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);  // alo * blo (full 64-bit)
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i mix64_avx2(__m256i x) {
  const __m256i c0 = _mm256_set1_epi64x(0x9e3779b97f4a7c15ULL);
  const __m256i c1 = _mm256_set1_epi64x(0xbf58476d1ce4e5b9ULL);
  const __m256i c2 = _mm256_set1_epi64x(0x94d049bb133111ebULL);
  x = _mm256_add_epi64(x, c0);
  x = mullo64_avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), c1);
  x = mullo64_avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), c2);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

// The four-lane walk_hash at indices idx.
__attribute__((target("avx2"))) inline __m256i
walk_hash_avx2(__m256i vprefix, __m256i vmtag, __m256i idx) {
  const __m256i h = mix64_avx2(_mm256_xor_si256(vprefix, mix64_avx2(idx)));
  return mix64_avx2(_mm256_xor_si256(h, vmtag));
}

__attribute__((target("avx2"))) inline __m256i
first_indices_avx2(std::uint64_t index0) {
  return _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(index0)),
                          _mm256_set_epi64x(3, 2, 1, 0));
}

__attribute__((target("avx2"))) void
hash_index_walk_avx2(std::uint64_t prefix, std::uint64_t tag,
                     std::uint64_t index0, std::size_t n, std::uint64_t* out) {
  const __m256i vprefix = _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vmtag = _mm256_set1_epi64x(static_cast<long long>(mix64(tag)));
  const __m256i step = _mm256_set1_epi64x(4);
  __m256i idx = first_indices_avx2(index0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        walk_hash_avx2(vprefix, vmtag, idx));
    idx = _mm256_add_epi64(idx, step);
  }
  if (i < n) hash_index_walk_scalar(prefix, tag, index0 + i, n - i, out + i);
}

// AVX2 compares 64-bit lanes signed only: flipping the sign bit of both
// sides turns it into the unsigned order, and h >= min is !(min > h).
// movemask then packs one bit per lane, lane 0 lowest.
__attribute__((target("avx2"))) void
hash_mask_walk_avx2(std::uint64_t prefix, std::uint64_t tag,
                    std::uint64_t index0, std::size_t words,
                    std::uint64_t min_hash, std::uint64_t* out) {
  const __m256i vprefix = _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vmtag = _mm256_set1_epi64x(static_cast<long long>(mix64(tag)));
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i vmin = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(min_hash)), sign);
  const __m256i step = _mm256_set1_epi64x(4);
  __m256i idx = first_indices_avx2(index0);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t below = 0;
    for (unsigned j = 0; j < 64; j += 4) {
      const __m256i h =
          _mm256_xor_si256(walk_hash_avx2(vprefix, vmtag, idx), sign);
      const auto lanes = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vmin, h))));
      below |= std::uint64_t{lanes} << j;
      idx = _mm256_add_epi64(idx, step);
    }
    out[w] = ~below;
  }
}

// Nibble-table popcount (vpshufb looks up both nibbles of every byte), then
// vpsadbw sums each 8-byte group into a 64-bit lane: 32 bytes per step, and
// no lane can overflow.
__attribute__((target("avx2"))) std::uint64_t
xor_popcount_avx2(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t n) {
  const __m256i nibble_bits = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i sums = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m256i lo = _mm256_and_si256(x, low_nibble);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_nibble);
    const __m256i per_byte =
        _mm256_add_epi8(_mm256_shuffle_epi8(nibble_bits, lo),
                        _mm256_shuffle_epi8(nibble_bits, hi));
    sums = _mm256_add_epi64(
        sums, _mm256_sad_epu8(per_byte, _mm256_setzero_si256()));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), sums);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         xor_popcount_scalar(a + i, b + i, n - i);
}

// ---------------------------------------------------------------------------
// AVX-512 kernels (F for the compare-into-mask, DQ for vpmullq): the same
// lane arithmetic as mix64, eight lanes per step.
// ---------------------------------------------------------------------------

#define VPP_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))

// GCC 12's _mm512_srli_epi64 passes _mm512_undefined_epi32() as its unused
// merge source, which -Wmaybe-uninitialized misreports at every call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

VPP_TARGET_AVX512 inline __m512i mix64_avx512(__m512i x) {
  const __m512i c0 =
      _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m512i c1 =
      _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m512i c2 =
      _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL));
  x = _mm512_add_epi64(x, c0);
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)), c1);
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)), c2);
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

VPP_TARGET_AVX512 inline __m512i walk_hash_avx512(__m512i vprefix,
                                                  __m512i vmtag, __m512i idx) {
  const __m512i h =
      mix64_avx512(_mm512_xor_si512(vprefix, mix64_avx512(idx)));
  return mix64_avx512(_mm512_xor_si512(h, vmtag));
}

VPP_TARGET_AVX512 inline __m512i first_indices_avx512(std::uint64_t index0) {
  return _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(index0)),
                          _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
}

VPP_TARGET_AVX512 void hash_index_walk_avx512(std::uint64_t prefix,
                                              std::uint64_t tag,
                                              std::uint64_t index0,
                                              std::size_t n,
                                              std::uint64_t* out) {
  const __m512i vprefix = _mm512_set1_epi64(static_cast<long long>(prefix));
  const __m512i vmtag = _mm512_set1_epi64(static_cast<long long>(mix64(tag)));
  const __m512i step = _mm512_set1_epi64(8);
  __m512i idx = first_indices_avx512(index0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(out + i, walk_hash_avx512(vprefix, vmtag, idx));
    idx = _mm512_add_epi64(idx, step);
  }
  if (i < n) hash_index_walk_scalar(prefix, tag, index0 + i, n - i, out + i);
}

VPP_TARGET_AVX512 void hash_mask_walk_avx512(std::uint64_t prefix,
                                             std::uint64_t tag,
                                             std::uint64_t index0,
                                             std::size_t words,
                                             std::uint64_t min_hash,
                                             std::uint64_t* out) {
  const __m512i vprefix = _mm512_set1_epi64(static_cast<long long>(prefix));
  const __m512i vmtag = _mm512_set1_epi64(static_cast<long long>(mix64(tag)));
  const __m512i vmin = _mm512_set1_epi64(static_cast<long long>(min_hash));
  const __m512i step = _mm512_set1_epi64(8);
  __m512i idx = first_indices_avx512(index0);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = 0;
    for (unsigned j = 0; j < 64; j += 8) {
      const __mmask8 pass =
          _mm512_cmpge_epu64_mask(walk_hash_avx512(vprefix, vmtag, idx), vmin);
      mask |= std::uint64_t{pass} << j;
      idx = _mm512_add_epi64(idx, step);
    }
    out[w] = mask;
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#undef VPP_TARGET_AVX512

#endif  // VPP_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch. Resolved once on first use; force_impl()/VPP_SIMD override.
// ---------------------------------------------------------------------------

constexpr Impl kImpls[] = {Impl::kScalar, Impl::kAvx2, Impl::kAvx512};

const char* impl_name(Impl impl) noexcept {
  constexpr const char* kNames[] = {"scalar", "avx2", "avx512"};
  return kNames[static_cast<int>(impl)];
}

Impl widest_supported_impl() noexcept {
  Impl best = Impl::kScalar;
  for (const Impl impl : kImpls) {
    if (impl_supported(impl)) best = impl;
  }
  return best;
}

Impl detect_impl() noexcept {
  const char* env = std::getenv("VPP_SIMD");
  if (env == nullptr) return widest_supported_impl();
  for (const Impl impl : kImpls) {
    if (std::strcmp(env, impl_name(impl)) == 0 && impl_supported(impl)) {
      return impl;
    }
  }
  // A mistyped or unsupported override must not pass silently: a CI step
  // meant to pin the scalar kernels would otherwise test the default ones.
  const Impl chosen = widest_supported_impl();
  std::fprintf(stderr,
               "vppstudy: ignoring VPP_SIMD=\"%s\" (not scalar/avx2/avx512, "
               "or not supported by this CPU); using %s\n",
               env, impl_name(chosen));
  return chosen;
}

// Impl values double as the atomic payload; -1 means "not resolved".
std::atomic<int> g_impl{-1};

Impl resolved_impl() noexcept {
  int v = g_impl.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(detect_impl());
    g_impl.store(v, std::memory_order_relaxed);
  }
  return static_cast<Impl>(v);
}

}  // namespace

bool impl_supported(Impl impl) noexcept {
  switch (impl) {
    case Impl::kScalar:
      return true;
#if VPP_SIMD_X86
    case Impl::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Impl::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#endif
    default:
      return false;
  }
}

Impl active_impl() noexcept { return resolved_impl(); }

const char* active_impl_name() noexcept { return impl_name(active_impl()); }

bool force_impl(std::optional<Impl> impl) noexcept {
  if (!impl.has_value()) {
    g_impl.store(-1, std::memory_order_relaxed);
    return true;
  }
  if (!impl_supported(*impl)) return false;
  g_impl.store(static_cast<int>(*impl), std::memory_order_relaxed);
  return true;
}

void hash_index_walk(std::uint64_t prefix, std::uint64_t tag,
                     std::uint64_t index0, std::size_t n, std::uint64_t* out) {
#if VPP_SIMD_X86
  switch (resolved_impl()) {
    case Impl::kAvx512:
      return hash_index_walk_avx512(prefix, tag, index0, n, out);
    case Impl::kAvx2:
      return hash_index_walk_avx2(prefix, tag, index0, n, out);
    case Impl::kScalar:
      break;
  }
#endif
  hash_index_walk_scalar(prefix, tag, index0, n, out);
}

void hash_mask_walk(std::uint64_t prefix, std::uint64_t tag,
                    std::uint64_t index0, std::size_t words,
                    std::uint64_t min_hash, std::uint64_t* out) {
#if VPP_SIMD_X86
  switch (resolved_impl()) {
    case Impl::kAvx512:
      return hash_mask_walk_avx512(prefix, tag, index0, words, min_hash, out);
    case Impl::kAvx2:
      return hash_mask_walk_avx2(prefix, tag, index0, words, min_hash, out);
    case Impl::kScalar:
      break;
  }
#endif
  hash_mask_walk_scalar(prefix, tag, index0, words, min_hash, out);
}

std::uint64_t xor_popcount(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
#if VPP_SIMD_X86
  // No AVX-512 popcount kernel: an AVX-512 CPU runs the AVX2 one.
  if (resolved_impl() != Impl::kScalar) return xor_popcount_avx2(a, b, n);
#endif
  return xor_popcount_scalar(a, b, n);
}

}  // namespace vppstudy::common::simd
