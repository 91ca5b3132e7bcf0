#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VPP_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define VPP_SIMD_HAVE_AVX2 0
#endif

namespace vppstudy::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: the AVX2 path below must
// match them bit for bit (asserted by the SimdWordWalk test suite).
// ---------------------------------------------------------------------------

void hash_index_walk_scalar(std::uint64_t prefix, std::uint64_t tag,
                            std::uint64_t index0, std::size_t n,
                            std::uint64_t* out) {
  // hash_accumulate(h, w) = mix64(h ^ mix64(w)); mix64(tag) is index-free,
  // so hoist it: out[i] = mix64(mix64(prefix ^ mix64(index0+i)) ^ mtag).
  const std::uint64_t mtag = mix64(tag);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t inner = mix64(prefix ^ mix64(index0 + i));
    out[i] = mix64(inner ^ mtag);
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

#if VPP_SIMD_HAVE_AVX2

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

__attribute__((target("avx2"))) void
hash_index_walk_avx2(std::uint64_t prefix, std::uint64_t tag,
                     std::uint64_t index0, std::size_t n, std::uint64_t* out) {
  const std::uint64_t mtag = mix64(tag);
  const __m256i vprefix = _mm256_set1_epi64x(static_cast<long long>(prefix));
  const __m256i vmtag = _mm256_set1_epi64x(static_cast<long long>(mtag));
  const __m256i step = _mm256_set1_epi64x(4);
  __m256i idx = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(index0)),
      _mm256_set_epi64x(3, 2, 1, 0));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = mix64_avx2(_mm256_xor_si256(vprefix, mix64_avx2(idx)));
    h = mix64_avx2(_mm256_xor_si256(h, vmtag));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
    idx = _mm256_add_epi64(idx, step);
  }
  if (i < n) hash_index_walk_scalar(prefix, tag, index0 + i, n - i, out + i);
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

#endif  // VPP_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch. Resolved once on first use; force_impl()/VPP_SIMD override.
// ---------------------------------------------------------------------------

Impl detect_impl() noexcept {
#if VPP_SIMD_HAVE_AVX2
  if (const char* env = std::getenv("VPP_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return Impl::kScalar;
    if (std::strcmp(env, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
      return Impl::kAvx2;
    }
  }
  if (__builtin_cpu_supports("avx2")) return Impl::kAvx2;
#endif
  return Impl::kScalar;
}

// kScalar/kAvx2 values double as the atomic payload; -1 means "not resolved".
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

bool avx2_supported() noexcept {
#if VPP_SIMD_HAVE_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Impl active_impl() noexcept { return resolved_impl(); }

const char* active_impl_name() noexcept {
  return active_impl() == Impl::kAvx2 ? "avx2" : "scalar";
}

bool force_impl(std::optional<Impl> impl) noexcept {
  if (!impl.has_value()) {
    g_impl.store(-1, std::memory_order_relaxed);
    return true;
  }
  if (*impl == Impl::kAvx2 && !avx2_supported()) return false;
  g_impl.store(static_cast<int>(*impl), std::memory_order_relaxed);
  return true;
}

void hash_index_walk(std::uint64_t prefix, std::uint64_t tag,
                     std::uint64_t index0, std::size_t n, std::uint64_t* out) {
#if VPP_SIMD_HAVE_AVX2
  if (resolved_impl() == Impl::kAvx2) {
    hash_index_walk_avx2(prefix, tag, index0, n, out);
    return;
  }
#endif
  hash_index_walk_scalar(prefix, tag, index0, n, out);
}

void uniform_index_walk(std::uint64_t prefix, std::uint64_t tag,
                        std::uint64_t index0, std::size_t n, double* out) {
  // Hash in chunks through a stack buffer, then convert. to_unit_double is an
  // exact dyadic map, so conversion order cannot affect values.
  constexpr std::size_t kChunk = 256;
  std::uint64_t buf[kChunk];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = (n - done < kChunk) ? (n - done) : kChunk;
    hash_index_walk(prefix, tag, index0 + done, take, buf);
    for (std::size_t i = 0; i < take; ++i) {
      out[done + i] = to_unit_double(buf[i]);
    }
    done += take;
  }
}

std::uint64_t xor_popcount(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
#if VPP_SIMD_HAVE_AVX2
  if (resolved_impl() == Impl::kAvx2) return xor_popcount_avx2(a, b, n);
#endif
  return xor_popcount_scalar(a, b, n);
}

}  // namespace vppstudy::common::simd
