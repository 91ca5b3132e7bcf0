// Counter-based deterministic random utilities.
//
// Every stochastic quantity in the device model (per-cell weakness, retention
// time, threshold voltage, ...) is synthesized on demand from a counter-based
// hash keyed on (seed, coordinates, parameter id). This gives the defining
// property of real-chip characterization data -- bit flips occur at
// *consistently predictable locations* across repeated tests -- without
// storing per-cell state for billions of cells.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>

namespace vppstudy::common {

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Initial accumulator state of hash_key (pi fractional bits).
inline constexpr std::uint64_t kHashInit = 0x243f6a8885a308d3ULL;

/// Fold one key word into a running hash accumulator. hash_key is exactly a
/// left fold of this over kHashInit, so a fixed key prefix can be hashed once
/// and reused across a walk that only varies the trailing words (the batched
/// word-walk kernels in common/simd.hpp depend on this factorization).
[[nodiscard]] constexpr std::uint64_t
hash_accumulate(std::uint64_t h, std::uint64_t w) noexcept {
  return mix64(h ^ mix64(w));
}

/// Hash an arbitrary-length key of 64-bit words into one 64-bit value.
[[nodiscard]] constexpr std::uint64_t
hash_key(std::initializer_list<std::uint64_t> words) noexcept {
  std::uint64_t h = kHashInit;
  for (std::uint64_t w : words) {
    h = hash_accumulate(h, w);
  }
  return h;
}

/// Uniform double in [0, 1) from a 64-bit hash value.
[[nodiscard]] constexpr double to_unit_double(std::uint64_t h) noexcept {
  // Use the top 53 bits for a dyadic rational in [0,1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Smallest hash h with to_unit_double(h) > t, so that the comparison
/// becomes the exact integer test h >= min_hash_above(t). With
/// k = floor(t * 2^53) + 1 the bound is k << 11: every hash passes when
/// t < 0, and none does (std::nullopt) when k >= 2^53 -- t >= 1 - 2^-53,
/// or NaN, which no draw exceeds either.
[[nodiscard]] constexpr std::optional<std::uint64_t>
min_hash_above(double t) noexcept {
  if (t < 0.0) return 0;
  if (!(t < 1.0)) return std::nullopt;
  // t * 2^53 is exact and in [0, 2^53), so truncation is the floor.
  const auto k = static_cast<std::uint64_t>(t * 0x1.0p53) + 1;
  if (k >= (std::uint64_t{1} << 53)) return std::nullopt;
  return k << 11;
}

/// Uniform double in [0, 1) for a hashed key.
[[nodiscard]] constexpr double
uniform_at(std::initializer_list<std::uint64_t> words) noexcept {
  return to_unit_double(hash_key(words));
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over the full open interval).
[[nodiscard]] double inverse_normal_cdf(double p) noexcept;

/// Standard normal CDF, accurate to ~1e-12 (via std::erfc).
[[nodiscard]] double normal_cdf(double z) noexcept;

/// Standard normal draw for a hashed key.
[[nodiscard]] double normal_at(std::initializer_list<std::uint64_t> words) noexcept;

/// A small, fast sequential PRNG (xoshiro256**) for Monte-Carlo loops where a
/// stream (rather than a pure function of coordinates) is the right tool.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Standard normal via inverse-CDF of a uniform draw.
  [[nodiscard]] double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Uniform integer in [0, bound).
  [[nodiscard]] std::uint64_t bounded(std::uint64_t bound) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vppstudy::common
