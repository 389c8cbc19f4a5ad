// rng/splitmix64.hpp
//
// Sebastiano Vigna's splitmix64: a tiny, very fast 64-bit generator whose
// main role here is *seeding* -- expanding one user seed into the state
// words of the serious engines, and hashing (seed, stream-id) pairs into
// independent per-processor streams.
#pragma once

#include <cstdint>
#include <limits>

namespace cgp::rng {

/// One splitmix64 step: advances `state` by the golden-gamma Weyl constant
/// and returns a finalized (avalanched) output word.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless mix of a single word (used to hash stream ids).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Fold word `v` into hash `h`.  Mixing v through its own mix64 before the
/// xor keeps chains from adjacent starting values apart: mix64(h + v) would
/// make (h + 1, v) collide with (h, v + 1).  Keys a context's draw
/// sequence, a permutation_stream's draws and a machine profile's
/// fingerprint.
[[nodiscard]] constexpr std::uint64_t mix_in(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ mix64(v + 0x9E3779B97F4A7C15ull));
}

/// splitmix64 as a standard uniform random bit generator.
class splitmix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit splitmix64(std::uint64_t seed = 0x853C49E6748FEA9Bull) noexcept
      : state_(seed) {}

  constexpr result_type operator()() noexcept { return splitmix64_next(state_); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  friend constexpr bool operator==(const splitmix64&, const splitmix64&) noexcept = default;

 private:
  std::uint64_t state_;
};

}  // namespace cgp::rng
