// prp/cipher.hpp
//
// The O(1)-memory permutation backend's core: a keyed pseudorandom
// permutation (PRP) over an arbitrary domain [0, n) that evaluates both
// directions point-wise --
//
//   pi(i)          the image of i          O(rounds) time, O(1) memory
//   pi_inverse(i)  the preimage of i       same cost, same storage
//
// -- with NOTHING materialized: the entire permutation is (seed, n) plus
// ~2 * rounds words of key schedule.  This is the logical endpoint of the
// paper's resource-bound story (memory/IO/communication traded for
// compute): zero memory, pure arithmetic, so a permutation of 10^12
// elements costs exactly as much to "hold" as one of 10^2, and any shard
// or single position of it is addressable without generating the rest.
//
// Construction: a swap-or-not network (Hoang-Morris-Rogaway) over
// Z_M, M = bit_ceil(n), cycle-walked down to [0, n).
//
//  * Each round r has a key K_r uniform in Z_M and a tweak word T_r.  The
//    round maps x to its "partner" x' = (K_r - x) mod M iff a pseudorandom
//    decision bit for the (unordered) pair {x, x'} says so:
//
//      bit = mix64(max(x, x') ^ T_r) & 1
//
//    The decision is keyed by max(x, x'), which is symmetric in the pair,
//    so every round is an involution -- the inverse cipher is the SAME
//    rounds applied in reverse order.  Unlike a (balanced) Feistel network
//    -- whose rounds are always even permutations, visibly biasing tiny
//    domains -- swap-or-not rounds are products of disjoint transpositions
//    and generate all of S_M, which is what lets the S4/S5 chi-square
//    harness pass on exhaustive rank histograms (tests/test_prp.cpp).
//
//  * Cycle-walking handles non-power-of-two n: evaluate the cipher over
//    Z_M and re-encrypt until the value lands below n.  Because the
//    cipher is a bijection on Z_M, walking traverses one cycle and must
//    hit [0, n); with M < 2n the expected number of extra encryptions per
//    evaluation is below 1 (geometric with p = n/M > 1/2), and the walked
//    projection of a uniform permutation of Z_M is exactly a uniform
//    permutation of [0, n).
//
// Keying: the round material is drawn in ONE batched keystream call
// through rng::philox4x64_batch (PR 8's SIMD engine) from the key
// philox4x64::derive_key(seed, nested_stream('prp', n, 0)) -- the same
// seed-derivation discipline every other backend uses, with the domain
// folded into the stream so ciphers of different n are independent.  The
// permutation is a pure function of (seed, n, rounds): bit-identical
// across SIMD paths (the batch contract), hosts, and callers.
//
// Observability: the batch entry points (eval_many / eval_range) count
// prp.evals and prp.cycle_walk_retries per CALL (never per item), and
// construction mirrors the round count into the prp.rounds gauge.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace cgp::prp {

/// Per-call evaluation accounting (also mirrored into the prp.* obs
/// counters by the batch entry points).
struct eval_stats {
  std::uint64_t evals = 0;         ///< pi evaluations completed
  std::uint64_t walk_retries = 0;  ///< extra encryptions spent cycle-walking
};

/// Cipher knobs.  The round count is the quality/speed dial: every round is
/// ~10 ALU ops per element, and the default is far past where the
/// statistical harness stops distinguishing the family from uniform.
struct cipher_options {
  /// Swap-or-not rounds; 0 picks cipher::kDefaultRounds.  Changing it
  /// changes the permutation (it is part of the function, and the planner
  /// fingerprint mixes the default so recalibration re-keys cached plans).
  std::uint32_t rounds = 0;
};

/// Partition of [0, n) into `num_shards` contiguous index ranges that
/// jointly tile the domain exactly once (balanced: sizes differ by at
/// most one).  Shared by prp::shard_view, svc::server::submit_shard, and
/// the wire client, so all three always agree on shard geometry.
struct shard_range {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  ///< exclusive
  [[nodiscard]] constexpr std::uint64_t size() const noexcept { return hi - lo; }
};

[[nodiscard]] constexpr shard_range shard_bounds(std::uint64_t n, std::uint64_t shard,
                                                 std::uint64_t num_shards) noexcept {
  const std::uint64_t base = n / num_shards;
  const std::uint64_t extra = n % num_shards;
  const std::uint64_t lo = shard * base + (shard < extra ? shard : extra);
  return {lo, lo + base + (shard < extra ? 1 : 0)};
}

class shard_view;  // prp/shard.hpp

/// The keyed permutation itself.  Immutable after construction and
/// const-thread-safe: any number of threads (or shard views) may evaluate
/// concurrently.
class cipher {
 public:
  /// Default swap-or-not depth.  24 rounds of pair-keyed decisions mix
  /// tiny domains to statistical uniformity (exhaustive S4/S5 chi-square
  /// at p > 1e-9) with double-digit headroom, and cost ~250 ALU ops per
  /// evaluation on large ones.  Mixed into machine_profile::fingerprint()
  /// so a build that changes it re-keys every cached plan.
  static constexpr std::uint32_t kDefaultRounds = 24;

  /// Stream salt of the key derivation: the cipher draws its key schedule
  /// from philox4x64(seed, nested_stream(kKeySalt, n, 0)).
  static constexpr std::uint64_t kKeySalt = 0x707270ull;  // 'prp'

  cipher(std::uint64_t seed, std::uint64_t n, cipher_options opt = {});

  [[nodiscard]] std::uint64_t domain() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }

  /// The image of i under the permutation; i must be in [0, domain()).
  [[nodiscard]] std::uint64_t pi(std::uint64_t i) const noexcept {
    std::uint64_t x = encrypt(i);
    while (x >= n_) x = encrypt(x);  // cycle-walk: E[extra] < 1 since M < 2n
    return x;
  }

  /// The preimage: pi_inverse(pi(i)) == i for every i in [0, domain()).
  [[nodiscard]] std::uint64_t pi_inverse(std::uint64_t i) const noexcept {
    std::uint64_t x = decrypt(i);
    while (x >= n_) x = decrypt(x);
    return x;
  }

  /// Batched evaluation: out[j] = pi(in[j]).  Processes lane blocks round
  /// by round (independent elements, so the round loop runs with full
  /// instruction-level parallelism instead of one serial dependency chain
  /// per element) in the round kernel of rng::active_simd_path(), and
  /// sends cycle-walk stragglers back through it a block at a time.
  /// Bit-identical to pi() on every path.  Counts into `stats` (if given)
  /// and the prp.* obs counters, once per call.
  void eval_many(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                 eval_stats* stats = nullptr) const;

  /// Batched evaluation of the consecutive range: out[j] = pi(first + j).
  /// The shard/stream read path: O(out.size()) work, O(1) extra memory.
  void eval_range(std::uint64_t first, std::span<std::uint64_t> out,
                  eval_stats* stats = nullptr) const;

  /// Lazy view over this cipher's shard `k` of `num_shards` (contiguous
  /// preimage range; all shards jointly tile pi exactly once).  The view
  /// borrows the cipher -- keep it alive.  Defined in prp/shard.hpp.
  [[nodiscard]] shard_view shard(std::uint64_t k, std::uint64_t num_shards) const;

 private:
  /// One forward pass of all rounds over Z_M (no cycle walk): the scalar
  /// reference every batched round kernel (prp/cipher.cpp) must match.
  [[nodiscard]] std::uint64_t encrypt(std::uint64_t x) const noexcept {
    for (std::uint32_t r = 0; r < rounds_; ++r) {
      const std::uint64_t partner = (round_key_[r] - x) & mask_;
      const std::uint64_t hi = x > partner ? x : partner;
      x = (rng::mix64(hi ^ round_tweak_[r]) & 1) != 0 ? partner : x;
    }
    return x;
  }

  /// Rounds are involutions, so the inverse is the same rounds reversed.
  [[nodiscard]] std::uint64_t decrypt(std::uint64_t x) const noexcept {
    for (std::uint32_t r = rounds_; r-- > 0;) {
      const std::uint64_t partner = (round_key_[r] - x) & mask_;
      const std::uint64_t hi = x > partner ? x : partner;
      x = (rng::mix64(hi ^ round_tweak_[r]) & 1) != 0 ? partner : x;
    }
    return x;
  }

  std::uint64_t n_ = 0;
  std::uint64_t mask_ = 0;  ///< M - 1, M = bit_ceil(n): power-of-two walk domain
  std::uint32_t rounds_ = kDefaultRounds;
  std::vector<std::uint64_t> round_key_;    ///< K_r, masked into Z_M
  std::vector<std::uint64_t> round_tweak_;  ///< T_r, full 64-bit decision tweaks
};

}  // namespace cgp::prp
