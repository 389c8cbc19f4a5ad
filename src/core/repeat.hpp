// core/repeat.hpp
//
// Repeated generation -- the use case the paper closes on: "in situations
// where medium sized permutations are needed repeatedly a parallel
// implementation of the matrix sampling will be helpful."
//
// `permutation_stream` produces a sequence of independent uniform
// permutations of a fixed size; successive draws use key-separated Philox
// streams (seed, draw-counter), so the sequence is deterministic under the
// stream's seed, every element is exactly uniform, and distinct elements
// are independent.  Every draw runs Algorithm 1 on an owned virtual
// machine with full resource accounting.  Repeated draws through the
// native engines come from a cgp::context, which keys its own draw
// sequence (core/context.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "cgm/machine.hpp"
#include "core/driver.hpp"
#include "rng/splitmix64.hpp"

namespace cgp::core {

class permutation_stream {
 public:
  /// A stream of uniform permutations of {0..n-1} on `nprocs` virtual
  /// processors.
  permutation_stream(std::uint32_t nprocs, std::uint64_t n, std::uint64_t seed,
                     permute_options opt = {})
      : mach_(nprocs, seed), n_(n), seed_(seed), opt_(opt) {}

  /// The next permutation of the sequence.  `stats_out`, if given,
  /// receives the run's accounting.
  [[nodiscard]] std::vector<std::uint64_t> next(cgm::run_stats* stats_out = nullptr) {
    // Key separation per draw: deterministic, independent of how many
    // draws preceded on other stream objects with different seeds.
    mach_.reseed(rng::mix_in(seed_, counter_));
    ++counter_;
    return random_permutation_global(mach_, n_, opt_, stats_out);
  }

  /// Draws made so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return counter_; }

  /// Jump the stream to an absolute draw index (for replay/parallel
  /// consumers: element k is a pure function of (seed, k)).
  void seek(std::uint64_t draw_index) noexcept { counter_ = draw_index; }

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t nprocs() const noexcept { return mach_.nprocs(); }

 private:
  cgm::machine mach_;
  std::uint64_t n_;
  std::uint64_t seed_;
  permute_options opt_;
  std::uint64_t counter_ = 0;
};

}  // namespace cgp::core
