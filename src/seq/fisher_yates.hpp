// seq/fisher_yates.hpp
//
// The Fisher-Yates (Knuth) shuffle: the *reference sequential algorithm* of
// the PRO model against which the paper defines work-optimality.  Exactly
// n-1 bounded-uniform draws and n-1 swaps; the unpredictable memory access
// pattern is what makes it memory-bound on large inputs (the paper's intro
// measures 60..100 cycles/item, 33..80% of it waiting on memory), which
// motivates both the parallel algorithm and the blocked sequential variant
// (seq/blocked_shuffle.hpp).
//
// Every hot loop draws from rng::batched_philox, and for that engine
// overload resolution picks `fisher_yates_batched`: the same swaps from
// the same words, with the bounds of up to kDrawBatch steps reduced in
// one loop and their swaps run in a second.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "rng/engine.hpp"
#include "rng/philox_batch.hpp"
#include "rng/uniform.hpp"

namespace cgp::seq {

/// In-place uniform shuffle of `data`.  The reference: one
/// rng::uniform_below per step.
template <typename T, rng::random_engine64 Engine>
void fisher_yates(Engine& engine, std::span<T> data) {
  // Classic backwards variant: positions [i..n) are final after step i.
  for (std::size_t i = data.size(); i > 1; --i) {
    const std::uint64_t j = rng::uniform_below(engine, i);
    using std::swap;
    swap(data[i - 1], data[static_cast<std::size_t>(j)]);
  }
}

/// Steps whose bounds `fisher_yates_batched` reduces per pass: one
/// batched_philox buffer.
inline constexpr std::size_t kDrawBatch = 4 * rng::batched_philox::kBatchBlocks;

namespace detail {

/// A word source seen as a random_engine64 that counts the words it
/// hands out (the exact path of `fisher_yates_batched`).
template <typename Words>
struct counted_words {
  using result_type = std::uint64_t;
  Words& words;
  std::uint64_t& drawn;
  result_type operator()() {
    ++drawn;
    return words();
  }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }
};

}  // namespace detail

/// `fisher_yates` on a source that exposes its unread words: `window()`
/// (never empty), `consume(k)`, and operator() for single draws, as
/// rng::batched_philox does.  Swaps exactly as `fisher_yates` does on the
/// same words and returns how many it drew.
///
/// Step i's bound is i, and Lemire's method keeps the high word of
/// w * i unless the low word falls below (2^64 mod i).  Pass one
/// multiplies a window of words by their bounds; a low word below its
/// bound (probability i / 2^64) stops the batch there.  Pass two runs the
/// accepted swaps, whose targets no longer wait on a draw.  The stopped
/// step goes to rng::uniform_below, which re-reads that same word and
/// decides it exactly.
template <typename T, typename Words>
std::uint64_t fisher_yates_batched(Words& words, std::span<T> data) {
  using u128 = unsigned __int128;
  std::uint64_t drawn = 0;
  std::size_t pick[kDrawBatch];
  for (std::size_t i = data.size(); i > 1;) {
    const std::span<const std::uint64_t> w = words.window();
    const std::size_t k = std::min({w.size(), kDrawBatch, i - 1});
    bool exact = false;
    for (std::size_t t = 0; t < k; ++t) {
      const u128 m = static_cast<u128>(w[t]) * (i - t);
      pick[t] = static_cast<std::size_t>(m >> 64);
      exact |= static_cast<std::uint64_t>(m) < i - t;
    }
    std::size_t take = k;
    if (exact) {
      take = 0;
      while (static_cast<std::uint64_t>(static_cast<u128>(w[take]) * (i - take)) >= i - take)
        ++take;
    }
    words.consume(take);
    drawn += take;
    using std::swap;
    for (std::size_t t = 0; t < take; ++t) swap(data[i - 1 - t], data[pick[t]]);
    i -= take;
    if (take < k) {
      detail::counted_words<Words> exact_words{words, drawn};
      swap(data[i - 1], data[static_cast<std::size_t>(rng::uniform_below(exact_words, i))]);
      --i;
    }
  }
  return drawn;
}

/// The overload every batched_philox caller gets.
template <typename T>
void fisher_yates(rng::batched_philox& engine, std::span<T> data) {
  fisher_yates_batched(engine, data);
}

/// Sample a uniform permutation of {0..n-1} into `out` (out[i] = pi(i)).
template <rng::random_engine64 Engine>
void random_permutation(Engine& engine, std::span<std::uint64_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
  fisher_yates(engine, out);
}

/// "Inside-out" variant: writes a shuffled copy of `in` into `out` in one
/// pass (out must have the same length and not alias in).  Useful when the
/// source must stay intact, and as a second implementation for differential
/// testing of the primary shuffle.
template <typename T, rng::random_engine64 Engine>
void fisher_yates_copy(Engine& engine, std::span<const T> in, std::span<T> out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng::uniform_below(engine, i + 1));
    if (j != i) out[i] = out[j];
    out[j] = in[i];
  }
}

}  // namespace cgp::seq
