// rng/stream.hpp
//
// Deterministic derivation of per-processor random streams.  The
// coarse-grained machine hands every virtual processor `i` the engine
// `processor_stream(seed, i)`; because Philox streams are keyed rather than
// split by jumping, the stream a processor sees is independent of p and of
// thread scheduling.  This is what makes the parallel uniformity tests
// (chi-square over all n! outcomes of the *parallel* pipeline) reproducible.
#pragma once

#include <cstdint>

#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"

namespace cgp::rng {

/// Engine for virtual processor `proc` of a machine seeded with `seed`.
[[nodiscard]] inline philox4x64 processor_stream(std::uint64_t seed, std::uint32_t proc) noexcept {
  return philox4x64(seed, /*stream=*/0x70726F63ull /*'proc'*/ ^ proc);
}

/// Engine for a named algorithm phase (e.g. the matrix-sampling phase uses a
/// stream distinct from the shuffle phases even on the same processor, so
/// that changing the draw count of one phase cannot perturb another --
/// useful for differential testing of algorithm variants).
[[nodiscard]] inline philox4x64 phase_stream(std::uint64_t seed, std::uint32_t proc,
                                             std::uint32_t phase) noexcept {
  return philox4x64(seed, mix64((std::uint64_t{proc} << 32) | phase));
}

/// Stream id for a node of a recursion tree addressed as (level, bucket
/// ordinal within the level, role salt).  The out-of-core engine keys every
/// draw by (seed, level, bucket, index) through this, which is what makes
/// its output independent of worker count and chunking: the tree address
/// of a draw never mentions either.
[[nodiscard]] constexpr std::uint64_t nested_stream(std::uint64_t level, std::uint64_t bucket,
                                                    std::uint64_t salt) noexcept {
  return mix64(mix64(level ^ salt) + bucket);
}

/// Engine for virtual processor `proc` on the `run`-th collective
/// executed by a machine seeded with `seed`.  Run 0 keeps the historical
/// `processor_stream` keying (so single-run behaviour and reseed-per-rep
/// test loops are bit-unchanged); later runs derive fresh streams through
/// `nested_stream`, which is what makes repeated collective calls on ONE
/// machine (core::permute_global, cgm::sample_sort drivers, ...)
/// independent yet reproducible -- the old code re-keyed every run
/// identically, silently returning the same "random" permutation twice.
[[nodiscard]] inline philox4x64 processor_run_stream(std::uint64_t seed, std::uint32_t proc,
                                                     std::uint64_t run) noexcept {
  if (run == 0) return processor_stream(seed, proc);
  return philox4x64(seed, nested_stream(run, proc, 0x72756Eull /*'run'*/));
}

/// The (seed, stream) engine positioned so the next draw returns word
/// `word_index` of the stream's output sequence.  O(1) via counter
/// arithmetic: this is what lets concurrent workers draw disjoint index
/// ranges of ONE logical stream without any hand-off -- worker w jumps
/// straight to its first index.
[[nodiscard]] inline philox4x64 stream_engine_at(std::uint64_t seed, std::uint64_t stream,
                                                 std::uint64_t word_index) noexcept {
  philox4x64 e(seed, stream);
  e.discard_blocks(word_index / 4);
  for (unsigned i = 0; i < word_index % 4; ++i) (void)e();
  return e;
}

}  // namespace cgp::rng
