// rng/philox_batch.hpp
//
// Batched Philox-4x64 keystream generation with runtime SIMD dispatch --
// the raw-speed pass of ROADMAP item 3.  The scalar engine (rng/philox.hpp)
// produces one 4-word block per bijection call; the hot label loops of the
// split kernels draw one word per ITEM, so keystream arithmetic is a large
// share of their per-item cost.  `philox4x64_batch` generates many counter
// blocks per round trip -- 8 per AVX-512 vector pass (one block per 64-bit
// lane), 4 per AVX2 pass, interleaved pairs on NEON/aarch64, and a
// four-block-interleaved scalar loop everywhere else -- selected by runtime
// CPU detection so one binary serves all hosts.
//
// THE DETERMINISM CONTRACT, which everything above relies on: for any
// (counter, key, nblocks), every path writes the exact word sequence
//
//   out[4*i + j] == philox4x64::bijection(counter + i, key)[j]
//
// i.e. lane order NEVER leaks into output.  Philox keying is counter-based,
// so "which lane computed block i" is not an input to any word; the vector
// kernels just evaluate the same bijection at 4-8 consecutive counters at
// once and store the blocks back in counter order.  Consequently the
// batched engine below replays the scalar engine's stream bit for bit, and
// every backend that switched its label draws onto it (smp split chunks,
// the em index-keyed counting/scatter passes, the cgm recursion replay)
// kept its output unchanged -- pinned by tests/test_simd.cpp across
// {scalar, vector} x batch sizes x backends.
//
// Runtime control: the `CGP_SIMD` environment variable ("off" / "0" /
// "scalar" forces the portable path; "avx512" / "avx2" / "neon" request a
// specific vector path, honoured only when the CPU supports it) mirrors
// `CGP_OBS_OFF`; `set_simd_override` is the programmatic equivalent the
// differential tests flip mid-process.  The active path is surfaced in
// `plan::explain()` and as the obs gauge `rng.simd_path`.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

#include "rng/philox.hpp"

namespace cgp::rng {

/// Which keystream kernel `philox4x64_batch` runs.
enum class simd_path : std::uint8_t {
  scalar = 0,  ///< portable 4-block-interleaved loop (the reference everywhere)
  avx2 = 1,    ///< x86: 4 blocks per 256-bit vector pass, 2 passes in flight
  neon = 2,    ///< aarch64: 2 blocks per 128-bit vector pass, 2 pairs in flight
  avx512 = 3,  ///< x86: 8 blocks per 512-bit vector pass, 2 passes in flight
};

[[nodiscard]] constexpr const char* simd_path_name(simd_path p) noexcept {
  switch (p) {
    case simd_path::scalar: return "scalar";
    case simd_path::avx2: return "avx2";
    case simd_path::neon: return "neon";
    case simd_path::avx512: return "avx512";
  }
  return "?";
}

/// What the hardware supports best (pure detection, no overrides).
[[nodiscard]] simd_path detected_simd_path() noexcept;

/// Whether this host can execute `p` at all.  A superset of "p ==
/// detected": an AVX-512 host also runs the avx2 kernel, and every host
/// runs scalar.  Requests outside this set degrade to scalar.
[[nodiscard]] bool simd_path_supported(simd_path p) noexcept;

/// The path `philox4x64_batch` dispatches to: detection, narrowed by the
/// `CGP_SIMD` environment variable (read once) and by `set_simd_override`
/// (read every call -- a relaxed atomic load, cheap against a batch of
/// blocks).  Also mirrored into the obs gauge `rng.simd_path` (value =
/// the enum) whenever it resolves or changes.
[[nodiscard]] simd_path active_simd_path() noexcept;

/// Force the dispatch path for this process (tests compare scalar vs
/// vector output in one binary).  Requests the hardware cannot honour fall
/// back to scalar.  `clear_simd_override()` restores env/detection.
void set_simd_override(simd_path p) noexcept;
void clear_simd_override() noexcept;

/// Fill out[0 .. 4*nblocks) with the keystream blocks at counters
/// `counter, counter + 1, ..., counter + nblocks - 1` (256-bit counter
/// arithmetic): out[4*i + j] = bijection(counter + i, key)[j].  Runs on
/// `active_simd_path()`.
void philox4x64_batch(const philox4x64::block_type& counter,
                      const std::array<std::uint64_t, 2>& key, std::uint64_t nblocks,
                      std::uint64_t* out) noexcept;

/// Same, on an explicitly chosen path (the differential tests and the
/// bench drive each kernel directly).  Paths the hardware cannot run fall
/// back to scalar.
void philox4x64_batch_on(simd_path path, const philox4x64::block_type& counter,
                         const std::array<std::uint64_t, 2>& key, std::uint64_t nblocks,
                         std::uint64_t* out) noexcept;

/// Drop-in `random_engine64` over the IDENTICAL word sequence of
/// `philox4x64(seed, stream)`, refilled `kBatchBlocks` counter blocks at a
/// time through `philox4x64_batch`.  This is how the hot loops batch their
/// label draws without perturbing one bit of output: same keying, same
/// words, same order -- only the generation width changes.  Also replaces
/// `stream_engine_at` in the index-keyed em label path: the third
/// constructor argument positions the stream at an arbitrary word index in
/// O(1) counter arithmetic.
class batched_philox {
 public:
  using result_type = std::uint64_t;

  /// Blocks generated per refill: 128 words (1 KiB of buffer, still L1).
  /// 32 is two full iterations of the widest kernel (two 8-wide AVX-512
  /// groups in flight each) and four of the AVX2 kernel, which breaks the
  /// 10-round latency chain AND amortises the per-call dispatch + key
  /// broadcast over enough words to stay under the bench e2 gate; larger
  /// batches measure no faster and waste buffer locality on short streams.
  static constexpr std::uint64_t kBatchBlocks = 32;

  explicit batched_philox(std::uint64_t seed = 0, std::uint64_t stream = 0,
                          std::uint64_t word_index = 0) noexcept
      : key_(philox4x64::derive_key(seed, stream)) {
    seek(word_index);
  }

  result_type operator()() noexcept {
    if (at_ == filled_) refill();
    return buf_[at_++];
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// The buffered words not yet drawn, in stream order (refilled first
  /// when none are left, so never empty).  Reading them draws nothing:
  /// `consume(k)` then marks the first k as drawn, which is what k calls
  /// of operator() would have returned.  Loops that draw many words read
  /// them a buffer at a time this way (seq/fisher_yates.hpp).
  [[nodiscard]] std::span<const result_type> window() noexcept {
    if (at_ == filled_) refill();
    return {buf_.data() + at_, filled_ - at_};
  }
  void consume(std::size_t k) noexcept { at_ += static_cast<unsigned>(k); }

  /// Reposition so the next draw returns word `word_index` of the stream
  /// (counting from construction-time zero), like rng::stream_engine_at.
  void seek(std::uint64_t word_index) noexcept {
    counter_ = {word_index / 4, 0, 0, 0};
    at_ = filled_ = 0;
    const auto sub = static_cast<unsigned>(word_index % 4);
    if (sub != 0) {
      refill();
      at_ = sub;
    }
  }

 private:
  void refill() noexcept {
    philox4x64_batch(counter_, key_, kBatchBlocks, buf_.data());
    std::uint64_t carry = kBatchBlocks;
    for (auto& word : counter_) {
      const std::uint64_t before = word;
      word += carry;
      carry = (word < before) ? 1u : 0u;
      if (carry == 0) break;
    }
    at_ = 0;
    filled_ = 4 * kBatchBlocks;
  }

  alignas(64) std::array<std::uint64_t, 4 * kBatchBlocks> buf_{};
  philox4x64::block_type counter_{};
  std::array<std::uint64_t, 2> key_{};
  unsigned at_ = 0;
  unsigned filled_ = 0;
};

}  // namespace cgp::rng
