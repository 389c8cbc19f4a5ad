// smp/engine.hpp
//
// The native shared-memory permutation engine: the paper's Section 6
// outlook ("the recursive splitting strategy is a good candidate for real
// parallel machines") executed with real threads instead of virtual
// processors.
//
//   * while a range is larger than the cache cutoff, split it into fan_out
//     buckets with the exact hypergeometric split (smp/parallel_split.hpp);
//   * once a bucket fits in cache, finish it with seq::fisher_yates.
//
// This mirrors seq/rao_sandelius.hpp's recursion shape -- and inherits its
// uniformity argument with the multinomial bucket law replaced by the
// paper's exact communication-matrix law -- but the top split and the
// per-bucket recursions run concurrently on a thread pool.  Only the
// top-level split is parallelized *internally*; below it, each bucket is one
// sequential task, which keeps every worker streaming over a private
// cache-sized region (samplesort structure: split in parallel, recurse
// per bucket, finish in cache).
//
// Bit-reproducibility: the recursion tree, the bucket sizes, and every
// Philox stream depend only on (seed, options), never on the thread count
// or the schedule, so engines with 1 and 64 threads produce the identical
// permutation for the same seed (tests/test_smp.cpp checks this).
//
// Scratch: `shuffle` leases its n-item scratch from an arena the engine
// owns (smp/scratch_arena.hpp), so a warm call faults no page in.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "rng/philox_batch.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/parallel_split.hpp"
#include "smp/scratch_arena.hpp"
#include "smp/thread_pool.hpp"
#include "util/assert.hpp"

namespace cgp::smp {

/// Engine configuration.
struct engine_options {
  std::uint32_t threads = 0;  ///< worker threads; 0 = hardware concurrency
  std::uint32_t fan_out = 16; ///< K buckets per split level (2..256)
  std::size_t cache_items = std::size_t{1} << 16;  ///< Fisher-Yates at/below
  core::matrix_options sampling{};  ///< hypergeometric sampler knobs
};

/// Root of the shuffle recursion tree shared by the shared-memory and
/// distributed engines.
inline constexpr std::uint64_t kShuffleRoot = 1;

/// Child j of recursion node `node` under fan-out K; node ids stay well
/// below 2^64 for any input that fits in memory (depth <= log_K(n)
/// levels).  Shared with the distributed CGM engine, which walks the
/// identical tree across ranks.
[[nodiscard]] constexpr std::uint64_t split_child_node(std::uint64_t node, std::uint64_t j,
                                                       std::uint32_t fan_out) noexcept {
  return node * fan_out + 1 + j;
}

/// The recursive subtree below `node`: split while above the cache
/// cutoff, Fisher-Yates once a bucket fits.  Every random stream is keyed
/// by (seed, node descendant, role) -- never by the executing thread --
/// so the output is a pure function of (seed, node, opt) regardless of
/// `pool` and `top`.  `top` fans the first split level and the per-bucket
/// recursions out over `pool` (pass false / nullptr to run sequentially,
/// e.g. inside an already-parallel bucket task or on a transport rank).
/// This is the one recursion both the shared-memory engine and the
/// distributed CGM engine (cgm/distributed.hpp) execute.
template <typename T>
void shuffle_subtree(std::span<T> data, std::span<T> scratch, std::uint64_t seed,
                     std::uint64_t node, const engine_options& opt, thread_pool* pool,
                     bool top) {
  if (data.size() <= opt.cache_items || data.size() < 2) {
    // Span only at the tree top: a per-leaf span would put one ring event
    // (and two clock reads) on every cache-sized bucket of the hot path.
    std::optional<obs::span> leaf_sp;
    if (top) leaf_sp.emplace("leaf", "split");
    rng::batched_philox e(seed, detail::node_stream(node, detail::kLeafSalt, 0));
    seq::fisher_yates(e, data);
    return;
  }
  split_options sopt;
  sopt.fan_out = opt.fan_out;
  sopt.sampling = opt.sampling;
  // Only the top split fans its phases out over the pool; deeper splits
  // run inside a single bucket task.
  std::optional<obs::span> split_sp;
  if (top) split_sp.emplace("split", "split");
  const std::vector<std::uint64_t> off =
      parallel_split(top ? pool : nullptr, data, scratch, seed, node, sopt);
  split_sp.reset();
  const auto buckets = static_cast<std::size_t>(off.size() - 1);

  const auto recurse_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const auto b_lo = static_cast<std::size_t>(off[j]);
      const auto b_len = static_cast<std::size_t>(off[j + 1] - off[j]);
      // Bucket j recurses on its own slice of data *and* scratch: slices
      // are disjoint, so bucket tasks never touch shared state.
      shuffle_subtree(data.subspan(b_lo, b_len), scratch.subspan(b_lo, b_len), seed,
                      split_child_node(node, j, opt.fan_out), opt, nullptr, false);
    }
  };
  if (top && pool != nullptr) {
    pool->parallel_for(0, buckets, recurse_range);
  } else {
    recurse_range(0, buckets);
  }
}

class engine {
 public:
  explicit engine(engine_options opt = {}) : opt_(opt), pool_(opt.threads) {
    CGP_EXPECTS(opt_.fan_out >= 2 && opt_.fan_out <= 256);
    CGP_EXPECTS(opt_.cache_items >= 2);
  }

  [[nodiscard]] const engine_options& options() const noexcept { return opt_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }
  [[nodiscard]] thread_pool& pool() noexcept { return pool_; }

  /// Uniformly permute `data` in place.  Deterministic in (seed, options):
  /// independent of the thread count and of scheduling.
  template <typename T>
  void shuffle(std::span<T> data, std::uint64_t seed) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data.size() < 2) return;
    if (data.size() <= opt_.cache_items) {
      rng::batched_philox e(seed, detail::node_stream(kShuffleRoot, detail::kLeafSalt, 0));
      seq::fisher_yates(e, data);
      return;
    }
    // Scratch leased from the engine's arena, kept across calls.  The
    // lease is never value-initialized: the calling thread does not touch
    // the pages, so under the first-touch policy each page faults in on
    // whichever NUMA node's worker first scatters into it, and the same
    // partition lands on the same workers in later calls (T is trivially
    // copyable, so the write-before-read scatter needs no zero-fill).
    const scratch_arena::lease scratch(arena_, data.size() * sizeof(T));
    shuffle_subtree(data, scratch.as<T>(data.size()), seed, kShuffleRoot, opt_, &pool_,
                    /*top=*/true);
  }

  /// Bytes of scratch the engine keeps across calls: the high-water mark
  /// of its concurrent callers' n * sizeof(T), freed with the engine.
  /// Summed over engines in the obs gauge `smp.scratch_bytes`.
  [[nodiscard]] std::size_t scratch_bytes() const { return arena_.retained_bytes(); }

  /// Uniformly permute a vector (convenience; same contract as `shuffle`).
  template <typename T>
  [[nodiscard]] std::vector<T> permute(std::vector<T> data, std::uint64_t seed) {
    shuffle(std::span<T>(data), seed);
    return data;
  }

  /// Sample pi uniform over S_n (pi[i] = image of i).
  [[nodiscard]] std::vector<std::uint64_t> random_permutation(std::uint64_t n,
                                                              std::uint64_t seed) {
    std::vector<std::uint64_t> pi(n);
    for (std::uint64_t i = 0; i < n; ++i) pi[i] = i;
    shuffle(std::span<std::uint64_t>(pi), seed);
    return pi;
  }

 private:
  engine_options opt_;
  thread_pool pool_;
  scratch_arena arena_;
};

}  // namespace cgp::smp
