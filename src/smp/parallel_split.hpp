// smp/parallel_split.hpp
//
// One level of the recursive hypergeometric split, executed with real
// threads: the paper's Algorithm 1 restated for shared memory.  The input
// span is viewed as K contiguous source chunks and redistributed into K
// contiguous target buckets in three phases:
//
//   1. *matrix*  -- sample the K x K communication matrix A from the exact
//      permutation-induced law (core/sample_matrix.hpp, Algorithm 3) with
//      both margins balanced; O(K^2) work, sequential (K is tiny);
//   2. *scatter* -- in parallel over source chunks: materialize row c of A
//      as a byte array of bucket labels (a_{c,j} copies of label j),
//      Fisher-Yates that *label* array -- its random accesses live in a
//      1-byte-per-item, cache-resident buffer instead of the item data --
//      then stream the chunk's items to precomputed column-prefix offsets
//      (the shared-memory analogue of the all-to-all h-relation: one
//      streaming write pass, no message buffers);
//   3. *copy back* -- in parallel over target buckets.
//
// Uniformity is Algorithm 1's own argument (Propositions 1, 2): a uniformly
// shuffled label multiset makes "which items realize row c of A" a uniform
// choice (this is seq/blocked_shuffle.hpp's without-replacement assignment,
// just batched), the matrix law makes every A correctly likely, and the
// caller recursively permutes each bucket, so every global permutation is
// equally likely.
//
// Determinism: every random stream is keyed by (seed, recursion node, role,
// chunk index) -- never by the executing thread -- so the result is
// bit-identical for any thread-pool size (see smp/thread_pool.hpp's
// determinism contract).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/sample_matrix.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "rng/splitmix64.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/thread_pool.hpp"
#include "util/assert.hpp"
#include "util/prefix.hpp"

namespace cgp::smp {

/// Tuning for one split level.
struct split_options {
  std::uint32_t fan_out = 16;           ///< K: source chunks / target buckets (2..256)
  core::matrix_options sampling{};      ///< matrix sampler knobs
};

namespace detail {

// Distinct stream roles inside one recursion node.
inline constexpr std::uint64_t kMatrixSalt = 0x6D61'7472'6978ull;  // 'matrix'
inline constexpr std::uint64_t kChunkSalt = 0x6368'756E'6Bull;     // 'chunk'
inline constexpr std::uint64_t kLeafSalt = 0x6C65'6166ull;         // 'leaf'

/// Philox stream id for (recursion node, role, index): a double mix64 keeps
/// distinct (node, role, index) triples on distinct streams for all
/// practical tree shapes (the same hashing idea as rng::phase_stream).
[[nodiscard]] constexpr std::uint64_t node_stream(std::uint64_t node, std::uint64_t salt,
                                                  std::uint64_t index) noexcept {
  return rng::mix64(rng::mix64(node ^ salt) + index);
}

/// The engine for (seed, node, role, index).
[[nodiscard]] inline rng::philox4x64 node_engine(std::uint64_t seed, std::uint64_t node,
                                                 std::uint64_t salt,
                                                 std::uint64_t index = 0) noexcept {
  return rng::philox4x64(seed, node_stream(node, salt, index));
}

/// The calling thread's label buffer, kept across chunks and calls (a
/// fresh one per call would fault its pages in again under sanitizers
/// and on every malloc mmap-threshold change).
inline std::vector<std::uint8_t>& thread_labels() {
  thread_local std::vector<std::uint8_t> labels;
  return labels;
}

}  // namespace detail

/// Everything deterministic about one split level of `n` items at
/// recursion `node`: the clamped fan-out k, the balanced chunk/bucket
/// margins, the sampled communication matrix, the bucket offsets, and the
/// column-prefix scatter offsets.  Replicable by ANY party that knows
/// (n, seed, node, options) -- which is what lets the distributed CGM
/// engine (cgm/distributed.hpp) reproduce the shared-memory engine's data
/// movement bit for bit across ranks without exchanging a single plan
/// byte.
struct split_plan {
  std::uint32_t k = 0;
  std::vector<std::uint64_t> margins;     ///< chunk c size == bucket c capacity
  core::comm_matrix a;                    ///< the k x k communication matrix
  std::vector<std::uint64_t> bucket_off;  ///< k+1 bucket start offsets
  std::vector<std::uint64_t> dest;        ///< dest[c*k+j]: chunk c's cursor start for bucket j
};

/// Sample the split plan for `n` items at `node` (phase 1 of the split).
[[nodiscard]] inline split_plan make_split_plan(std::uint64_t n, std::uint64_t seed,
                                                std::uint64_t node,
                                                const split_options& opt = {}) {
  CGP_EXPECTS(opt.fan_out >= 2 && opt.fan_out <= 256);  // labels are bytes
  split_plan plan;
  plan.k = static_cast<std::uint32_t>(std::min<std::uint64_t>(opt.fan_out, n));
  CGP_EXPECTS(plan.k >= 2);
  const std::uint32_t k = plan.k;

  // Balanced margins on both sides: chunk c holds m_c = n/K +- 1 items and
  // bucket j is filled with exactly m'_j = n/K +- 1 items (the PRO block
  // distribution, util/prefix.hpp).
  plan.margins = balanced_blocks(n, k);

  // The communication matrix, from one dedicated stream.
  auto matrix_engine = detail::node_engine(seed, node, detail::kMatrixSalt);
  plan.a = core::sample_matrix_rowwise(matrix_engine, plan.margins, plan.margins, opt.sampling);

  // Column-prefix scatter offsets: chunk c's segment for bucket j lands at
  //   dest(c, j) = bucket_offset(j) + sum_{c' < c} a(c', j).
  plan.bucket_off.assign(k + 1, 0);
  inclusive_prefix_sum(plan.margins, std::span<std::uint64_t>(plan.bucket_off).subspan(1));
  plan.dest.resize(static_cast<std::size_t>(k) * k);
  for (std::uint32_t j = 0; j < k; ++j) {
    std::uint64_t at = plan.bucket_off[j];
    for (std::uint32_t c = 0; c < k; ++c) {
      plan.dest[static_cast<std::size_t>(c) * k + j] = at;
      at += plan.a(c, j);
    }
    CGP_ASSERT(at == plan.bucket_off[j + 1]);
  }
  return plan;
}

/// Fill `label` with the shuffled bucket-label sequence of chunk `c`
/// under `plan` -- exactly the labels phase 2 of `parallel_split`
/// consumes: a_{c,j} copies of label j, Fisher-Yates'd on the chunk's
/// dedicated stream.  Item i of chunk c goes to bucket label[i]; its
/// in-bucket slot is the running count of earlier same-label items plus
/// plan.dest[c*k + label[i]].  Out-parameter form so hot loops can reuse
/// one buffer across chunks.
inline void split_chunk_labels_into(const split_plan& plan, std::uint64_t seed,
                                    std::uint64_t node, std::uint32_t c,
                                    std::vector<std::uint8_t>& label) {
  CGP_EXPECTS(c < plan.k);
  label.resize(static_cast<std::size_t>(plan.margins[c]));
  std::size_t at = 0;
  for (std::uint32_t j = 0; j < plan.k; ++j) {
    const auto count = static_cast<std::size_t>(plan.a(c, j));
    std::fill_n(label.begin() + static_cast<std::ptrdiff_t>(at), count,
                static_cast<std::uint8_t>(j));
    at += count;
  }
  CGP_ASSERT(at == label.size());
  // Batched keystream on the chunk's dedicated stream: rng::batched_philox
  // replays philox4x64(seed, stream) word for word (same derive_key keying,
  // same word order), only generating kBatchBlocks counter blocks per
  // refill through the SIMD kernels -- so this Fisher-Yates consumes the
  // identical draw sequence as the scalar engine did and the shuffled label
  // array (hence every backend's output) is bit-unchanged.
  rng::batched_philox engine(seed, detail::node_stream(node, detail::kChunkSalt, c));
  seq::fisher_yates(engine, std::span<std::uint8_t>(label));
}

/// Split `data` into fan_out contiguous buckets, uniformly: after the call,
/// bucket j occupies data[off[j] .. off[j+1]) where `off` is the returned
/// offset vector (size K+1), the multiset of items is preserved, and --
/// provided the caller afterwards permutes each bucket uniformly and
/// independently -- the composition is an exactly uniform permutation of
/// `data`.  `scratch` must have the same extent as `data`; it is used as the
/// scatter target and holds no defined content afterwards.  `pool`, if
/// non-null, parallelizes phases 2 and 3; passing nullptr runs sequentially
/// with bit-identical results.
template <typename T>
[[nodiscard]] std::vector<std::uint64_t> parallel_split(thread_pool* pool, std::span<T> data,
                                                        std::span<T> scratch, std::uint64_t seed,
                                                        std::uint64_t node,
                                                        const split_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  CGP_EXPECTS(scratch.size() >= data.size());
  const std::uint64_t n = data.size();

  // Phase 1: the deterministic split plan (margins, matrix, offsets).
  const split_plan plan = make_split_plan(n, seed, node, opt);
  const std::uint32_t k = plan.k;

  // Phase 2: per-chunk label shuffle + streaming scatter (parallel over
  // chunks; cursors start at the precomputed offsets, so chunks write
  // disjoint scratch ranges and need no synchronization).
  const auto split_chunks = [&](std::size_t chunk_lo, std::size_t chunk_hi) {
    std::vector<std::uint8_t>& label = detail::thread_labels();
    std::vector<std::uint64_t> cursor(k);
    for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
      const std::uint64_t off = balanced_block_offset(n, k, static_cast<std::uint32_t>(c));
      const std::uint64_t len = plan.margins[c];
      const std::span<const T> chunk = data.subspan(static_cast<std::size_t>(off),
                                                    static_cast<std::size_t>(len));
      for (std::uint32_t j = 0; j < k; ++j) cursor[j] = plan.dest[c * k + j];
      split_chunk_labels_into(plan, seed, node, static_cast<std::uint32_t>(c), label);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        scratch[static_cast<std::size_t>(cursor[label[i]]++)] = chunk[i];
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, k, split_chunks);
  } else {
    split_chunks(0, k);
  }

  // Phase 3: copy the bucketed order back so the split is in place.
  const auto copy_back = [&](std::size_t bucket_lo, std::size_t bucket_hi) {
    const auto lo = static_cast<std::size_t>(plan.bucket_off[bucket_lo]);
    const auto hi = static_cast<std::size_t>(plan.bucket_off[bucket_hi]);
    std::copy_n(scratch.begin() + static_cast<std::ptrdiff_t>(lo), hi - lo,
                data.begin() + static_cast<std::ptrdiff_t>(lo));
  };
  if (pool != nullptr) {
    pool->parallel_for(0, k, copy_back);
  } else {
    copy_back(0, k);
  }

  return plan.bucket_off;
}

}  // namespace cgp::smp
