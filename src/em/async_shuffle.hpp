// em/async_shuffle.hpp
//
// The out-of-core permutation engine: the paper's coarse-grained split
// run as distribution passes over a block device (n items, M items of
// memory, B items per block), with block I/O overlapping computation
// instead of stalling on every transfer.  Each level scatters its range
// into K buckets by independent uniform labels (the Rao-Sandelius
// argument gives exact uniformity) and recurses until a bucket fits in
// memory, where it is Fisher-Yates'd: O((n/B) log_K(n/M)) block
// transfers, the external-sorting bound with no comparison sort.  Three
// ideas carry the design:
//
//  1. *Index-keyed labels.*  Every bucket label is drawn from a Philox
//     stream keyed (seed, level, bucket) at counter position `index`, so
//     the label of item i is a pure function of (seed, level, bucket, i).
//     Consequences: the counting pass needs NO I/O at all (labels are
//     recomputed, never stored, so no label device and no extra scan
//     passes exist), and any worker can jump to any index range of the
//     stream in O(1) (rng::stream_engine_at), so label generation
//     parallelizes without hand-off.
//  2. *Double-buffered asynchronous scatter.*  Data blocks are streamed
//     through a depth-bounded async_io_queue (em/block_device.hpp): each
//     worker keeps kReadAhead = 2 reads in flight ahead of the block it is
//     scattering, and bucket output is staged in block-aligned buffers
//     that are flushed through a second queue as fire-and-forget writes.
//     Compute (label regeneration + scatter staging + leaf Fisher-Yates)
//     runs on an smp::thread_pool; transfers run on the queues' I/O
//     threads; neither waits for the other except at level barriers.
//  3. *Deterministic parallel decomposition.*  The scatter is organized
//     like smp/parallel_split.hpp: per-chunk label histograms and
//     column-prefix offsets let every chunk write its slice of every
//     bucket at a precomputed position, so the output is the one a
//     sequential scan would produce -- bit-identical for ANY worker count
//     and chunking.  Partial boundary blocks are merge-written atomically
//     by the device (write_items), so concurrent cursors sharing an edge
//     block compose instead of clobbering.
//
// The tree: fan-out K = adaptive_fan_out(M, B), i.e. M/B - 2 rounded down
// to a power of two (the classical external-distribution choice), and
// leaf cutoff M.  The recursion shape, and hence the permutation, is a
// function of (seed, n, M, B); the planner (core/plan.cpp) predicts the
// same tree from the same function.
//
// Backend-agreement contract: an input that fits in memory (n <= M) is a
// single Fisher-Yates from the stream philox(seed, 0) -- exactly the
// engine core::backend::sequential uses -- so backend::em with M >= n
// reproduces backend::sequential bit for bit.
//
// Memory budget (simulated, not enforced): one worker's scatter working
// set is ~K * B staged items + kReadAhead * B in-flight reads, which
// K = M/B - 2 keeps within M; with p pool workers the aggregate is ~p * M
// (the I/O model's M is per scan process).  Leaves materialize at most M
// items each.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "em/block_device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/philox_batch.hpp"
#include "rng/stream.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/thread_pool.hpp"
#include "util/assert.hpp"

namespace cgp::em {

/// Tuning for the async out-of-core engine.
struct async_options {
  std::uint64_t memory_items = std::uint64_t{1} << 16;  ///< M, in items
};

/// The distribution fan-out K for M = memory_items and B = block_items:
/// M/B - 2 (at least 2), floored to a power of two in [2, 256].  The
/// engine builds its tree with it and the planner (core/plan.cpp)
/// predicts that tree with it.
[[nodiscard]] constexpr std::uint32_t adaptive_fan_out(std::uint64_t memory_items,
                                                       std::uint32_t block_items) noexcept {
  const std::uint64_t ratio = memory_items / block_items;
  const std::uint64_t k_raw = std::max<std::uint64_t>(2, ratio > 2 ? ratio - 2 : 2);
  std::uint32_t fan = 2;
  while (2ull * fan <= k_raw && fan < 256) fan *= 2;
  return fan;
}

/// Outcome of an async external shuffle.
struct async_report {
  std::uint64_t block_transfers = 0;  ///< device reads + writes (data + scratch)
  std::uint32_t levels = 0;           ///< deepest distribution level used
  std::uint64_t rng_words = 0;        ///< random words consumed
  std::uint64_t async_reads = 0;      ///< operations that went through the read queues
  std::uint64_t async_writes = 0;     ///< operations that went through the write queues
  std::uint32_t max_in_flight = 0;    ///< peak queue occupancy across all levels
};

namespace detail_async {

inline constexpr std::uint64_t kLabelSalt = 0x6C61'6265'6Cull;  // 'label'
inline constexpr std::uint64_t kLeafSalt = 0x6C65'6166ull;      // 'leaf' (same as smp)
/// Reads each worker keeps in flight ahead of the block it is scattering
/// (2 = double buffering); the queues' depth is kReadAhead * workers.
inline constexpr std::uint32_t kReadAhead = 2;

/// Block-aligned staging cursor over an async write queue: buffers pushed
/// items and emits the head partial slice once, then only whole aligned
/// blocks (blind writes on the device), leaving at most one partial tail
/// for finish().  At most two RMW boundary transfers per cursor, and at
/// most ~one block of items staged at a time (the emit threshold is one
/// block, so a worker's fan_ cursors together hold ~fan * B items --
/// within the K = M/B - 2 frame budget).
class item_writer {
 public:
  item_writer(async_io_queue& q, std::uint64_t pos, std::uint32_t block_items)
      : q_(q), pos_(pos), b_(block_items) {}

  void push(std::uint64_t v) {
    buf_.push_back(v);
    if (buf_.size() >= b_) emit(false);
  }

  void finish() {
    if (!buf_.empty()) emit(true);
  }

 private:
  void emit(bool final) {
    std::uint64_t take;
    if (final) {
      take = buf_.size();
    } else {
      // Head slice up to the next block boundary, then whole blocks only.
      const std::uint64_t head = (b_ - pos_ % b_) % b_;
      if (buf_.size() < head) return;
      take = head + (buf_.size() - head) / b_ * b_;
      if (take == 0) return;
    }
    q_.write_items(pos_, std::vector<std::uint64_t>(
                             buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(take)));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(take));
    pos_ += take;
  }

  async_io_queue& q_;
  std::uint64_t pos_;
  std::uint32_t b_;
  std::vector<std::uint64_t> buf_;
};

class engine_state {
 public:
  engine_state(block_device& main, block_device& scratch, smp::thread_pool& pool,
               std::uint64_t seed, std::uint64_t memory_items)
      : main_(main),
        scratch_(scratch),
        pool_(pool),
        seed_(seed),
        fan_(adaptive_fan_out(memory_items, main.block_items())),
        leaf_cut_(memory_items) {}

  void run(std::uint64_t n) { shuffle_range(main_, scratch_, 0, n, 0, 0); }

  [[nodiscard]] async_report take_report() {
    async_report r = report_;
    r.rng_words = rng_words_.load();
    return r;
  }

 private:
  /// Fisher-Yates a range in memory; results always land on the MAIN
  /// device.  Thread-safe (device ops serialize); keyed only by the tree
  /// address, so leaf tasks may run concurrently in any order.
  void leaf(block_device& cur, std::uint64_t lo, std::uint64_t hi, std::uint32_t level,
            std::uint64_t ordinal) {
    const std::uint64_t size = hi - lo;
    if (size == 0) return;
    std::vector<std::uint64_t> mem(size);
    cur.read_items(lo, mem);
    // Level 0 means the whole input fit in memory: use the stream the
    // sequential backend uses, which gives backend::em == backend::sequential
    // whenever M >= n.
    rng::batched_philox e(seed_, level == 0 ? 0 : rng::nested_stream(level, ordinal, kLeafSalt));
    const std::uint64_t words = seq::fisher_yates_batched(e, std::span<std::uint64_t>(mem));
    rng_words_.fetch_add(words, std::memory_order_relaxed);
    main_.write_items(lo, mem);
  }

  void shuffle_range(block_device& cur, block_device& other, std::uint64_t lo, std::uint64_t hi,
                     std::uint32_t level, std::uint64_t ordinal) {
    const std::uint64_t size = hi - lo;
    report_.levels = std::max(report_.levels, level);
    if (size <= leaf_cut_) {
      leaf(cur, lo, hi, level, ordinal);
      return;
    }

    const std::uint32_t b = cur.block_items();
    const std::uint64_t label_stream = rng::nested_stream(level, ordinal, kLabelSalt);

    // Chunking: a block-aligned partition of the range, a few chunks per
    // worker.  The chunking CANNOT affect the output -- item i of label j
    // always lands at bucket_lo[j] + |{i' < i : label(i') = j}| -- it only
    // spreads the two passes over the pool.  Each extra chunk pays up to
    // two boundary RMWs per bucket, so a chunk must own enough blocks for
    // streaming to dominate: ranges too small to amortize get fewer chunks
    // (and the least parallelism, which is also where it matters least).
    const std::uint64_t first_blk = lo / b;
    const std::uint64_t end_blk = (hi + b - 1) / b;
    const std::uint64_t nblocks = end_blk - first_blk;
    const std::uint64_t min_chunk_blocks = 8ull * fan_;
    const auto nchunks = static_cast<std::size_t>(std::clamp<std::uint64_t>(
        nblocks / min_chunk_blocks, 1, std::uint64_t{pool_.size()} * 2));
    const auto chunk_bounds = [&](std::size_t c) {
      const std::uint64_t cb_lo = first_blk + nblocks * c / nchunks;
      const std::uint64_t cb_hi = first_blk + nblocks * (c + 1) / nchunks;
      const std::uint64_t i_lo = std::max<std::uint64_t>(lo, cb_lo * b);
      const std::uint64_t i_hi = std::min<std::uint64_t>(hi, cb_hi * b);
      return std::pair{std::pair{cb_lo, cb_hi}, std::pair{i_lo, i_hi}};
    };

    // --- counting pass: pure computation, zero I/O ---------------------
    std::vector<std::vector<std::uint64_t>> counts(nchunks,
                                                   std::vector<std::uint64_t>(fan_, 0));
    pool_.parallel_for(0, nchunks, [&](std::size_t c_lo, std::size_t c_hi) {
      for (std::size_t c = c_lo; c < c_hi; ++c) {
        const auto [blks, items] = chunk_bounds(c);
        // Batched replay of the index-keyed label stream: bit-identical to
        // rng::stream_engine_at(seed_, label_stream, items.first - lo), but
        // the keystream is generated kBatchBlocks at a time through the
        // SIMD kernels -- this pass is pure keystream + histogram, so it is
        // where the vector win shows up undiluted.
        rng::batched_philox e(seed_, label_stream, items.first - lo);
        for (std::uint64_t i = items.first; i < items.second; ++i) {
          ++counts[c][e() & (fan_ - 1)];
        }
        rng_words_.fetch_add(items.second - items.first, std::memory_order_relaxed);
      }
    });

    // Bucket extents and per-(chunk, bucket) scatter offsets (column
    // prefixes, as in smp/parallel_split.hpp), in device coordinates.
    std::vector<std::uint64_t> bucket_lo(fan_ + 1, lo);
    for (std::uint32_t j = 0; j < fan_; ++j) {
      std::uint64_t total = 0;
      for (std::size_t c = 0; c < nchunks; ++c) total += counts[c][j];
      bucket_lo[j + 1] = bucket_lo[j] + total;
    }
    CGP_ASSERT(bucket_lo[fan_] == hi);
    std::vector<std::uint64_t> dest(nchunks * fan_);
    for (std::uint32_t j = 0; j < fan_; ++j) {
      std::uint64_t at = bucket_lo[j];
      for (std::size_t c = 0; c < nchunks; ++c) {
        dest[c * fan_ + j] = at;
        at += counts[c][j];
      }
      CGP_ASSERT(at == bucket_lo[j + 1]);
    }

    // --- scatter pass: prefetched reads, staged async writes -----------
    {
      const obs::span sp("scatter-level", "scatter");
      async_io_queue read_q(cur, kReadAhead * pool_.size());
      async_io_queue write_q(other, kReadAhead * pool_.size());
      pool_.parallel_for(0, nchunks, [&](std::size_t c_lo, std::size_t c_hi) {
        for (std::size_t c = c_lo; c < c_hi; ++c) {
          const auto [blks, items] = chunk_bounds(c);
          rng::batched_philox e(seed_, label_stream, items.first - lo);
          std::vector<item_writer> out;
          out.reserve(fan_);
          for (std::uint32_t j = 0; j < fan_; ++j) out.emplace_back(write_q, dest[c * fan_ + j], b);
          // Keep up to kReadAhead reads in flight ahead of the block
          // currently being scattered.
          std::deque<std::future<std::vector<std::uint64_t>>> window;
          std::uint64_t next_blk = blks.first;
          for (std::uint64_t blk = blks.first; blk < blks.second; ++blk) {
            while (next_blk < blks.second && window.size() < kReadAhead) {
              window.push_back(read_q.read_block(next_blk));
              ++next_blk;
            }
            const std::vector<std::uint64_t> buf = window.front().get();
            window.pop_front();
            const std::uint64_t first = blk * b;
            const std::uint64_t i_lo = std::max<std::uint64_t>(first, items.first);
            const std::uint64_t i_hi = std::min<std::uint64_t>(first + b, items.second);
            for (std::uint64_t i = i_lo; i < i_hi; ++i) {
              out[e() & (fan_ - 1)].push(buf[static_cast<std::size_t>(i - first)]);
            }
          }
          for (auto& w : out) w.finish();
          rng_words_.fetch_add(items.second - items.first, std::memory_order_relaxed);
        }
      });
      read_q.drain();
      write_q.drain();
      const async_stats rs = read_q.stats();
      const async_stats ws = write_q.stats();
      report_.async_reads += rs.reads_enqueued;
      report_.async_writes += ws.writes_enqueued;
      report_.max_in_flight = std::max({report_.max_in_flight, rs.max_in_flight, ws.max_in_flight});
    }

    // --- recurse: big buckets sequentially (each internally parallel),
    // leaf buckets batched over the pool ---------------------------------
    std::vector<std::uint32_t> leaves;
    for (std::uint32_t j = 0; j < fan_; ++j) {
      const std::uint64_t c_lo = bucket_lo[j];
      const std::uint64_t c_hi = bucket_lo[j + 1];
      if (c_hi - c_lo <= leaf_cut_) {
        if (c_hi > c_lo) leaves.push_back(j);
      } else {
        shuffle_range(other, cur, c_lo, c_hi, level + 1, ordinal * fan_ + j);
      }
    }
    if (!leaves.empty()) {
      report_.levels = std::max(report_.levels, level + 1);
      pool_.parallel_for(0, leaves.size(), [&](std::size_t l_lo, std::size_t l_hi) {
        for (std::size_t l = l_lo; l < l_hi; ++l) {
          const std::uint32_t j = leaves[l];
          leaf(other, bucket_lo[j], bucket_lo[j + 1], level + 1, ordinal * fan_ + j);
        }
      });
    }
  }

  block_device& main_;
  block_device& scratch_;
  smp::thread_pool& pool_;
  std::uint64_t seed_;
  const std::uint32_t fan_;
  const std::uint64_t leaf_cut_;
  async_report report_;
  std::atomic<std::uint64_t> rng_words_{0};
};

}  // namespace detail_async

/// Uniformly shuffle the first `n` items of `dev` out of core, overlapping
/// block transfers with computation on `pool`.  Allocates one scratch
/// device of the same geometry (the ping-pong scatter target), whose
/// transfers are included in the report.  Deterministic in (seed, n,
/// M, B): independent of the pool size.
[[nodiscard]] inline async_report async_em_shuffle(block_device& dev, std::uint64_t n,
                                                   std::uint64_t seed, smp::thread_pool& pool,
                                                   const async_options& opt = {}) {
  CGP_EXPECTS(n <= dev.item_capacity());
  CGP_EXPECTS(opt.memory_items >= 4ull * dev.block_items());
  // The ping-pong scratch inherits the main device's hugepage placement:
  // both sides of every scatter level should sit on the same page size.
  block_device scratch(dev.item_capacity(), dev.block_items(), dev.hugepage_backed());
  const std::uint64_t before = dev.stats().transfers() + scratch.stats().transfers();
  detail_async::engine_state state(dev, scratch, pool, seed, opt.memory_items);
  state.run(n);
  async_report report = state.take_report();
  report.block_transfers = dev.stats().transfers() + scratch.stats().transfers() - before;
  // Fold the run's transfer accounting into the process-wide metrics
  // (obs/metrics.hpp): monotone totals across every em shuffle.
  if (obs::enabled()) {
    obs::get_counter("em.shuffles").add();
    obs::get_counter("em.block_transfers").add(report.block_transfers);
    obs::get_counter("em.async_reads").add(report.async_reads);
    obs::get_counter("em.async_writes").add(report.async_writes);
    obs::get_counter("em.rng_words").add(report.rng_words);
    obs::get_gauge("em.io.in_flight").note_peak(report.max_in_flight);
  }
  return report;
}

}  // namespace cgp::em
