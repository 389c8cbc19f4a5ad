// em/async_shuffle.hpp
//
// The out-of-core permutation engine: the paper's coarse-grained split
// run as distribution passes over a block device (n items, M items of
// memory, B items per block).  Each level scatters its range into K
// buckets by independent uniform labels (the Rao-Sandelius argument gives
// exact uniformity) and recurses until a bucket fits in memory, where it
// is Fisher-Yates'd: O((n/B) log_K(n/M)) block transfers, the
// external-sorting bound with no comparison sort.  Three ideas carry the
// design:
//
//  1. *Index-keyed labels.*  Every bucket label is drawn from a Philox
//     stream keyed (seed, level, bucket) at counter position `index`, so
//     the label of item i is a pure function of (seed, level, bucket, i).
//     Consequences: the counting pass needs NO I/O at all (labels are
//     recomputed, never stored, so no label device and no extra scan
//     passes exist), and any worker can seek to any index of the stream
//     in O(1) (rng::batched_philox's word-index constructor), so label
//     generation parallelizes without hand-off.
//  2. *Staged scatter straight to the device.*  Each worker reads its
//     chunk a block at a time into one B-item buffer, and stages bucket
//     output in bucket_stage (a block-sized slot per bucket), whose
//     block-aligned pieces go to the target device's write_items straight
//     from the slot.  Everything, compute and transfers, runs on the
//     caller's smp::thread_pool; the only lock is the device's mutex
//     (em/block_device.hpp), which serializes each device's transfers
//     like one disk arm and makes a shared boundary block's
//     read-modify-write atomic.
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
// Identity input: async_em_permutation builds a permutation of 0..n-1
// without the identity ever touching the device.  The engine's moves do
// not depend on item values, so level 0 can take item i's value as i --
// in its scatter, or in a root leaf -- and leave what the identity
// written on and shuffled would leave, with the fill's writes and level
// 0's reads gone.  Reading nothing, that scatter writes its buckets in
// place, onto the device it was given.
//
// Devices: a level that reads its range scatters it onto the other
// device of a ping-pong pair, the caller's and an n-item scratch device
// of the same geometry and item width.  The scratch device is created the first time a
// level needs it (level 0 of async_em_shuffle, or any level >= 1), so a
// one-level permutation and any n <= M never allocate it.  Leaves read
// whichever device holds their bucket and write the caller's.
//
// Memory budget (simulated, not enforced): one worker's scatter working
// set is K * B staged items + a B-item read buffer, which K = M/B - 2
// keeps within M; with p pool workers the aggregate is ~p * M (the I/O
// model's M is per scan process).  Leaves materialize at most M items
// each, in one buffer per pool part.  The scratch device adds n items
// only once a level that needs it runs, and lives until the call returns.
// Nothing is kept past the call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
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
};

namespace detail_async {

inline constexpr std::uint64_t kLabelSalt = 0x6C61'6265'6Cull;  // 'label'
inline constexpr std::uint64_t kLeafSalt = 0x6C65'6166ull;      // 'leaf' (same as smp)

/// body(word, k) with the label word of each of the next `count` items,
/// read from `e` a keystream window at a time (as seq::fisher_yates_batched
/// reads it): the same words, in the same order, as `count` calls of e().
template <typename Body>
inline void for_each_label(rng::batched_philox& e, std::uint64_t count, Body&& body) {
  for (std::uint64_t k = 0; k < count;) {
    const std::span<const std::uint64_t> w = e.window();
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(w.size(), count - k));
    for (std::size_t m = 0; m < take; ++m) body(w[m], k + m);
    e.consume(take);
    k += take;
  }
}

/// One worker's scatter staging: a slot of B items per bucket, all K
/// slots in one array at a padded stride (so they do not all start on one
/// cache set), never value-initialized.  At K = 256 and B = 4,096 the
/// slots span 8.4 MB, past any L2, so every push prefetches its slot a
/// few lines ahead: without it each new line of a slot is a demand miss.
/// In a chunk, bucket j's items go to the device run [dest_j, dest_j +
/// count_j).  They leave the slot in pieces, each written straight from
/// the slot by one write_items call:
/// the slice up to the run's first block boundary (once the run holds at
/// least a block), then whole blocks (blind device writes), then the
/// tail; a run shorter than a block leaves whole.  So a run pays at most
/// two read-modify-write boundary blocks, and a worker stages at most
/// K * B items -- within the K = M/B - 2 frame budget.
class bucket_stage {
 public:
  bucket_stage(block_device& dev, std::uint32_t fan, std::uint32_t block_items)
      : dev_(dev),
        b_(block_items),
        stride_(std::size_t{block_items} + kPad),
        slots_(std::make_unique_for_overwrite<std::uint64_t[]>(fan * stride_ + kAhead)),
        cursor_(fan),
        run_(fan) {}

  /// Start a chunk whose bucket runs begin at dest[j] and hold count[j] items.
  void begin(const std::uint64_t* dest, const std::uint64_t* count) noexcept {
    for (std::size_t j = 0; j < cursor_.size(); ++j) {
      run_[j] = {dest[j], count[j]};
      const std::uint64_t head = (b_ - dest[j] % b_) % b_;
      cursor_[j] = {slot(j), count[j] < b_ ? count[j] : (head != 0 ? head : b_)};
    }
  }

  void push(std::uint64_t j, std::uint64_t v) {
    cursor& c = cursor_[j];
    // On every push: a branch for "first item of a line" mispredicts and
    // costs more than the redundant prefetches it saves.
    __builtin_prefetch(c.at + kAhead, 1);
    *c.at++ = v;
    if (--c.left == 0) emit(j);
  }

 private:
  static constexpr std::size_t kPad = 8;  ///< one cache line of items
  /// Prefetch distance in items; the array is padded by as much, so the
  /// prefetched address is always inside it.
  static constexpr std::size_t kAhead = 32;

  struct cursor {
    std::uint64_t* at;
    std::uint64_t left;  ///< items until the current piece is complete
  };
  struct run {
    std::uint64_t pos;        ///< device position of the slot's first item
    std::uint64_t remaining;  ///< items of the run not yet written
  };

  [[nodiscard]] std::uint64_t* slot(std::size_t j) const noexcept {
    return slots_.get() + j * stride_;
  }

  void emit(std::uint64_t j) {
    std::uint64_t* s = slot(j);
    const auto staged = static_cast<std::uint64_t>(cursor_[j].at - s);
    dev_.write_items(run_[j].pos, std::span<const std::uint64_t>(s, staged));
    run_[j].pos += staged;
    run_[j].remaining -= staged;
    cursor_[j] = {s, std::min<std::uint64_t>(b_, run_[j].remaining)};
  }

  block_device& dev_;
  std::uint64_t b_;
  std::size_t stride_;
  std::unique_ptr<std::uint64_t[]> slots_;
  std::vector<cursor> cursor_;
  std::vector<run> run_;
};

class engine_state {
 public:
  engine_state(block_device& main, smp::thread_pool& pool, std::uint64_t seed,
               std::uint64_t memory_items)
      : main_(main),
        main_before_(main.stats().transfers()),
        pool_(pool),
        seed_(seed),
        fan_(adaptive_fan_out(memory_items, main.block_items())),
        leaf_cut_(memory_items) {}

  /// Shuffle main's first n items; with `identity`, their values are
  /// taken to be 0..n-1 and never read.
  void run(std::uint64_t n, bool identity) { shuffle_range(main_, 0, n, 0, 0, identity); }

  /// The run's levels and rng words, and its block transfers: main's since
  /// construction plus the scratch device's, if one was made.
  [[nodiscard]] async_report take_report() {
    async_report r = report_;
    r.rng_words = rng_words_.load();
    r.block_transfers = main_.stats().transfers() - main_before_ +
                        (scratch_ ? scratch_->stats().transfers() : 0);
    return r;
  }

 private:
  /// Where a level reading `cur` writes its buckets: in place when it
  /// reads nothing (identity input), else the other device of the pair.
  /// The scratch device is made on first use, on the calling thread (levels
  /// recurse there; only leaves and chunks run on the pool).
  block_device& scatter_target(block_device& cur, bool identity) {
    if (identity) return cur;
    if (&cur != &main_) return main_;
    if (!scratch_) {
      scratch_.emplace(main_.item_capacity(), main_.block_items(), main_.item_bytes());
    }
    return *scratch_;
  }

  /// Fisher-Yates a range in `mem` (at least hi - lo items); results
  /// always land on the MAIN device.  Thread-safe (device ops serialize);
  /// keyed only by the tree address, so leaf tasks may run concurrently in
  /// any order.  `cur` may be main itself (a bucket written in place): the
  /// leaf then reads and writes its own range, and concurrent leaves share
  /// at most boundary blocks, whose merges the device makes atomic.
  void leaf(block_device& cur, std::uint64_t lo, std::uint64_t hi, std::uint32_t level,
            std::uint64_t ordinal, bool identity, std::span<std::uint64_t> mem) {
    const std::uint64_t size = hi - lo;
    if (size == 0) return;
    const std::span<std::uint64_t> items = mem.first(size);
    if (identity) {
      std::iota(items.begin(), items.end(), lo);
    } else {
      cur.read_items(lo, items);
    }
    // Level 0 means the whole input fit in memory: use the stream the
    // sequential backend uses, which gives backend::em == backend::sequential
    // whenever M >= n.
    rng::batched_philox e(seed_, level == 0 ? 0 : rng::nested_stream(level, ordinal, kLeafSalt));
    const std::uint64_t words = seq::fisher_yates_batched(e, items);
    rng_words_.fetch_add(words, std::memory_order_relaxed);
    main_.write_items(lo, items);
  }

  void shuffle_range(block_device& cur, std::uint64_t lo, std::uint64_t hi, std::uint32_t level,
                     std::uint64_t ordinal, bool identity) {
    const std::uint64_t size = hi - lo;
    report_.levels = std::max(report_.levels, level);
    if (size <= leaf_cut_) {
      const auto mem = std::make_unique_for_overwrite<std::uint64_t[]>(size);
      leaf(cur, lo, hi, level, ordinal, identity, std::span(mem.get(), size));
      return;
    }

    const std::uint32_t b = cur.block_items();
    const std::uint64_t label_stream = rng::nested_stream(level, ordinal, kLabelSalt);
    const std::uint64_t mask = fan_ - 1;

    // Chunking: a block-aligned partition of the range, a few chunks per
    // worker.  The chunking CANNOT affect the output -- item i of label j
    // always lands at bucket_lo[j] + |{i' < i : label(i') = j}| -- it only
    // spreads the scatter over the pool.  Each extra chunk pays up to two
    // boundary RMWs per bucket and one K * B stage, so a chunk must own
    // enough blocks for streaming to dominate: ranges too small to amortize
    // get fewer chunks (and the least parallelism, which is also where it
    // matters least).
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
    // It needs no staging, so it is not bound to the scatter's chunks:
    // each chunk's index range is cut into `parts` pieces (a one-chunk
    // level still counts on every worker), each counted into its own
    // histogram, and counts[c * fan_ + j], the items of chunk c with label
    // j, sums its chunk's pieces.
    const std::size_t parts = std::max<std::size_t>(1, 2 * pool_.size() / nchunks);
    std::vector<std::uint64_t> piece_counts(nchunks * parts * fan_, 0);
    pool_.parallel_for(0, nchunks * parts, [&](std::size_t p_lo, std::size_t p_hi) {
      for (std::size_t p = p_lo; p < p_hi; ++p) {
        const auto [blks, items] = chunk_bounds(p / parts);
        const std::uint64_t len = items.second - items.first;
        const std::uint64_t i_lo = items.first + len * (p % parts) / parts;
        const std::uint64_t i_hi = items.first + len * (p % parts + 1) / parts;
        // Replay of the index-keyed label stream from word i_lo - lo,
        // generated kBatchBlocks at a time through the SIMD kernels -- this
        // pass is pure keystream + histogram, so it is where the vector win
        // shows up undiluted.
        rng::batched_philox e(seed_, label_stream, i_lo - lo);
        std::uint64_t* hist = piece_counts.data() + p * fan_;
        for_each_label(e, i_hi - i_lo, [&](std::uint64_t w, std::uint64_t) { ++hist[w & mask]; });
        rng_words_.fetch_add(i_hi - i_lo, std::memory_order_relaxed);
      }
    });
    std::vector<std::uint64_t> counts(nchunks * fan_, 0);
    for (std::size_t p = 0; p < nchunks * parts; ++p) {
      const std::uint64_t* piece = piece_counts.data() + p * fan_;
      std::uint64_t* hist = counts.data() + p / parts * fan_;
      for (std::uint32_t j = 0; j < fan_; ++j) hist[j] += piece[j];
    }

    // Bucket extents and per-(chunk, bucket) scatter offsets (column
    // prefixes, as in smp/parallel_split.hpp), in device coordinates.
    std::vector<std::uint64_t> bucket_lo(fan_ + 1, lo);
    for (std::uint32_t j = 0; j < fan_; ++j) {
      std::uint64_t total = 0;
      for (std::size_t c = 0; c < nchunks; ++c) total += counts[c * fan_ + j];
      bucket_lo[j + 1] = bucket_lo[j] + total;
    }
    CGP_ASSERT(bucket_lo[fan_] == hi);
    std::vector<std::uint64_t> dest(nchunks * fan_);
    for (std::uint32_t j = 0; j < fan_; ++j) {
      std::uint64_t at = bucket_lo[j];
      for (std::size_t c = 0; c < nchunks; ++c) {
        dest[c * fan_ + j] = at;
        at += counts[c * fan_ + j];
      }
      CGP_ASSERT(at == bucket_lo[j + 1]);
    }

    // --- scatter pass: block reads, staged writes -----------------------
    // Identity input (level 0 of a fused permutation) reads nothing: item
    // i's value is i, and the buckets are written in place.
    block_device& dst = scatter_target(cur, identity);
    {
      const obs::span sp("scatter-level", "scatter");
      pool_.parallel_for(0, nchunks, [&](std::size_t c_lo, std::size_t c_hi) {
        bucket_stage stage(dst, fan_, b);
        const auto buf = identity ? nullptr : std::make_unique_for_overwrite<std::uint64_t[]>(b);
        for (std::size_t c = c_lo; c < c_hi; ++c) {
          const auto [blks, items] = chunk_bounds(c);
          rng::batched_philox e(seed_, label_stream, items.first - lo);
          stage.begin(dest.data() + c * fan_, counts.data() + c * fan_);
          if (identity) {
            for_each_label(e, items.second - items.first, [&](std::uint64_t w, std::uint64_t k) {
              stage.push(w & mask, items.first + k);
            });
          } else {
            // One read per block: the chunk's items of that block.
            for (std::uint64_t blk = blks.first; blk < blks.second; ++blk) {
              const std::uint64_t i_lo = std::max<std::uint64_t>(blk * b, items.first);
              const std::uint64_t i_hi = std::min<std::uint64_t>((blk + 1) * b, items.second);
              cur.read_items(i_lo, std::span<std::uint64_t>(buf.get(), i_hi - i_lo));
              for_each_label(e, i_hi - i_lo, [&](std::uint64_t w, std::uint64_t k) {
                stage.push(w & mask, buf[k]);
              });
            }
          }
          rng_words_.fetch_add(items.second - items.first, std::memory_order_relaxed);
        }
      });
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
        shuffle_range(dst, c_lo, c_hi, level + 1, ordinal * fan_ + j, false);
      }
    }
    if (!leaves.empty()) {
      report_.levels = std::max(report_.levels, level + 1);
      pool_.parallel_for(0, leaves.size(), [&](std::size_t l_lo, std::size_t l_hi) {
        // One buffer for the part's leaves, sized to the largest (<= M).
        std::uint64_t most = 0;
        for (std::size_t l = l_lo; l < l_hi; ++l) {
          most = std::max(most, bucket_lo[leaves[l] + 1] - bucket_lo[leaves[l]]);
        }
        const auto mem = std::make_unique_for_overwrite<std::uint64_t[]>(most);
        for (std::size_t l = l_lo; l < l_hi; ++l) {
          const std::uint32_t j = leaves[l];
          leaf(dst, bucket_lo[j], bucket_lo[j + 1], level + 1, ordinal * fan_ + j, false,
               std::span(mem.get(), most));
        }
      });
    }
  }

  block_device& main_;
  const std::uint64_t main_before_;
  std::optional<block_device> scratch_;
  smp::thread_pool& pool_;
  std::uint64_t seed_;
  const std::uint32_t fan_;
  const std::uint64_t leaf_cut_;
  async_report report_;
  std::atomic<std::uint64_t> rng_words_{0};
};

/// Both entry points: run the engine and fold its report into the
/// process-wide metrics.
[[nodiscard]] inline async_report run_engine(block_device& dev, std::uint64_t n,
                                             std::uint64_t seed, smp::thread_pool& pool,
                                             const async_options& opt, bool identity) {
  CGP_EXPECTS(n <= dev.item_capacity());
  CGP_EXPECTS(opt.memory_items >= 4ull * dev.block_items());
  async_report report;
  {
    engine_state state(dev, pool, seed, opt.memory_items);
    state.run(n, identity);
    report = state.take_report();
  }
  // Fold the run's transfer accounting into the process-wide metrics
  // (obs/metrics.hpp): monotone totals across every em shuffle.
  if (obs::enabled()) {
    static obs::counter& shuffles = obs::get_counter("em.shuffles");
    static obs::counter& transfers = obs::get_counter("em.block_transfers");
    static obs::counter& rng_words = obs::get_counter("em.rng_words");
    shuffles.add();
    transfers.add(report.block_transfers);
    rng_words.add(report.rng_words);
  }
  return report;
}

}  // namespace detail_async

/// Uniformly shuffle the first `n` items of `dev` out of core, computing
/// and transferring on `pool`.  When n > M, allocates one scratch device
/// of the same geometry (the ping-pong scatter target), whose transfers
/// are included in the report.  Deterministic in (seed, n, M, B):
/// independent of the pool size.
[[nodiscard]] inline async_report async_em_shuffle(block_device& dev, std::uint64_t n,
                                                   std::uint64_t seed, smp::thread_pool& pool,
                                                   const async_options& opt = {}) {
  return detail_async::run_engine(dev, n, seed, pool, opt, false);
}

/// Write a uniform permutation of {0, ..., n-1} onto the first n items of
/// `dev`: exactly what writing the identity there and running
/// async_em_shuffle with the same (seed, M, B) leaves, without the
/// identity's writes or level 0's reads of it -- level 0 takes item i's
/// value as i, in its scatter or in a root leaf.  The report counts
/// neither, so it is lower than the two-step path's by exactly those
/// transfers.  `dev`'s prior content is never read.  Level 0 scatters in
/// place on `dev`, so a tree of one level allocates no scratch device.
[[nodiscard]] inline async_report async_em_permutation(block_device& dev, std::uint64_t n,
                                                       std::uint64_t seed, smp::thread_pool& pool,
                                                       const async_options& opt = {}) {
  return detail_async::run_engine(dev, n, seed, pool, opt, true);
}

}  // namespace cgp::em
