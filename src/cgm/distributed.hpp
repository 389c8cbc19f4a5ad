// cgm/distributed.hpp
//
// The distributed CGM permutation engine: the paper's recursive
// splitting strategy executed over a pluggable comm::transport instead of
// shared memory -- the real coarse-grained engine behind `backend::cgm`,
// as opposed to the model-counting simulator (cgm::machine +
// core/permute.hpp), which is not a backend.
//
// The global array lives distributed over the p ranks in balanced
// contiguous blocks.  The engine walks the SAME recursion tree as the
// shared-memory engine (smp::shuffle_subtree): split a range into K
// buckets under the exact communication-matrix law, recurse per bucket,
// Fisher-Yates once a bucket fits the cache cutoff.  Ranges are handled
// by ownership:
//
//   * a range inside one rank's block recurses locally -- zero
//     communication (this is where almost all work happens: after the top
//     split levels, buckets localize);
//   * a large range spanning several ranks runs a *distributed split
//     level*: every rank replicates the split plan
//     (smp::make_split_plan -- O(K^2) work, zero bytes exchanged),
//     replays the label streams of the chunks overlapping its block, and
//     routes each of its items straight to the rank owning the item's
//     destination slot.  One alltoallv-shaped superstep per level, total
//     volume = one h-relation of Algorithm 1;
//   * a small multi-rank range (at most ~one block) is gathered to its
//     lead rank, finished there with the ordinary local recursion, and
//     scattered back -- two supersteps, O(block) volume.
//
// RANK-COUNT INDEPENDENCE: every random stream is keyed by
// (seed, recursion node, role) exactly as in the shared-memory engine --
// never by rank or by p -- and which of the three execution paths handles
// a range never changes the permutation it applies.  The output is a pure
// function of (seed, n, engine options): bit-identical across p in
// {1, 2, 4, 8, ...}, across transports (loopback == threaded), and equal
// to smp::engine's output whenever n exceeds the cache cutoff.
//
// DEGENERACY AT THE LEAF (the em precedent): an input at or below the
// cache cutoff is a single leaf and is Fisher-Yates'd from philox(seed, 0)
// -- the very stream `backend::sequential` uses -- so in that regime
// `backend::cgm` is bit-for-bit `backend::sequential`, for every rank
// count and transport.  (The shared-memory engine keys its root leaf by
// node instead; that root case is the one deliberate divergence.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "comm/transport.hpp"
#include "rng/philox_batch.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"
#include "util/assert.hpp"
#include "util/prefix.hpp"

namespace cgp::cgm {

/// Configuration of the distributed engine.  The embedded engine options
/// define the permutation law (fan_out, cache_items, sampling -- shared
/// verbatim with smp::engine; `threads` is ignored: each rank computes
/// sequentially, parallelism comes from the ranks).
struct distributed_options {
  smp::engine_options engine{};
};

namespace detail_dist {

inline constexpr std::uint32_t kTagMove = 0xD157'0001;
inline constexpr std::uint32_t kTagRootGather = 0xD157'0002;
inline constexpr std::uint32_t kTagRootScatter = 0xD157'0003;
inline constexpr std::uint32_t kTagGatherBase = 0xD158'0000;   // + node ordinal
inline constexpr std::uint32_t kTagScatterBase = 0xD159'0000;  // + node ordinal

/// An item in flight: its destination slot in the global index space plus
/// its payload.  No member initializers: staged records are written field
/// by field and read back with memcpy.  (Shipping
/// per-destination runs instead of (pos, value) pairs would halve the
/// wire bytes; the pair format is what the transports carry today.)
template <typename T>
struct routed {
  std::uint64_t pos;
  T value;
};

/// A range of the global index space at a node of the recursion tree.
struct dist_node {
  std::uint64_t lo = 0;
  std::uint64_t len = 0;
  std::uint64_t node = 0;
};

}  // namespace detail_dist

/// SPMD collective: uniformly permute the distributed global array of `n`
/// items, of which this rank holds the balanced contiguous block
/// `block` == [balanced_block_offset(n, p, rank), +balanced_block_size).
/// Every rank of the endpoint's transport must call it with the same
/// (n, seed, opt).  See the header comment for the law; the permutation
/// is independent of the rank count and of the transport.
template <typename T>
void distributed_shuffle(comm::endpoint& ep, std::span<T> block, std::uint64_t n,
                         std::uint64_t seed, const distributed_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  namespace dd = detail_dist;
  // Records are staged in byte vectors: operator new's alignment must do.
  static_assert(alignof(dd::routed<T>) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const std::uint32_t p = ep.size();
  const std::uint32_t r = ep.rank();
  const std::uint64_t my_lo = balanced_block_offset(n, p, r);
  const std::uint64_t my_len = balanced_block_size(n, p, r);
  CGP_EXPECTS(block.size() == my_len);
  if (n < 2) return;

  const std::uint64_t leaf = std::max<std::uint64_t>(opt.engine.cache_items, 2);
  const auto owner = [&](std::uint64_t g) { return balanced_block_owner(n, p, g); };

  // --- root leaf: the whole input fits the cache cutoff -----------------
  // One Fisher-Yates from philox(seed, 0), the sequential backend's
  // stream: backend::cgm == backend::sequential in this regime, by
  // design (compare em with memory >= n).
  if (n <= leaf) {
    if (p == 1) {
      rng::batched_philox e(seed, 0);
      seq::fisher_yates(e, block);
      return;
    }
    const std::uint32_t lead = owner(0);
    if (my_len > 0) ep.send_span(lead, dd::kTagRootGather, std::span<const T>(block));
    std::vector<comm::message> msgs = ep.exchange();
    if (r == lead) {
      const auto all = std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(n));
      for (const auto& msg : msgs) {
        CGP_ASSERT(msg.tag == dd::kTagRootGather);
        const std::uint64_t src_lo = balanced_block_offset(n, p, msg.source);
        CGP_ASSERT(msg.payload.size() == balanced_block_size(n, p, msg.source) * sizeof(T));
        std::memcpy(all.get() + src_lo, msg.payload.data(), msg.payload.size());
      }
      rng::batched_philox e(seed, 0);
      seq::fisher_yates(e, std::span<T>(all.get(), static_cast<std::size_t>(n)));
      for (std::uint32_t o = 0; o < p; ++o) {
        const std::uint64_t o_lo = balanced_block_offset(n, p, o);
        const std::uint64_t o_len = balanced_block_size(n, p, o);
        if (o_len == 0) continue;
        ep.send_span(o, dd::kTagRootScatter,
                     std::span<const T>(all.get() + o_lo, static_cast<std::size_t>(o_len)));
      }
    }
    msgs = ep.exchange();
    for (const auto& msg : msgs) {
      CGP_ASSERT(msg.tag == dd::kTagRootScatter && msg.source == lead);
      CGP_ASSERT(msg.payload.size() == my_len * sizeof(T));
      if (my_len > 0) std::memcpy(block.data(), msg.payload.data(), msg.payload.size());
    }
    return;
  }

  // Multi-rank ranges at or below this are gathered to their lead rank
  // instead of split over the wire (at most ~one block of staging).  It
  // shapes only the communication pattern, never the output.
  const std::uint64_t gather_cut = std::max<std::uint64_t>(leaf, (n + p - 1) / p);

  // Rank d owns the global slots [bounds[d], bounds[d + 1]).
  std::vector<std::uint64_t> bounds(p + 1);
  for (std::uint32_t d = 0; d <= p; ++d) bounds[d] = balanced_block_offset(n, p, d);

  // A subtree of at most cache_items items is one leaf, shuffled in place
  // without scratch; only a subtree that splits borrows scratch of its
  // size.  So the block-sized scratch is made on first use, and a call
  // whose local subtrees are all leaves allocates none.
  const auto splits = [&](std::uint64_t len) { return len >= 2 && len > opt.engine.cache_items; };
  std::unique_ptr<T[]> scratch;
  // Messages are staged in byte vectors from the endpoint's pool, and
  // every payload placed goes back to it.  Without it every level
  // allocates p buffers of ~n/p^2 records, glibc hands their pages back
  // between calls, and each call faults them in again; an endpoint that
  // outlives the call (a socket transport's) keeps them instead.
  comm::vector_pool& pool = ep.buffers();
  const std::size_t keep = 2 * std::size_t{p};
  // Post a copy of `count` items at `items` in a pooled vector.  The
  // endpoint keeps the vector (a self-send, a body written in place) or
  // copies it and leaves it to be kept here.
  const auto post_copy = [&](std::uint32_t d, std::uint32_t tag, const T* items,
                             std::uint64_t count) {
    std::vector<std::byte> v = pool.take(static_cast<std::size_t>(count) * sizeof(T));
    if (count != 0) std::memcpy(v.data(), items, v.size());
    ep.send_owned(d, tag, std::move(v));
    pool.give(std::move(v), keep);
  };
  smp::split_options sopt;
  sopt.fan_out = opt.engine.fan_out;
  sopt.sampling = opt.engine.sampling;

  std::vector<dd::dist_node> level = {{0, n, smp::kShuffleRoot}};
  while (!level.empty()) {
    // ---- one distributed split level over every node in `level` --------
    // The plans are replicated knowledge: every rank samples the same
    // matrices from the same node-keyed streams.
    std::vector<smp::split_plan> plans;
    plans.reserve(level.size());
    for (const auto& nd : level) plans.push_back(smp::make_split_plan(nd.len, seed, nd.node, sopt));

    // Stage every owned item of every node range to the rank owning its
    // destination slot.  Label streams are replayed per overlapping chunk
    // (cursor state needs the chunk's full prefix, so boundary chunks
    // replay from their start -- O(len/K) extra work at worst).
    //
    // The slots of (chunk c, label j) are the contiguous run
    // [dest(c, j), dest(c, j) + a(c, j)), so a label's owner changes only
    // where its cursor crosses a rank-block end.  Each destination's
    // staging is sized up front from those runs: per chunk, the run slots
    // in its block, but never more than this rank's items of the chunk
    // (exact for a chunk inside the block, an upper bound at its ends).
    // The bound is kept tight because a pooled vector zero-fills the bytes
    // it is taken with, so an overcount costs resident pages.
    std::vector<std::uint64_t> stage_n(p, 0);  // records bound for rank d, at most
    std::vector<std::uint64_t> in_chunk(p);
    for (std::size_t ni = 0; ni < level.size(); ++ni) {
      const auto& nd = level[ni];
      const auto& plan = plans[ni];
      const std::uint64_t a = std::max(nd.lo, my_lo);
      const std::uint64_t b = std::min(nd.lo + nd.len, my_lo + my_len);
      if (a >= b) continue;
      for (std::uint32_t c = 0; c < plan.k; ++c) {
        const std::uint64_t c_lo = nd.lo + balanced_block_offset(nd.len, plan.k, c);
        const std::uint64_t c_hi = c_lo + plan.margins[c];
        if (c_hi <= a) continue;
        if (c_lo >= b) break;
        std::fill(in_chunk.begin(), in_chunk.end(), 0);
        for (std::uint32_t j = 0; j < plan.k; ++j) {
          std::uint64_t lo = nd.lo + plan.dest[static_cast<std::size_t>(c) * plan.k + j];
          const std::uint64_t hi = lo + plan.a(c, j);
          if (lo == hi) continue;
          for (std::uint32_t d = owner(lo); lo < hi; ++d) {
            const std::uint64_t e = std::min(hi, bounds[d + 1]);
            in_chunk[d] += e - lo;
            lo = e;
          }
        }
        const std::uint64_t mine = std::min(b, c_hi) - std::max(a, c_lo);
        for (std::uint32_t d = 0; d < p; ++d) stage_n[d] += std::min(in_chunk[d], mine);
      }
    }
    // One byte vector per destination from the pool: the remote ones are
    // handed to the transport, and the received payloads refill the pool
    // once placed.  `out[d]` is destination d's staging, `fill[d]` its
    // write cursor.
    std::vector<std::vector<std::byte>> stage(p);
    std::vector<dd::routed<T>*> out(p);
    for (std::uint32_t d = 0; d < p; ++d) {
      stage[d] = pool.take(static_cast<std::size_t>(stage_n[d]) * sizeof(dd::routed<T>));
      out[d] = reinterpret_cast<dd::routed<T>*>(stage[d].data());
    }
    std::vector<std::uint64_t> fill(p, 0);  // records staged for rank d

    std::vector<std::uint8_t> labels;  // reused across chunks and nodes
    for (std::size_t ni = 0; ni < level.size(); ++ni) {
      const auto& nd = level[ni];
      const auto& plan = plans[ni];
      const std::uint64_t a = std::max(nd.lo, my_lo);
      const std::uint64_t b = std::min(nd.lo + nd.len, my_lo + my_len);
      if (a >= b) continue;
      std::vector<std::uint64_t> cursor(plan.k);  // global slot of label j's next item
      std::vector<std::uint32_t> to(plan.k);      // rank owning that slot
      std::vector<std::uint64_t> to_end(plan.k);  // end of that rank's block
      for (std::uint32_t c = 0; c < plan.k; ++c) {
        const std::uint64_t c_lo = nd.lo + balanced_block_offset(nd.len, plan.k, c);
        const std::uint64_t c_len = plan.margins[c];
        if (c_lo + c_len <= a) continue;
        if (c_lo >= b) break;
        smp::split_chunk_labels_into(plan, seed, nd.node, c, labels);
        for (std::uint32_t j = 0; j < plan.k; ++j)
          cursor[j] = nd.lo + plan.dest[static_cast<std::size_t>(c) * plan.k + j];
        // Items of the chunk before my block: replay only.
        const std::uint64_t i0 = std::max(a, c_lo) - c_lo;
        const std::uint64_t i1 = std::min(b, c_lo + c_len) - c_lo;
        for (std::uint64_t i = 0; i < i0; ++i) ++cursor[labels[static_cast<std::size_t>(i)]];
        for (std::uint32_t j = 0; j < plan.k; ++j) {
          // A label with no items left may sit at slot n (the end of the
          // last bucket), which no rank owns.
          to[j] = cursor[j] < n ? owner(cursor[j]) : p - 1;
          to_end[j] = bounds[to[j] + 1];
        }
        const T* src = block.data() + (c_lo + i0 - my_lo);
        for (std::uint64_t i = i0; i < i1; ++i) {
          const std::uint8_t j = labels[static_cast<std::size_t>(i)];
          const std::uint64_t slot = cursor[j]++;
          while (slot >= to_end[j]) to_end[j] = bounds[++to[j] + 1];  // skips empty blocks
          const std::uint32_t d = to[j];
          dd::routed<T>& rec = out[d][fill[d]++];
          rec.pos = slot;
          rec.value = *src++;
        }
      }
    }
    for (std::uint32_t d = 0; d < p; ++d) CGP_ASSERT(fill[d] <= stage_n[d]);

    // Records for this rank are placed after the exchange, never posted to
    // self; everything else arrives as (pos, value) records and is read
    // straight out of the payload.
    const auto place = [&](const std::vector<std::byte>& recs) {
      CGP_ASSERT(recs.size() % sizeof(dd::routed<T>) == 0);
      for (std::size_t at = 0; at < recs.size(); at += sizeof(dd::routed<T>)) {
        dd::routed<T> rec;
        std::memcpy(&rec, recs.data() + at, sizeof(rec));
        CGP_ASSERT(rec.pos >= my_lo && rec.pos < my_lo + my_len);
        block[static_cast<std::size_t>(rec.pos - my_lo)] = rec.value;
      }
    };
    for (std::uint32_t d = 0; d < p; ++d) {
      stage[d].resize(static_cast<std::size_t>(fill[d]) * sizeof(dd::routed<T>));
      if (d == r) continue;
      ep.send_owned(d, dd::kTagMove, std::move(stage[d]));
      pool.give(std::move(stage[d]), keep);  // kept only if the endpoint copied it
    }
    for (auto& msg : ep.exchange()) {
      CGP_ASSERT(msg.tag == dd::kTagMove);
      place(msg.payload);
      pool.give(std::move(msg.payload), keep);
    }
    place(stage[r]);
    pool.give(std::move(stage[r]), keep);

    // ---- classify the children ----------------------------------------
    std::vector<dd::dist_node> next;
    std::vector<dd::dist_node> gathered;
    for (std::size_t ni = 0; ni < level.size(); ++ni) {
      const auto& nd = level[ni];
      const auto& plan = plans[ni];
      for (std::uint32_t j = 0; j < plan.k; ++j) {
        const dd::dist_node ch{nd.lo + plan.bucket_off[j], plan.margins[j],
                               smp::split_child_node(nd.node, j, opt.engine.fan_out)};
        if (ch.len < 2) continue;  // a 1-item leaf is the identity
        if (owner(ch.lo) == owner(ch.lo + ch.len - 1)) {
          // Single-rank child: its owner finishes the subtree locally.
          if (owner(ch.lo) == r) {
            const auto at = static_cast<std::size_t>(ch.lo - my_lo);
            const auto len = static_cast<std::size_t>(ch.len);
            std::span<T> scr;
            if (splits(ch.len)) {
              if (!scratch) scratch = std::make_unique_for_overwrite<T[]>(block.size());
              scr = std::span<T>(scratch.get() + at, len);
            }
            smp::shuffle_subtree(block.subspan(at, len), scr, seed, ch.node, opt.engine, nullptr,
                                 false);
          }
        } else if (ch.len <= gather_cut) {
          gathered.push_back(ch);
        } else {
          next.push_back(ch);
        }
      }
    }

    // ---- gather batch: small multi-rank children ----------------------
    // Two supersteps for the whole batch.  `gathered` is replicated, so
    // every rank agrees on whether these barriers happen and on the tag
    // of each child (its ordinal in the batch).
    if (!gathered.empty()) {
      for (std::size_t gi = 0; gi < gathered.size(); ++gi) {
        const auto& g = gathered[gi];
        const std::uint64_t a = std::max(g.lo, my_lo);
        const std::uint64_t b = std::min(g.lo + g.len, my_lo + my_len);
        if (a < b) {
          post_copy(owner(g.lo), dd::kTagGatherBase + static_cast<std::uint32_t>(gi),
                    block.data() + (a - my_lo), b - a);
        }
      }
      std::vector<comm::message> msgs = ep.exchange();
      for (std::size_t gi = 0; gi < gathered.size(); ++gi) {
        const auto& g = gathered[gi];
        if (owner(g.lo) != r) continue;
        std::vector<std::byte> staged = pool.take(static_cast<std::size_t>(g.len) * sizeof(T));
        T* const buf = reinterpret_cast<T*>(staged.data());
        for (auto& msg : msgs) {
          if (msg.tag != dd::kTagGatherBase + static_cast<std::uint32_t>(gi)) continue;
          const std::uint64_t src_lo = balanced_block_offset(n, p, msg.source);
          const std::uint64_t src_len = balanced_block_size(n, p, msg.source);
          const std::uint64_t a = std::max(g.lo, src_lo);
          CGP_ASSERT(msg.payload.size() ==
                     (std::min(g.lo + g.len, src_lo + src_len) - a) * sizeof(T));
          std::memcpy(buf + (a - g.lo), msg.payload.data(), msg.payload.size());
          pool.give(std::move(msg.payload), keep);
        }
        const auto len = static_cast<std::size_t>(g.len);
        std::unique_ptr<T[]> scr;
        if (splits(g.len)) scr = std::make_unique_for_overwrite<T[]>(len);
        smp::shuffle_subtree(std::span<T>(buf, len), std::span<T>(scr.get(), scr ? len : 0), seed,
                             g.node, opt.engine, nullptr, false);
        for (std::uint32_t o = owner(g.lo); o <= owner(g.lo + g.len - 1); ++o) {
          const std::uint64_t o_lo = balanced_block_offset(n, p, o);
          const std::uint64_t o_len = balanced_block_size(n, p, o);
          const std::uint64_t a = std::max(g.lo, o_lo);
          const std::uint64_t b = std::min(g.lo + g.len, o_lo + o_len);
          if (a >= b) continue;
          post_copy(o, dd::kTagScatterBase + static_cast<std::uint32_t>(gi), buf + (a - g.lo),
                    b - a);
        }
        pool.give(std::move(staged), keep);
      }
      msgs = ep.exchange();
      for (std::size_t gi = 0; gi < gathered.size(); ++gi) {
        const auto& g = gathered[gi];
        const std::uint64_t a = std::max(g.lo, my_lo);
        const std::uint64_t b = std::min(g.lo + g.len, my_lo + my_len);
        if (a >= b) continue;
        for (auto& msg : msgs) {
          if (msg.tag != dd::kTagScatterBase + static_cast<std::uint32_t>(gi)) continue;
          CGP_ASSERT(msg.source == owner(g.lo));
          CGP_ASSERT(msg.payload.size() == (b - a) * sizeof(T));
          std::memcpy(block.data() + (a - my_lo), msg.payload.data(), msg.payload.size());
          pool.give(std::move(msg.payload), keep);
        }
      }
    }

    level = std::move(next);
  }
}

/// Whole-array driver over a transport: every rank shuffles its balanced
/// block view of `data` in place (the in-process transports share the
/// caller's memory, so this is zero-copy up to the engine's own staging).
/// Output is a pure function of (seed, data.size(), opt.engine) -- see
/// distributed_shuffle.
template <typename T>
void transport_shuffle(comm::transport& tr, std::span<T> data, std::uint64_t seed,
                       const distributed_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = data.size();
  if (n < 2) return;
  const std::uint32_t p = tr.size();
  tr.run([&](comm::endpoint& ep) {
    const std::uint64_t lo = balanced_block_offset(n, p, ep.rank());
    const std::uint64_t len = balanced_block_size(n, p, ep.rank());
    distributed_shuffle(ep, data.subspan(static_cast<std::size_t>(lo),
                                         static_cast<std::size_t>(len)),
                        n, seed, opt);
  });
}

}  // namespace cgp::cgm
