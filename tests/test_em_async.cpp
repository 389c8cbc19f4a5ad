// Tests for the out-of-core permutation engine (em/async_shuffle.hpp) and
// the block device it calls directly: item-range transfer accounting and
// the atomic boundary-block read-modify-write that concurrent writers
// share, exhaustive S5 uniformity of the engine, bit-identical output
// across worker counts, the O((n/B) log_K(n/M)) transfer bound and the gap
// to the naive baseline, the identity-fused permutation against the
// identity filled and shuffled, absolute content and count pins at
// fan-out 256, and the core::backend::em executor behind cgp::context,
// including the designed em == sequential agreement at M >= n.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/apply.hpp"
#include "core/context.hpp"
#include "core/executor.hpp"
#include "core/registry.hpp"
#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "em/naive_shuffle.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/thread_pool.hpp"
#include "support/perm_check.hpp"

namespace {

using namespace cgp;

// --- item-range device access -----------------------------------------------

TEST(BlockDeviceItems, ReadItemsCountsOneReadPerCoveredBlock) {
  em::block_device dev(64, 8);
  for (std::uint64_t i = 0; i < 64; ++i) dev.poke(i, 100 + i);
  std::vector<std::uint64_t> out(20);
  dev.read_items(6, out);  // items 6..25 cover blocks 0..3
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(out[i], 106 + i);
  EXPECT_EQ(dev.stats().block_reads, 4u);
  EXPECT_EQ(dev.stats().block_writes, 0u);
}

TEST(BlockDeviceItems, WriteItemsBlindWritesFullBlocksAndMergesEdges) {
  em::block_device dev(64, 8);
  for (std::uint64_t i = 0; i < 64; ++i) dev.poke(i, i);
  std::vector<std::uint64_t> in(12, 777);
  dev.write_items(6, in);  // items 6..17: partial block 0, full block 1, partial block 2
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(dev.peek(i), (i >= 6 && i < 18) ? 777u : i) << "item " << i;
  }
  // 2 partial RMWs (1 read + 1 write each) + 1 blind full-block write.
  EXPECT_EQ(dev.stats().block_reads, 2u);
  EXPECT_EQ(dev.stats().block_writes, 3u);
}

// The u32 item calls of a 4-byte device are the u64 calls without the
// widening and narrowing: on every range shape -- block-aligned, a partial
// head, a partial tail, both, inside one block, empty -- a u32 write
// leaves what the u64 write of the same values leaves, a u32 read returns
// what the u64 read returns, and both count the same block transfers.
TEST(BlockDeviceItems, NarrowItemCallsMatchTheWideCalls) {
  constexpr std::uint32_t b = 8;
  constexpr std::uint64_t n = 64;
  const struct {
    std::uint64_t lo;
    std::uint64_t len;
  } ranges[] = {{8, 24}, {5, 11}, {16, 13}, {6, 20}, {17, 5}, {40, 8}, {9, 0}, {63, 1}};
  for (const auto& r : ranges) {
    const std::string where = "[" + std::to_string(r.lo) + ", +" + std::to_string(r.len) + ")";
    em::block_device wide_calls(n, b, 4);
    em::block_device narrow_calls(n, b, 4);
    for (std::uint64_t i = 0; i < n; ++i) {
      wide_calls.poke(i, 0xA000'0000u + i);
      narrow_calls.poke(i, 0xA000'0000u + i);
    }
    std::vector<std::uint64_t> in64(r.len);
    std::vector<std::uint32_t> in32(r.len);
    for (std::uint64_t k = 0; k < r.len; ++k) {
      in32[k] = 0xFFFF'0000u + static_cast<std::uint32_t>(k * 7);
      in64[k] = in32[k];
    }
    wide_calls.write_items(r.lo, in64);
    narrow_calls.write_items(r.lo, std::span<const std::uint32_t>(in32));
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(narrow_calls.peek(i), wide_calls.peek(i)) << where << " item " << i;
    }
    EXPECT_EQ(narrow_calls.stats().block_reads, wide_calls.stats().block_reads) << where;
    EXPECT_EQ(narrow_calls.stats().block_writes, wide_calls.stats().block_writes) << where;

    std::vector<std::uint64_t> out64(r.len);
    std::vector<std::uint32_t> out32(r.len);
    wide_calls.read_items(r.lo, out64);
    narrow_calls.read_items(r.lo, std::span<std::uint32_t>(out32));
    EXPECT_EQ(std::vector<std::uint64_t>(out32.begin(), out32.end()), out64) << where;
    EXPECT_EQ(out64, in64) << where;
    EXPECT_EQ(narrow_calls.stats().block_reads, wide_calls.stats().block_reads) << where;
    EXPECT_EQ(narrow_calls.stats().block_writes, wide_calls.stats().block_writes) << where;
  }
}

// The engine's scatter and leaves write disjoint item slices of one device
// from every pool worker, and adjacent slices share boundary blocks: the
// device must make each boundary read-modify-write atomic, or one writer's
// merge puts back another's stale items.  Four threads write interleaved
// slices of 1 to B + 1 items (adjacent slices always on different threads)
// over a few blocks, round after round, with the slice lengths shifting
// every round so the shared boundaries move; after each round every item
// must hold its writer's value, and at the end the device must have
// counted exactly the transfers its calls imply.  Both item widths run,
// and the 4-byte device runs under both widths of write_items (T): 8-byte
// values carry the round and writer above bit 32, 4-byte ones below it.
template <typename T>
void concurrent_writers_compose(std::uint32_t item_bytes) {
  SCOPED_TRACE("item_bytes " + std::to_string(item_bytes) + ", " +
               std::to_string(8 * sizeof(T)) + "-bit calls");
  constexpr std::uint32_t b = 8;
  constexpr std::uint64_t n = 256;
  constexpr unsigned writers = 4;
  constexpr std::uint64_t rounds = 5000;
  em::block_device dev(n, b, item_bytes);
  const unsigned shift = item_bytes == 8 ? 32 : 8;
  const auto value = [shift](std::uint64_t round, std::uint64_t t, std::uint64_t i) {
    return static_cast<T>((round << (shift + 8)) | (t << shift) | i);
  };
  // Slice s of the current round is [bounds[s], bounds[s + 1]) and belongs
  // to writer s % writers.
  std::uint64_t round = 0;
  std::vector<std::uint64_t> bounds;
  const auto lay_out = [&] {
    bounds.assign(1, 0);
    for (std::uint64_t s = 0; bounds.back() < n; ++s) {
      bounds.push_back(std::min(n, bounds.back() + 1 + (s + round) % (b + 1)));
    }
  };
  lay_out();
  std::uint64_t want_reads = 0;
  std::uint64_t want_writes = 0;
  std::uint64_t wrong_items = 0;
  // Runs once per round, after every writer has arrived and before any is
  // released: check the round, count its calls' transfers, lay out the next.
  const auto end_round = [&]() noexcept {
    for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
      const std::uint64_t lo = bounds[s];
      const std::uint64_t hi = bounds[s + 1];
      for (std::uint64_t i = lo; i < hi; ++i) {
        wrong_items += dev.peek(i) != value(round, s % writers, i);
      }
      for (std::uint64_t blk = lo / b; blk * b < hi; ++blk) {
        ++want_writes;
        if (lo > blk * b || hi < (blk + 1) * b) ++want_reads;  // a merged boundary
      }
    }
    ++round;
    lay_out();
  };
  std::barrier sync(writers, end_round);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<T> in;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::size_t s = t; s + 1 < bounds.size(); s += writers) {
          in.resize(bounds[s + 1] - bounds[s]);
          for (std::uint64_t k = 0; k < in.size(); ++k) in[k] = value(round, t, bounds[s] + k);
          dev.write_items(bounds[s], std::span<const T>(in));
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(round, rounds);
  EXPECT_EQ(wrong_items, 0u) << "a boundary merge lost a concurrent writer's items";
  EXPECT_EQ(dev.stats().block_reads, want_reads);
  EXPECT_EQ(dev.stats().block_writes, want_writes);
}

TEST(BlockDeviceItems, ConcurrentWritersComposeOnSharedBoundaryBlocks) {
  concurrent_writers_compose<std::uint64_t>(8);
  concurrent_writers_compose<std::uint64_t>(4);
  concurrent_writers_compose<std::uint32_t>(4);
}

// A 4-byte device holds each item in half the bytes and returns what was
// written, at every API; a value of 2^32 or more does not fit and aborts,
// whichever call writes it and wherever it sits in the call's span.
TEST(BlockDeviceItems, FourByteItemsRoundTripAndRefuseWideValues) {
  EXPECT_EQ(em::item_bytes_for(0xFFFF'FFFFull), 4u);
  EXPECT_EQ(em::item_bytes_for(0x1'0000'0000ull), 8u);
  em::block_device narrow(20, 8, 4);
  em::block_device wide(20, 8);
  EXPECT_EQ(narrow.bytes(), 24u * 4);
  EXPECT_EQ(wide.bytes(), 24u * 8);
  std::vector<std::uint64_t> in(13);
  for (std::uint64_t i = 0; i < in.size(); ++i) in[i] = 0xFFFF'FFF0ull + i % 16;
  narrow.write_items(5, in);
  narrow.write_block(2, std::vector<std::uint64_t>(8, 0xFFFF'FFFFull));
  narrow.poke(2, 7);
  std::vector<std::uint64_t> got(13);
  narrow.read_items(5, got);
  EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.begin() + 11),
            std::vector<std::uint64_t>(in.begin(), in.begin() + 11));
  std::vector<std::uint64_t> block(8);
  narrow.read_block(2, block);
  EXPECT_EQ(block, std::vector<std::uint64_t>(8, 0xFFFF'FFFFull));
  EXPECT_EQ(narrow.peek(2), 7u);
  EXPECT_EQ(narrow.peek(0), 0u);

  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  in[12] = std::uint64_t{1} << 32;
  EXPECT_DEATH(narrow.write_items(5, in), "precondition");
  EXPECT_DEATH(narrow.write_block(0, std::vector<std::uint64_t>(8, ~0ull)), "precondition");
  EXPECT_DEATH(narrow.poke(3, std::uint64_t{1} << 63), "precondition");
  wide.write_items(5, in);  // 8 bytes hold it
  EXPECT_EQ(wide.peek(17), std::uint64_t{1} << 32);
}

// --- async engine: correctness and uniformity --------------------------------

// Run the async engine over a span: load onto a fresh device, shuffle with
// a per-rep seed, read back.
void async_shuffle_span(std::span<std::uint64_t> v, std::uint64_t seed, smp::thread_pool& pool,
                        std::uint32_t block_items, const em::async_options& opt) {
  em::block_device dev(v.size(), block_items);
  for (std::uint64_t i = 0; i < v.size(); ++i) dev.poke(i, v[i]);
  (void)em::async_em_shuffle(dev, v.size(), seed, pool, opt);
  for (std::uint64_t i = 0; i < v.size(); ++i) v[i] = dev.peek(i);
}

TEST(AsyncEmShuffle, PreservesMultisetWithDeepRecursion) {
  em::block_device dev(4096, 16);
  for (std::uint64_t i = 0; i < 4096; ++i) dev.poke(i, i);
  smp::thread_pool pool(4);
  em::async_options opt;
  opt.memory_items = 128;
  const auto rep = em::async_em_shuffle(dev, 4096, 11, pool, opt);
  std::vector<std::uint64_t> out(4096);
  for (std::uint64_t i = 0; i < 4096; ++i) out[i] = dev.peek(i);
  EXPECT_TRUE(stats::is_permutation_of_iota(out));
  EXPECT_GE(rep.levels, 2u) << "must have recursed";
}

TEST(AsyncEmShuffle, ExhaustiveUniformityOverS5OnTinyDevice) {
  // 5 items, 1-item blocks, M = 4: fan-out adaptive_fan_out(4, 1) = 2 and
  // leaf cutoff 4, so every rep splits at least once; every rep on a
  // distinct seed.
  static_assert(em::adaptive_fan_out(4, 1) == 2);
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = 4;
  test_support::expect_uniform_over_sk(
      [&](std::span<std::uint64_t> v, int rep) {
        async_shuffle_span(v, 1000 + static_cast<std::uint64_t>(rep), pool, 1, opt);
      },
      5, 120 * 100);
}

TEST(AsyncEmShuffle, SingleItemPositionUniformAtDepth) {
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = 16;
  const auto res = test_support::position_uniformity_gof(
      [&](std::span<std::uint64_t> v, int rep) {
        async_shuffle_span(v, 5000 + static_cast<std::uint64_t>(rep), pool, 4, opt);
      },
      64, 16000);
  EXPECT_GT(res.p_value, 1e-9);
}

TEST(AsyncEmShuffle, FixedPointLawAtModerateSize) {
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = 64;
  test_support::expect_fixed_point_law(
      [&](int rep) {
        std::vector<std::uint64_t> v(256);
        std::iota(v.begin(), v.end(), 0);
        async_shuffle_span(v, 9000 + static_cast<std::uint64_t>(rep), pool, 8, opt);
        return v;
      },
      4000);
}

// --- async engine: reproducibility matrix ------------------------------------

TEST(AsyncEmShuffle, BitIdenticalAcrossWorkerCounts) {
  // Pools of 1, 2 and 4 workers chunk every level differently; the
  // permutation must not change.
  constexpr std::uint64_t n = 6000;
  constexpr std::uint64_t seed = 0xA570;
  const unsigned workers[] = {1u, 2u, 4u};
  test_support::expect_bit_identical(
      std::size(workers),
      [&](std::size_t i) {
        em::block_device dev(n, 16);
        for (std::uint64_t j = 0; j < n; ++j) dev.poke(j, j);
        smp::thread_pool pool(workers[i]);
        em::async_options opt;
        opt.memory_items = 256;
        (void)em::async_em_shuffle(dev, n, seed, pool, opt);
        std::vector<std::uint64_t> out(n);
        for (std::uint64_t j = 0; j < n; ++j) out[j] = dev.peek(j);
        return out;
      },
      "async em (workers)");
}

TEST(AsyncEmShuffle, RepeatedRunsWithSameSeedAgree) {
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = 128;
  std::vector<std::uint64_t> a(2000);
  std::vector<std::uint64_t> b(2000);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  async_shuffle_span(a, 77, pool, 16, opt);
  async_shuffle_span(b, 77, pool, 16, opt);
  EXPECT_EQ(a, b);
  std::iota(b.begin(), b.end(), 0);
  async_shuffle_span(b, 78, pool, 16, opt);
  EXPECT_NE(a, b);
}

// --- async engine: I/O complexity --------------------------------------------

TEST(AsyncEmIo, TransfersAreLinearInBlocksTimesLevels) {
  // block_transfers = O((n/B) log_K(n/M)): each distribution level plus the
  // final leaf pass streams the data a constant number of times -- one read
  // and ~one write per block, plus boundary RMWs.  Assert the per-(block x
  // pass) constant and the level count itself.
  const std::uint64_t n = 16384;
  const std::uint32_t b = 16;
  const std::uint64_t mem = 256;  // K = 14 -> fan 8
  em::block_device dev(n, b);
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = mem;
  const auto rep = em::async_em_shuffle(dev, n, 3, pool, opt);

  // levels <= ceil(log_K(n/M)) + 1 with K = 8: log_8(16384/256) = 2, plus
  // at most one extra level when multinomial jitter pushes a bucket just
  // over the cutoff.
  EXPECT_LE(rep.levels, 3u);
  EXPECT_GE(rep.levels, 1u);
  const double blocks = static_cast<double>(n) / b;
  const double passes = static_cast<double>(rep.levels) + 1.0;  // + leaf pass
  EXPECT_LT(static_cast<double>(rep.block_transfers), 4.0 * blocks * passes)
      << "more than 4 transfers per block per pass";
  // And below one transfer per item (the naive baseline pays ~1.8n once
  // n >> M; the separation proper is asserted against it directly below).
  EXPECT_LT(rep.block_transfers, n);
}

TEST(AsyncEmIo, BeatsNaiveOnTransfers) {
  const std::uint64_t n = 32768;
  const std::uint32_t b = 64;
  const std::uint64_t mem = 16ull * b;  // n >> M
  rng::philox4x64 e(7, 0);

  em::block_device dev1(n, b);
  for (std::uint64_t i = 0; i < n; ++i) dev1.poke(i, i);
  const auto naive = em::naive_em_fisher_yates(e, dev1, n, 16);

  em::block_device dev2(n, b);
  for (std::uint64_t i = 0; i < n; ++i) dev2.poke(i, i);
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = mem;
  const auto async = em::async_em_shuffle(dev2, n, 7, pool, opt);

  EXPECT_LT(async.block_transfers, naive.block_transfers / 8)
      << "async engine must beat the naive baseline by far at n >> M";
}

TEST(AsyncEmIo, RngBudgetIsTwoLabelWordsPerItemPerLevelPlusLeaves) {
  // Labels are drawn twice per level (count pass + scatter pass, one word
  // per item each) and leaves draw ~1 word per item: total <= (2 levels + 2) n.
  const std::uint64_t n = 8192;
  em::block_device dev(n, 16);
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = 256;
  const auto rep = em::async_em_shuffle(dev, n, 5, pool, opt);
  EXPECT_LE(rep.rng_words, (2ull * rep.levels + 2) * n);
}

// --- backend dispatch ---------------------------------------------------------

TEST(BackendEm, AgreesWithSequentialWhenMemoryCoversInput) {
  // Designed contract: with M >= n the em backend is a single in-memory
  // Fisher-Yates from philox(seed, 0) -- the sequential backend's stream.
  cgp::context_options em_opt;
  em_opt.which = core::backend::em;
  em_opt.engine.em_block_items = 64;
  em_opt.engine.em_engine.memory_items = 1u << 16;  // >= n
  const cgp::context em(em_opt);

  cgp::context_options seq_opt;
  seq_opt.which = core::backend::sequential;
  const cgp::context seq(seq_opt);

  EXPECT_EQ(em.random_permutation(3000, 424242), seq.random_permutation(3000, 424242));

  // The agreement extends to arbitrary payloads through the index gather.
  std::vector<std::uint32_t> via_em(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) via_em[i] = i * 7 + 3;
  std::vector<std::uint32_t> via_seq = via_em;
  (void)em.shuffle(std::span<std::uint32_t>(via_em), 424242);
  (void)seq.shuffle(std::span<std::uint32_t>(via_seq), 424242);
  EXPECT_EQ(via_em, via_seq);
}

TEST(BackendEm, OutOfCoreDispatchProducesValidPermutationAndReport) {
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.parallelism = 2;
  opt.em_block_items = 32;
  opt.em_engine.memory_items = 512;  // n >> M: the real out-of-core path
  const auto cfg = core::resolve_em_config(core::resolve_plan(20'000, 8, opt), opt);
  em::async_report report;
  std::vector<std::uint64_t> pi(20'000);
  core::em_executor(cfg.aopt, cfg.block_items, *cfg.pool, &report)
      .fill_random_permutation(pi, 31337);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
  EXPECT_GE(report.levels, 1u);
  EXPECT_GT(report.block_transfers, 0u);
}

TEST(BackendEm, DispatchMatchesDirectEngineOnSameSeed) {
  cgp::context_options copt;
  copt.which = core::backend::em;
  copt.parallelism = 2;
  copt.engine.em_block_items = 16;
  copt.engine.em_engine.memory_items = 256;
  const auto via_dispatch = cgp::context(copt).random_permutation(5000, 99);

  em::block_device dev(5000, 16);
  for (std::uint64_t i = 0; i < 5000; ++i) dev.poke(i, i);
  smp::thread_pool pool(2);
  (void)em::async_em_shuffle(dev, 5000, 99, pool, copt.engine.em_engine);
  std::vector<std::uint64_t> direct(5000);
  for (std::uint64_t i = 0; i < 5000; ++i) direct[i] = dev.peek(i);
  EXPECT_EQ(via_dispatch, direct);
}

// The identity-fused first pass: em_shuffled_identity_device builds its
// device without writing 0..n-1 or reading it back.  At every tree shape
// (a root leaf, one level, two levels), at n off a multiple of B and at
// pool sizes 1 and 3, it must leave the content the two-step path leaves
// (fill_iota_streamed, then async_em_shuffle), and report exactly the
// identity fill's transfers plus level 0's block reads fewer.
TEST(AsyncEmPermutation, FusedIdentityEqualsFillThenShuffle) {
  const struct {
    std::uint64_t n;
    std::uint64_t m;
    std::uint32_t b;
    std::uint32_t levels;
  } shapes[] = {
      {900, 1024, 64, 0},    // n <= M: a root leaf
      {5003, 1024, 64, 1},   // K = 8 buckets of ~625 <= M
      {20'011, 512, 32, 2},  // buckets of ~2,500 > M split once more
      {100'003, 2064, 8, 1},    // K = 256 buckets of ~391 <= M
      {1'000'003, 2064, 8, 2},  // K = 256 buckets of ~3,906 > M split once more
  };
  for (const auto& shape : shapes) {
    for (const unsigned workers : {1u, 3u}) {
      smp::thread_pool pool(workers);
      em::async_options opt;
      opt.memory_items = shape.m;
      const std::uint64_t seed = 0xF05E ^ shape.n;

      em::block_device two_step(shape.n, shape.b);
      core::fill_iota_streamed(two_step, shape.n, shape.m);
      const std::uint64_t fill_transfers = two_step.stats().transfers();
      const em::async_report shuffled = em::async_em_shuffle(two_step, shape.n, seed, pool, opt);

      em::async_report fused;
      const auto dev =
          core::em_shuffled_identity_device(shape.n, seed, {opt, shape.b, &pool}, &fused);

      std::vector<std::uint64_t> want(shape.n);
      std::vector<std::uint64_t> got(shape.n);
      two_step.read_items(0, want);
      dev->read_items(0, got);
      const std::string where = "n=" + std::to_string(shape.n) + " workers=" +
                                std::to_string(workers);
      EXPECT_TRUE(stats::is_permutation_of_iota(got)) << where;
      EXPECT_EQ(got, want) << where;
      EXPECT_EQ(fused.levels, shape.levels) << where;
      EXPECT_EQ(fused.levels, shuffled.levels) << where;
      EXPECT_EQ(fused.rng_words, shuffled.rng_words) << where;
      const std::uint64_t level0_reads = (shape.n + shape.b - 1) / shape.b;
      EXPECT_EQ(fill_transfers + shuffled.block_transfers - fused.block_transfers,
                fill_transfers + level0_reads)
          << where;
    }
  }
}

// Absolute pins at fan-out 256, the wire streams' K (every other shape in
// this file runs K = 8): B = 8 and M = 2,064, one level at n = 100,003
// and two at n = 1,000,003, both entry points, pools of 1 and 3.  The
// content digest, levels and rng words cannot depend on the pool; the
// block transfers are pinned per pool size, because the chunking (and with
// it the count of boundary read-modify-writes) follows the pool.
TEST(AsyncEmPermutation, FanOut256ContentAndCountsArePinned) {
  const struct {
    std::uint64_t n;
    bool identity;  ///< async_em_permutation, else async_em_shuffle of mix64(i)
    std::uint64_t digest;
    std::uint32_t levels;
    std::uint64_t rng_words;
    std::uint64_t transfers[2];  ///< at pools of 1 and 3
  } pins[] = {
      {100'003, true, 0x1D9442A33FB357F9ull, 1, 299'753, {39'678, 42'306}},
      {100'003, false, 0x37A0B43A03E9B34Aull, 1, 299'753, {52'179, 54'807}},
      {1'000'003, true, 0x3EB8CD9BDC85DFC7ull, 2, 4'934'479, {1'027'631, 1'030'358}},
      {1'000'003, false, 0x10E13EF9E21491BCull, 2, 4'934'479, {1'152'632, 1'155'359}},
  };
  for (const auto& pin : pins) {
    for (const unsigned w : {0u, 1u}) {
      smp::thread_pool pool(w == 0 ? 1 : 3);
      em::async_options opt;
      opt.memory_items = 2064;
      const std::uint64_t seed = 0x256 ^ pin.n;
      em::block_device dev(pin.n, 8);
      em::async_report rep;
      if (pin.identity) {
        rep = em::async_em_permutation(dev, pin.n, seed, pool, opt);
      } else {
        for (std::uint64_t i = 0; i < pin.n; ++i) dev.poke(i, rng::mix64(i));
        rep = em::async_em_shuffle(dev, pin.n, seed, pool, opt);
      }
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (std::uint64_t i = 0; i < pin.n; ++i) {
        const std::uint64_t v = dev.peek(i);
        for (unsigned k = 0; k < 8; ++k) {
          h ^= (v >> (8 * k)) & 0xFF;
          h *= 0x100000001B3ull;
        }
      }
      const std::string where = std::string(pin.identity ? "permutation" : "shuffle") +
                                " n=" + std::to_string(pin.n) +
                                " workers=" + std::to_string(pool.size());
      EXPECT_EQ(h, pin.digest) << where << " digest 0x" << std::hex << h;
      EXPECT_EQ(rep.levels, pin.levels) << where;
      EXPECT_EQ(rep.rng_words, pin.rng_words) << where;
      EXPECT_EQ(rep.block_transfers, pin.transfers[w]) << where;
    }
  }
}

// Absolute pins where a permutation keeps its level-0 labels: one level
// whose range fits in 4 * K * B one-byte labels -- n = 100,003 at M =
// 65,536 and B = 256 (K = 128), and n = 8,192 = 4 * K * B at M = 2,064 and
// B = 8 (K = 256) -- and, one item past that bound, n = 8,193, which
// replays its labels as every level did before labels were kept.  All on
// 4-byte devices, the width em_shuffled_identity_device gives a
// permutation, at pools of 1 and 3.  Content, levels and transfers are
// the replaying engine's, pinned before labels were kept; rng_words drops
// by exactly n where the labels are kept (299,881, 24,320 and 24,323
// words replaying).  The shuffle of the first shape reads its range, so it
// keeps nothing: it pins the 4-byte reads and stage of a reading level.
TEST(AsyncEmPermutation, KeptLabelsContentAndCountsArePinned) {
  const struct {
    std::uint64_t n;
    std::uint64_t m;
    std::uint32_t b;
    bool identity;  ///< async_em_permutation, else async_em_shuffle of mix64(i) >> 32
    std::uint64_t digest;
    std::uint64_t rng_words;
    std::uint64_t transfers;  ///< at pools of 1 and 3: one chunk either way
  } pins[] = {
      {100'003, 65'536, 256, true, 0x666AE0E90CD25BC1ull, 199'878, 2064},
      {100'003, 65'536, 256, false, 0x90D40710FA1CF5B1ull, 299'881, 2455},
      {8192, 2064, 8, true, 0x4C50A5CA25315F75ull, 16'128, 4668},
      {8193, 2064, 8, true, 0xAFA7D0AFBEE96975ull, 24'323, 4659},
  };
  for (const auto& pin : pins) {
    for (const unsigned workers : {1u, 3u}) {
      smp::thread_pool pool(workers);
      em::async_options opt;
      opt.memory_items = pin.m;
      const std::uint64_t seed = 0x3A7 ^ pin.n;
      em::block_device dev(pin.n, pin.b, 4);
      em::async_report rep;
      if (pin.identity) {
        rep = em::async_em_permutation(dev, pin.n, seed, pool, opt);
      } else {
        for (std::uint64_t i = 0; i < pin.n; ++i) dev.poke(i, rng::mix64(i) >> 32);
        rep = em::async_em_shuffle(dev, pin.n, seed, pool, opt);
      }
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (std::uint64_t i = 0; i < pin.n; ++i) {
        const std::uint64_t v = dev.peek(i);
        for (unsigned k = 0; k < 8; ++k) {
          h ^= (v >> (8 * k)) & 0xFF;
          h *= 0x100000001B3ull;
        }
      }
      const std::string where = std::string(pin.identity ? "permutation" : "shuffle") +
                                " n=" + std::to_string(pin.n) +
                                " workers=" + std::to_string(workers);
      EXPECT_EQ(h, pin.digest) << where << " digest 0x" << std::hex << h;
      EXPECT_EQ(rep.levels, 1u) << where;
      EXPECT_EQ(rep.rng_words, pin.rng_words) << where;
      EXPECT_EQ(rep.block_transfers, pin.transfers) << where;
    }
  }
}

// A device's item width changes what it holds, never what the engine does:
// both entry points on 4-byte and 8-byte devices leave equal content and
// count equal transfers, levels and rng words -- at one level (K = 8), at
// two levels with a scratch device (which takes its pair's width), and at
// K = 256, once where the permutation keeps its labels.  The shuffled
// payload is 32-bit, so both widths hold it.
TEST(AsyncEmPermutation, FourAndEightByteDevicesAgree) {
  const struct {
    std::uint64_t n;
    std::uint64_t m;
    std::uint32_t b;
    std::uint32_t levels;
  } shapes[] = {
      {5003, 1024, 64, 1},    // K = 8 buckets of ~625 <= M
      {20'011, 512, 32, 2},   // buckets of ~2,500 > M split once more
      {100'003, 2064, 8, 1},  // K = 256 buckets of ~391 <= M
      {8192, 2064, 8, 1},     // n = 4 * K * B: the permutation keeps its labels
  };
  smp::thread_pool pool(3);
  for (const auto& shape : shapes) {
    for (const bool identity : {true, false}) {
      em::async_options opt;
      opt.memory_items = shape.m;
      const std::uint64_t seed = 0x4B8 ^ shape.n;
      std::vector<std::uint64_t> content[2];
      em::async_report rep[2];
      for (const std::uint32_t w : {0u, 1u}) {
        em::block_device dev(shape.n, shape.b, w == 0 ? 8 : 4);
        if (identity) {
          rep[w] = em::async_em_permutation(dev, shape.n, seed, pool, opt);
        } else {
          for (std::uint64_t i = 0; i < shape.n; ++i) dev.poke(i, rng::mix64(i) >> 32);
          rep[w] = em::async_em_shuffle(dev, shape.n, seed, pool, opt);
        }
        content[w].resize(shape.n);
        for (std::uint64_t i = 0; i < shape.n; ++i) content[w][i] = dev.peek(i);
      }
      const std::string where = std::string(identity ? "permutation" : "shuffle") +
                                " n=" + std::to_string(shape.n);
      EXPECT_EQ(content[1], content[0]) << where;
      EXPECT_EQ(rep[1].block_transfers, rep[0].block_transfers) << where;
      EXPECT_EQ(rep[1].levels, rep[0].levels) << where;
      EXPECT_EQ(rep[1].rng_words, rep[0].rng_words) << where;
      EXPECT_EQ(rep[0].levels, shape.levels) << where;
    }
  }
}

// --- wide-record apply layer: record sizes that do not divide B --------------

// A 24-byte record occupies 3 device words, and 3 does not divide the
// default block of 4096 items: records straddle block boundaries, and
// every streamed slice of write_records_streamed starts and ends
// mid-block, exercising write_items' partial-block read-modify-write
// merge on both edges (the path the old poke/peek dispatch never hit).
struct rec24 {
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
};
static_assert(sizeof(rec24) == 24);

TEST(BackendEmApply, WideRecordRoundTripStraddlingBlocks) {
  // Identity check of the streaming record apply alone: write 24-byte
  // records at 3 words apiece onto a B = 4096 device in M-item slices,
  // then gather them back through an identity pi -- every byte must
  // survive the partial-block merges.
  const std::uint64_t n = 11'000;  // 33'000 words: not a multiple of 4096
  const std::uint64_t m = 1u << 14;
  std::vector<rec24> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, i * 1315423911ull, ~i};

  em::block_device payload(n * 3, 4096);
  core::write_records_streamed(payload, reinterpret_cast<const unsigned char*>(recs.data()),
                               n, 24, m);
  em::block_device pi_dev(n, 4096);
  core::fill_iota_streamed(pi_dev, n, m);

  std::vector<rec24> out(n);
  core::gather_records_streamed(pi_dev, payload, reinterpret_cast<unsigned char*>(out.data()),
                                n, 24, m);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i].a, recs[i].a) << "record " << i;
    ASSERT_EQ(out[i].b, recs[i].b) << "record " << i;
    ASSERT_EQ(out[i].c, recs[i].c) << "record " << i;
  }
}

TEST(BackendEmApply, WideRecordShuffleMatchesIndexGatherOnB4096) {
  // The dispatch-level contract for 24-byte records on the default
  // B = 4096 geometry, with n > M so the real multi-level out-of-core
  // engine runs: shuffle(data) == gather(data, fill_random_permutation)
  // under the same seed (value-independence), and the payload survives
  // bit for bit.
  const std::uint64_t n = 50'000;
  const std::uint64_t seed = 24242424;
  cgp::context_options copt;
  copt.which = core::backend::em;
  copt.parallelism = 2;
  copt.engine.em_block_items = 4096;
  copt.engine.em_engine.memory_items = 4 * 4096;  // M < n: forces distribution levels
  const cgp::context ctx(copt);
  const core::backend_options o = ctx.execution_options();
  const auto cfg = core::resolve_em_config(core::resolve_plan(n, 24, o), o);
  em::async_report report;

  std::vector<rec24> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, i ^ 0xDEADBEEFull, i + 7};
  std::vector<rec24> shuffled = recs;
  core::em_executor(cfg.aopt, cfg.block_items, *cfg.pool, &report)
      .shuffle(std::span<rec24>(shuffled), seed);
  EXPECT_GE(report.levels, 1u);

  const std::vector<std::uint64_t> pi = ctx.random_permutation(n, seed);
  ASSERT_TRUE(stats::is_permutation_of_iota(pi));
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(shuffled[i].a, recs[pi[i]].a) << "record " << i;
    ASSERT_EQ(shuffled[i].b, recs[pi[i]].b) << "record " << i;
    ASSERT_EQ(shuffled[i].c, recs[pi[i]].c) << "record " << i;
  }
}

}  // namespace
