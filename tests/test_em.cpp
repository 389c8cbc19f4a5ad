// Tests for the external-memory substrate and the naive external
// baseline: device and buffer-pool semantics, and the Theta(n) transfer
// cost of Fisher-Yates through a buffer pool once n >> M.  The
// out-of-core engine itself is tested in tests/test_em_async.cpp.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "em/block_device.hpp"
#include "em/naive_shuffle.hpp"
#include "rng/philox.hpp"
#include "stats/lehmer.hpp"

namespace {

using namespace cgp;

// --- block device ---------------------------------------------------------------

TEST(BlockDevice, ReadWriteRoundTrip) {
  em::block_device dev(100, 8);
  EXPECT_EQ(dev.block_count(), 13u);  // ceil(100/8)
  std::vector<std::uint64_t> blk(8);
  std::iota(blk.begin(), blk.end(), 40);
  dev.write_block(5, blk);
  std::vector<std::uint64_t> got(8);
  dev.read_block(5, got);
  EXPECT_EQ(got, blk);
  EXPECT_EQ(dev.stats().block_reads, 1u);
  EXPECT_EQ(dev.stats().block_writes, 1u);
}

TEST(BlockDevice, PokePeekBypassAccounting) {
  em::block_device dev(16, 4);
  dev.poke(7, 99);
  EXPECT_EQ(dev.peek(7), 99u);
  EXPECT_EQ(dev.stats().transfers(), 0u);
}

TEST(BufferPool, CachesAndEvictsLru) {
  em::block_device dev(64, 4);  // 16 blocks
  for (std::uint64_t i = 0; i < 64; ++i) dev.poke(i, i);
  em::buffer_pool pool(dev, 2);

  EXPECT_EQ(pool.read_item(0), 0u);   // miss: block 0
  EXPECT_EQ(pool.read_item(1), 1u);   // hit
  EXPECT_EQ(pool.read_item(4), 4u);   // miss: block 1
  EXPECT_EQ(pool.read_item(2), 2u);   // hit (block 0 still resident)
  EXPECT_EQ(pool.read_item(8), 8u);   // miss: evicts LRU = block 1
  EXPECT_EQ(pool.read_item(5), 5u);   // miss again (block 1 was evicted)
  EXPECT_EQ(pool.stats().cache_hits, 2u);
  EXPECT_EQ(pool.stats().block_reads, 4u);
}

TEST(BufferPool, WriteBackOnEvictionAndFlush) {
  em::block_device dev(16, 4);
  {
    em::buffer_pool pool(dev, 1);
    pool.write_item(0, 111);
    pool.write_item(5, 222);  // evicts dirty block 0 -> write-back
    EXPECT_EQ(dev.peek(0), 111u);
    EXPECT_EQ(dev.peek(5), 0u);  // block 1 still dirty in pool
  }  // destructor flushes
  EXPECT_EQ(dev.peek(5), 222u);
}

TEST(BufferPool, SequentialScanCostsOneReadPerBlock) {
  em::block_device dev(256, 8);
  em::buffer_pool pool(dev, 4);
  for (std::uint64_t i = 0; i < 256; ++i) (void)pool.read_item(i);
  EXPECT_EQ(pool.stats().block_reads, 32u);  // 256/8
  EXPECT_EQ(pool.stats().cache_hits, 256u - 32u);
}

// --- naive external shuffle ------------------------------------------------------

TEST(NaiveEmShuffle, PreservesMultisetAndShuffles) {
  rng::philox4x64 e(5, 0);
  const std::uint64_t n = 512;
  em::block_device dev(n, 8);
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
  (void)em::naive_em_fisher_yates(e, dev, n, /*frames=*/4);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = dev.peek(i);
  EXPECT_TRUE(stats::is_permutation_of_iota(out));
  EXPECT_NE(out.front(), 0u);  // astronomically unlikely to be untouched
}

TEST(EmIo, NaiveBaselinePaysPerItemOnceCold) {
  // n >> M: almost every swap touches a cold block of the 16-frame pool,
  // ~one transfer per item.
  rng::philox4x64 e(7, 0);
  const std::uint64_t n = 8192;
  const std::uint32_t b = 64;

  em::block_device dev(n, b);
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
  const auto naive = em::naive_em_fisher_yates(e, dev, n, 16);
  EXPECT_GT(naive.block_transfers, n / 2) << "cold pool must miss on most swaps";
}

}  // namespace
