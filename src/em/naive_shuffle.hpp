// em/naive_shuffle.hpp
//
// The external-memory baseline the paper's Section 6 outlook warns about:
// the textbook Fisher-Yates run through an LRU buffer pool in the
// Aggarwal-Vitter I/O model (n items, M items of memory, B items per
// block).  Once n >> M almost every swap touches a cold block: Theta(n)
// transfers, against the O((n/B) log_K(n/M)) of the coarse-grained
// out-of-core engine (em/async_shuffle.hpp).  Bench e12 tabulates the
// two across (n, M, B), and tests/test_em_async.cpp asserts the gap.
#pragma once

#include <cstdint>

#include "em/block_device.hpp"
#include "rng/engine.hpp"
#include "rng/uniform.hpp"
#include "util/assert.hpp"

namespace cgp::em {

/// Outcome of the naive external shuffle.
struct em_report {
  std::uint64_t block_transfers = 0;  ///< total device reads + writes
  std::uint32_t levels = 0;           ///< always 0: the baseline has no distribution levels
  std::uint64_t rng_words = 0;        ///< random words consumed
};

/// The baseline: textbook Fisher-Yates through an LRU buffer pool of
/// `frames` blocks.  Theta(n) transfers once n >> frames * B.
template <rng::random_engine64 Engine>
[[nodiscard]] em_report naive_em_fisher_yates(Engine& engine, block_device& dev, std::uint64_t n,
                                              std::uint32_t frames) {
  CGP_EXPECTS(n <= dev.item_capacity());
  em_report report;
  const std::uint64_t before = dev.stats().transfers();
  {
    buffer_pool pool(dev, frames);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = rng::uniform_below(engine, i);
      ++report.rng_words;
      const std::uint64_t a = pool.read_item(i - 1);
      const std::uint64_t bv = pool.read_item(j);
      pool.write_item(i - 1, bv);
      pool.write_item(j, a);
    }
    // pool flushes on destruction
  }
  report.block_transfers = dev.stats().transfers() - before;
  return report;
}

}  // namespace cgp::em
