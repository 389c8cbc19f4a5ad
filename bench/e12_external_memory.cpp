// E12 (extension) -- the paper's closing outlook, quantified: "In view of
// the idea to use efficient coarse grained algorithms also for the context
// of external memory (Cormen & Goodrich 1996, Dehne et al. 1997) ... there
// is also hope that the parallel algorithms can give rise to sequential
// algorithms and implementations that avoid part of the cache misses of
// the straight forward algorithm."
//
// In the I/O model the effect is dramatic rather than subtle: the
// coarse-grained out-of-core shuffle needs O((n/B) log_{M/B}(n/M)) block
// transfers while the straightforward Fisher-Yates through a buffer pool
// needs Theta(n).  Two engines are tabulated across n and (M, B):
//
//   * naive -- Fisher-Yates through an LRU pool (em/naive_shuffle.hpp,
//     Theta(n) transfers);
//   * async -- the out-of-core engine (em/async_shuffle.hpp): index-keyed
//     labels need no label device, ~2-3 transfers per block per pass.
//
// The speedup over naive must grow ~linearly in B (items per block) --
// exactly the I/O-model gap the outlook predicts.
//
// Output: the paper-style table on stdout plus machine-readable
// BENCH_em.json records so the out-of-core perf trajectory is trackable
// across commits.
//
// Usage: e12_external_memory [json_path]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "em/naive_shuffle.hpp"
#include "rng/philox.hpp"
#include "smp/thread_pool.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {
using namespace cgp;

void fill_iota(em::block_device& dev, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_em.json";

  std::cout << "E12 (extension): external-memory shuffle -- async out-of-core engine\n"
               "vs naive Fisher-Yates through an LRU pool\n\n";

  table t({"n", "B (items)", "M (items)", "naive transfers", "async transfers", "async/block",
           "levels", "async vs naive"});

  rng::philox4x64 e(0xE12, 0);
  // Pinned pool size: chunking follows pool.size(), and each chunk pays up
  // to 2 boundary-RMW transfers per bucket per level, so a hardware-sized
  // pool would make the tracked transfer counts machine-dependent.
  smp::thread_pool pool(4);
  std::vector<json_record> out;
  for (const std::uint64_t n : {1ull << 13, 1ull << 15, 1ull << 17}) {
    for (const std::uint32_t b : {16u, 64u}) {
      const std::uint64_t mem = 16ull * b;  // M/B = 16 frames

      em::block_device dev1(n, b);
      fill_iota(dev1, n);
      const auto naive = em::naive_em_fisher_yates(e, dev1, n, 16);

      em::block_device dev2(n, b);
      fill_iota(dev2, n);
      em::async_options opt;
      opt.memory_items = mem;
      const auto async = em::async_em_shuffle(dev2, n, 0xE12 ^ n ^ b, pool, opt);

      const double vs_naive = static_cast<double>(naive.block_transfers) /
                              static_cast<double>(async.block_transfers);
      t.add_row({fmt_count(n), std::to_string(b), fmt_count(mem), fmt_count(naive.block_transfers),
                 fmt_count(async.block_transfers),
                 fmt(static_cast<double>(async.block_transfers) / (static_cast<double>(n) / b), 1),
                 std::to_string(async.levels), fmt(vs_naive, 1) + "x"});

      for (const auto& [engine, rep_transfers, rep_levels, rep_rng] :
           {std::tuple{"naive_em_fisher_yates", naive.block_transfers, naive.levels,
                       naive.rng_words},
            std::tuple{"em_async", async.block_transfers, async.levels, async.rng_words}}) {
        json_record rec;
        rec.add("bench", "e12_external_memory")
            .add("engine", engine)
            .add("n", n)
            .add("block_items", b)
            .add("memory_items", mem)
            .add("block_transfers", rep_transfers)
            .add("levels", rep_levels)
            .add("rng_words", rep_rng)
            .add("transfers_per_item", static_cast<double>(rep_transfers) / static_cast<double>(n))
            .add("speedup_vs_naive", static_cast<double>(naive.block_transfers) /
                                         static_cast<double>(rep_transfers));
        out.push_back(std::move(rec));
      }
    }
  }
  t.print(std::cout);

  std::cout << "\nShape checks: the async engine needs ~2-3 transfers per block per pass\n"
               "(no label device: labels are Philox functions of (seed, level, bucket,\n"
               "index) and are recomputed, never stored), the naive baseline ~2 per ITEM\n"
               "once n >> M -- so async/naive grows ~linearly with B, the I/O-model gap\n"
               "between Theta(n) and O((n/B) log_{M/B}(n/M)).\n";
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return 0;
}
