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
// One more row times the engine where a service spends it: the wire
// streams' build, core::em_shuffled_identity_device of 3,000,000 items at
// M = 2 Mi and B = 4,096 (one level, K = 256) on a 4-worker pool.  It
// reports the process CPU time per item of 15 builds (median and
// quartiles, after 2 warm-ups; the device is freed outside the timed
// window) with the build's transfers and random words.  This is the em
// layer's number for the wire_tenants workload, whose traced
// `em.ns_per_item` samples only two replays.
//
// Output: the paper-style table on stdout plus machine-readable
// BENCH_em.json records so the out-of-core perf trajectory is trackable
// across commits.
//
// Usage: e12_external_memory [json_path]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "em/naive_shuffle.hpp"
#include "rng/philox.hpp"
#include "smp/thread_pool.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {
using namespace cgp;

void fill_iota(em::block_device& dev, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
}

/// The wire-stream row: process CPU ns/item of 15 permutation builds.
json_record stream_row() {
  constexpr std::uint64_t n = 3'000'000;
  constexpr int trials = 15;
  smp::thread_pool pool(4);
  core::em_exec_config cfg;
  cfg.aopt.memory_items = std::uint64_t{1} << 21;
  cfg.block_items = 4096;
  cfg.pool = &pool;
  em::async_report rep;
  for (int w = 0; w < 2; ++w) (void)core::em_shuffled_identity_device(n, 0xE12, cfg, &rep);
  std::vector<double> ns;
  for (int t = 0; t < trials; ++t) {
    em::async_report r;
    const double t0 = process_cpu_seconds();
    auto dev = core::em_shuffled_identity_device(n, 0xE12, cfg, &r);
    ns.push_back((process_cpu_seconds() - t0) * 1e9 / static_cast<double>(n));
    dev.reset();
    CGP_ASSERT(r.block_transfers == rep.block_transfers && r.rng_words == rep.rng_words);
  }
  std::sort(ns.begin(), ns.end());
  const double q1 = ns[trials / 4];
  const double median = ns[trials / 2];
  const double q3 = ns[3 * trials / 4];
  std::cout << "\nWire-stream build (n = 3,000,000, M = 2 Mi, B = 4,096, K = 256, 4 workers):\n"
            << "  process CPU ns/item median " << fmt(median, 2) << " [" << fmt(q1, 2) << ", "
            << fmt(q3, 2) << "] over " << trials << " builds; " << rep.levels << " level, "
            << rep.block_transfers << " transfers, " << rep.rng_words << " random words\n";
  json_record rec;
  rec.add("bench", "e12_external_memory")
      .add("engine", "em_permutation_stream")
      .add("n", n)
      .add("block_items", cfg.block_items)
      .add("memory_items", cfg.aopt.memory_items)
      .add("pool", std::uint32_t{4})
      .add("trials", trials)
      .add("cpu_ns_per_item_median", median)
      .add("cpu_ns_per_item_q1", q1)
      .add("cpu_ns_per_item_q3", q3)
      .add("block_transfers", rep.block_transfers)
      .add("levels", rep.levels)
      .add("rng_words", rep.rng_words)
      .add("transfers_per_item",
           static_cast<double>(rep.block_transfers) / static_cast<double>(n));
  return rec;
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
               "index), so no label ever costs a transfer), the naive baseline ~2 per\n"
               "ITEM once n >> M -- so async/naive grows ~linearly with B, the I/O-model\n"
               "gap between Theta(n) and O((n/B) log_{M/B}(n/M)).\n";
  out.push_back(stream_row());
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return 0;
}
