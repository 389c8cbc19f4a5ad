// E2 -- the paper's introduction measurements, retargeted at the SIMD pass:
// "to permute a vector of long int's, we observed an average cost per item
// of about 60 to 100 clock cycles ... the running time of a permutation
// program is more or less bound to the cpu-memory bandwidth".
//
// The per-item cost of the split kernels decomposes into keystream
// arithmetic (one Philox word per label) and the scatter's random-access
// memory traffic -- the two halves the paper's 60..100 cycles split into
// "arithmetic" and "memory-bound".  This bench measures both halves before
// and after the SIMD keystream optimizations.  Each pair of sides runs in
// alternating trials, each run timed in the thread's CPU time, and is
// compared by medians (cgp::alternating_medians): the gate then measures
// the code, not how busy the host was while one side ran.
//
//   * keystream: raw philox4x64_batch words/ns, scalar kernel vs the active
//     SIMD kernel (the pure-arithmetic half);
//   * labels: label draws (word & mask) through the scalar philox4x64
//     engine vs rng::batched_philox -- the ACCEPTANCE metric: the batched
//     path must be >= 2x on SIMD-capable hardware;
//   * fisher-yates: seq::fisher_yates with scalar vs batched engine at a
//     RAM-resident size (arithmetic win diluted by the memory-bound half);
//   * scatter: the split kernel's cursor scatter (the memory half).
//
// Output: a table on stdout plus BENCH_simd.json (one record per kernel:
// median CPU seconds, ns_per_item, cycles_per_item; one summary record with the
// speedups and the pass/fail verdict).  Exit 0 = vector path present and
// batched labels >= 2x scalar; exit 2 = "measured, out of tolerance or
// scalar-only hardware" (CI treats 2 as soft, like e15/e19/e20).
//
// Usage: e2_per_item_cost [mode] [json_path]   mode: full (default) | small
#include <cstdint>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "seq/fisher_yates.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace cgp;

struct result {
  std::string kernel;
  std::uint64_t n = 0;  // items (words, labels, or elements) per rep
  double seconds = 0.0;
};

/// The split kernel's scatter loop (smp/parallel_split.hpp), isolated:
/// stream items to per-label cursors.
void scatter_once(const std::vector<std::uint8_t>& label, const std::vector<std::uint64_t>& items,
                  std::vector<std::uint64_t>& cursor_init, std::vector<std::uint64_t>& scratch) {
  std::vector<std::uint64_t> cursor = cursor_init;
  for (std::size_t i = 0; i < items.size(); ++i) {
    scratch[static_cast<std::size_t>(cursor[label[i]]++)] = items[i];
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_simd.json";
  const bool small = mode == "small";
  const std::uint64_t n_words = small ? (1ull << 22) : (1ull << 24);  // keystream / label draws
  const std::uint64_t n_items = small ? (1ull << 21) : (1ull << 23);  // fisher-yates / scatter
  const int trials = small ? 9 : 15;
  constexpr double kMinSpeedup = 2.0;
  constexpr std::uint32_t kFan = 16;  // the default split fan-out

  const rng::simd_path hw = rng::detected_simd_path();
  const rng::simd_path active = rng::active_simd_path();
  std::cout << "E2: per-item cost of the split kernels (paper intro: 60..100 cycles/item,\n"
            << "33..80% memory-bound).  simd: detected=" << rng::simd_path_name(hw)
            << " active=" << rng::simd_path_name(active) << ", thread CPU time, median of "
            << trials << " alternating trials\n\n";

  std::vector<result> results;
  const auto add = [&](std::string kernel, std::uint64_t n, double seconds) {
    results.push_back({std::move(kernel), n, seconds});
  };

  // --- keystream: raw batch generation, scalar kernel vs active kernel ---
  const auto key = rng::philox4x64::derive_key(0xE2, 0);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n_words));
  const auto keystream = [&](rng::simd_path path) {
    // One kernel call per engine-sized batch, like the hot loops refill.
    constexpr std::uint64_t kBlocks = rng::batched_philox::kBatchBlocks;
    rng::philox4x64::block_type ctr{};
    for (std::uint64_t at = 0; at + 4 * kBlocks <= n_words; at += 4 * kBlocks) {
      rng::philox4x64_batch_on(path, ctr, key, kBlocks, words.data() + at);
      ctr[0] += kBlocks;
    }
  };
  const auto [key_scalar, key_vector] = alternating_medians(
      trials, thread_cpu_seconds, [&](int) { keystream(rng::simd_path::scalar); },
      [&](int) { keystream(active); });
  add("keystream scalar", n_words, key_scalar);
  add(std::string("keystream ") + rng::simd_path_name(active), n_words, key_vector);

  // --- label draws: scalar engine vs batched engine (acceptance metric) --
  const auto labels_scalar = [&](int r) {
    rng::philox4x64 e(0xE2, static_cast<std::uint64_t>(r));
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n_words; ++i) acc += e() & (kFan - 1);
    if (acc == 0xDEAD) std::cout << "";  // keep the loop observable
  };
  const auto labels_batched = [&](int r) {
    rng::batched_philox e(0xE2, static_cast<std::uint64_t>(r));
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n_words; ++i) acc += e() & (kFan - 1);
    if (acc == 0xDEAD) std::cout << "";
  };
  const auto [lab_scalar, lab_batched] =
      alternating_medians(trials, thread_cpu_seconds, labels_scalar, labels_batched);
  add("labels scalar engine", n_words, lab_scalar);
  add("labels batched engine", n_words, lab_batched);

  // --- fisher-yates: the full shuffle with each engine -------------------
  std::vector<std::uint64_t> data(static_cast<std::size_t>(n_items));
  std::iota(data.begin(), data.end(), 0);
  const auto [fy_scalar, fy_batched] = alternating_medians(
      trials, thread_cpu_seconds,
      [&](int r) {
        rng::philox4x64 e(0xE2, static_cast<std::uint64_t>(r));
        seq::fisher_yates(e, std::span<std::uint64_t>(data));
      },
      [&](int r) {
        rng::batched_philox e(0xE2, static_cast<std::uint64_t>(r));
        seq::fisher_yates(e, std::span<std::uint64_t>(data));
      });
  add("fisher-yates scalar engine", n_items, fy_scalar);
  add("fisher-yates batched engine", n_items, fy_batched);

  // --- scatter: split-kernel cursor scatter ------------------------------
  std::vector<std::uint8_t> label(static_cast<std::size_t>(n_items));
  {
    rng::batched_philox e(0xE2B);
    for (auto& l : label) l = static_cast<std::uint8_t>(e() & (kFan - 1));
  }
  std::vector<std::uint64_t> counts(kFan, 0);
  for (const auto l : label) ++counts[l];
  std::vector<std::uint64_t> cursor_init(kFan, 0);
  for (std::uint32_t j = 1; j < kFan; ++j) cursor_init[j] = cursor_init[j - 1] + counts[j - 1];
  std::vector<std::uint64_t> scratch(static_cast<std::size_t>(n_items));
  add("scatter", n_items,
      alternating_medians(trials, thread_cpu_seconds, [&](int) {
        scatter_once(label, data, cursor_init, scratch);
      })[0]);

  // --- report ------------------------------------------------------------
  const double hz = estimated_cpu_hz();
  table t({"kernel", "n", "T [s]", "ns/item", "cycles/item"});
  std::vector<json_record> out;
  for (const auto& r : results) {
    const double ns_item = r.seconds * 1e9 / static_cast<double>(r.n);
    const double cyc_item = r.seconds * hz / static_cast<double>(r.n);
    t.add_row({r.kernel, fmt_count(r.n), fmt(r.seconds, 4), fmt(ns_item, 2), fmt(cyc_item, 1)});
    json_record rec;
    rec.add("bench", "e2_per_item_cost")
        .add("mode", mode)
        .add("kernel", r.kernel)
        .add("n", r.n)
        .add("seconds", r.seconds)
        .add("ns_per_item", ns_item)
        .add("cycles_per_item", cyc_item);
    out.push_back(std::move(rec));
  }
  t.print(std::cout);

  const double keystream_speedup = key_vector > 0.0 ? key_scalar / key_vector : 0.0;
  const double label_speedup = lab_batched > 0.0 ? lab_scalar / lab_batched : 0.0;
  const double fy_speedup = fy_batched > 0.0 ? fy_scalar / fy_batched : 0.0;
  const bool scalar_only = hw == rng::simd_path::scalar || active == rng::simd_path::scalar;
  const bool pass = !scalar_only && label_speedup >= kMinSpeedup;

  std::cout << "\nspeedups: keystream x" << fmt(keystream_speedup, 2) << ", batched labels x"
            << fmt(label_speedup, 2) << " (gate: >= x" << fmt(kMinSpeedup, 1)
            << "), fisher-yates x" << fmt(fy_speedup, 2) << "\n";
  if (scalar_only) {
    std::cout << "scalar-only configuration (no vector kernel for this host / CGP_SIMD=off): "
                 "speedup gate not applicable, exiting 2\n";
  } else if (!pass) {
    std::cout << "batched label speedup below gate, exiting 2\n";
  }

  json_record summary;
  summary.add("bench", "e2_per_item_cost")
      .add("mode", mode)
      .add("kernel", "summary")
      .add("simd_detected", rng::simd_path_name(hw))
      .add("simd_active", rng::simd_path_name(active))
      .add("keystream_speedup", keystream_speedup)
      .add("batched_label_speedup", label_speedup)
      .add("fisher_yates_speedup", fy_speedup)
      .add("min_speedup", kMinSpeedup)
      .add("scalar_only", scalar_only)
      .add("pass", pass);
  out.push_back(std::move(summary));
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return pass ? 0 : 2;
}
