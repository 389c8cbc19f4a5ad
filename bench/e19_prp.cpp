// E19 -- the cipher backend's economics: what one prp evaluation costs
// (scalar pi() vs the batched eval_range() keystream path) and WHERE the
// O(1)-memory backend beats the materializing engines.
//
// The prp backend never builds pi: it answers pi(i) by running a keyed
// swap-or-not cipher, so its cost is per-EVALUATION while every other
// backend's is per-ITEM of the whole domain.  That trade has a crossover:
//
//   t_prp(f)        ~= reps * f * n * eval_ns        (f = accessed fraction)
//   t_materialize   ~= reps * n * item_ns            (seq / smp / em)
//
// For sparse access (f << item_ns/eval_ns) prp wins by orders of
// magnitude -- and the win is per DRAW: repeated draws re-key the cipher
// for free where materializing backends rebuild from scratch.  This bench
// measures eval_ns both ways (scalar vs batched), measures the
// materializing backends' item_ns at a probe size (projecting to the
// target domain, so the bench runs on small machines -- projected rows
// are labeled), and sweeps f x reps to locate the crossover at
// n = 10^8, the scale the acceptance bar names.
//
// Acceptance: for every accessed fraction <= 1% the prp draw must be
// cheaper than the BEST materializing backend at n = 10^8 (exit 2
// otherwise -- "measured, out of tolerance", like e2/e15/e20).
//
// Output: tables on stdout plus BENCH_prp.json (per-eval records, one
// record per backend probe, one per (fraction, reps) cell, one summary
// with `crossover_demonstrated`).
//
// Usage: e19_prp [mode] [json_path]   mode: full (default) | small
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/context.hpp"
#include "core/executor.hpp"
#include "prp/cipher.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace cgp;

constexpr std::uint64_t kSeed = 0xE19;

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_prp.json";
  const bool small = mode == "small";

  // The acceptance domain: far past any RAM-friendly pi on this class of
  // container, yet free for the cipher (its state is O(1)).
  const std::uint64_t n_target = 100'000'000;
  const std::uint64_t probe_n = small ? (std::uint64_t{1} << 21) : (std::uint64_t{1} << 22);
  const std::uint64_t scalar_evals = small ? (std::uint64_t{1} << 17) : (std::uint64_t{1} << 19);
  const std::uint64_t batched_evals = small ? (std::uint64_t{1} << 20) : (std::uint64_t{1} << 22);
  const int reps = small ? 2 : 3;

  std::cout << "E19: prp cipher backend -- per-eval cost and the crossover vs the\n"
               "materializing engines at n = "
            << fmt_count(n_target) << " (probe " << fmt_count(probe_n) << ", best of " << reps
            << ")\n\n";

  std::vector<json_record> out;

  // --- part A: per-eval cost, scalar vs batched -------------------------
  const prp::cipher cipher(kSeed, n_target);

  volatile std::uint64_t sink = 0;
  const double scalar_s = best_of(reps, [&](int) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < scalar_evals; ++i) acc ^= cipher.pi(i * 977 % n_target);
    sink = acc;
  });
  const double scalar_ns = scalar_s * 1e9 / static_cast<double>(scalar_evals);

  std::vector<std::uint64_t> buf(std::size_t{1} << 16);
  const double batched_s = best_of(reps, [&](int) {
    std::uint64_t done = 0;
    while (done < batched_evals) {
      const std::uint64_t take = std::min<std::uint64_t>(buf.size(), batched_evals - done);
      cipher.eval_range(done, std::span<std::uint64_t>(buf.data(), take));
      done += take;
    }
    sink = buf[0];
  });
  const double batched_ns = batched_s * 1e9 / static_cast<double>(batched_evals);

  // Re-key cost: what one fresh draw pays before its first evaluation.
  const double construct_s = best_of(reps, [&](int r) {
    const prp::cipher c(kSeed + static_cast<std::uint64_t>(r), n_target);
    sink = c.pi(0);
  });

  table ta({"path", "evals", "ns/eval"});
  ta.add_row({"scalar pi(i)", fmt_count(scalar_evals), fmt(scalar_ns, 2)});
  ta.add_row({"batched eval_range", fmt_count(batched_evals), fmt(batched_ns, 2)});
  ta.print(std::cout);
  std::cout << "batched speedup: " << fmt(scalar_ns / batched_ns, 2)
            << "x; re-key (construct) cost: " << fmt(construct_s * 1e6, 2) << " us\n\n";

  for (const auto& [path, evals, ns] :
       {std::tuple{"scalar", scalar_evals, scalar_ns},
        std::tuple{"batched", batched_evals, batched_ns}}) {
    json_record rec;
    rec.add("bench", "e19_prp")
        .add("mode", mode)
        .add("section", "per_eval")
        .add("path", path)
        .add("n", n_target)
        .add("evals", evals)
        .add("ns_per_eval", ns);
    out.push_back(std::move(rec));
  }

  // --- part B: materializing backends' per-item rate --------------------
  // Measured at probe_n (a size every backend can materialize quickly),
  // projected linearly to n_target.  Linear projection UNDERSTATES the
  // true cost of seq/smp at 10^8 (cache misses grow past the probe) and
  // em pays I/O on top, so the crossover verdict below is conservative:
  // if prp beats the projections it beats the real thing.
  struct probe {
    const char* name;
    core::backend which;
  };
  const probe probes[] = {
      {"seq", core::backend::sequential},
      {"smp", core::backend::smp},
      {"em", core::backend::em},
  };

  table tb({"backend", "probe n", "T_probe [s]", "ns/item", "T @ 1e8 [s] (projected)"});
  double best_item_ns = 1e300;
  for (const probe& p : probes) {
    context_options copt;
    copt.which = p.which;
    const cgp::context ctx(copt);
    const double s = best_of(reps, [&](int r) {
      (void)ctx.random_permutation(probe_n, kSeed + static_cast<std::uint64_t>(r));
    });
    const double item_ns = s * 1e9 / static_cast<double>(probe_n);
    const double projected = item_ns * static_cast<double>(n_target) * 1e-9;
    best_item_ns = std::min(best_item_ns, item_ns);
    tb.add_row({p.name, fmt_count(probe_n), fmt(s, 4), fmt(item_ns, 2), fmt(projected, 3)});
    json_record rec;
    rec.add("bench", "e19_prp")
        .add("mode", mode)
        .add("section", "materializer")
        .add("backend", p.name)
        .add("probe_n", probe_n)
        .add("seconds", s)
        .add("ns_per_item", item_ns)
        .add("projected_seconds_at_target", projected)
        .add("projected", true);
    out.push_back(std::move(rec));
  }
  tb.print(std::cout);
  std::cout << "\n";

  // --- part C: the crossover sweep, f x reps at n = 10^8 ----------------
  // prp rows are MEASURED wherever f * n fits the direct budget (sparse
  // fractions are exactly where evals are few) and projected from the
  // batched rate beyond it; materializer cost is the best backend's
  // projection.  Draws scale both sides linearly -- the reps column shows
  // the absolute gap compounding: every extra draw re-keys the cipher
  // (microseconds) where the materializers rebuild the full domain.
  const std::uint64_t direct_cap = small ? (std::uint64_t{1} << 20) : (std::uint64_t{1} << 23);
  const double materialize_draw_s = best_item_ns * static_cast<double>(n_target) * 1e-9;

  table tc({"accessed f", "draws", "prp [s]", "best materializer [s]", "prp wins", "prp"});
  bool crossover_demonstrated = true;
  bool prp_loses_somewhere = false;
  for (const double f : {1e-4, 1e-3, 1e-2, 0.1, 1.0}) {
    const std::uint64_t evals = static_cast<std::uint64_t>(f * static_cast<double>(n_target));
    double prp_draw_s = 0.0;
    bool measured = false;
    if (evals <= direct_cap) {
      measured = true;
      prp_draw_s = best_of(reps, [&](int r) {
        const prp::cipher c(kSeed + 100 + static_cast<std::uint64_t>(r), n_target);
        std::uint64_t done = 0;
        while (done < evals) {
          const std::uint64_t take = std::min<std::uint64_t>(buf.size(), evals - done);
          c.eval_range(done, std::span<std::uint64_t>(buf.data(), take));
          done += take;
        }
        if (evals != 0) sink = buf[0];
      });
    } else {
      prp_draw_s = construct_s + static_cast<double>(evals) * batched_ns * 1e-9;
    }
    for (const std::uint64_t draws : {std::uint64_t{1}, std::uint64_t{100}}) {
      const double t_prp = static_cast<double>(draws) * prp_draw_s;
      const double t_mat = static_cast<double>(draws) * materialize_draw_s;
      const bool wins = t_prp < t_mat;
      if (f <= 0.01 && !wins) crossover_demonstrated = false;
      if (!wins) prp_loses_somewhere = true;
      tc.add_row({fmt(f, 4), fmt_count(draws), fmt(t_prp, 4), fmt(t_mat, 3),
                  wins ? "yes" : "no", measured ? "measured" : "projected"});
      json_record rec;
      rec.add("bench", "e19_prp")
          .add("mode", mode)
          .add("section", "crossover")
          .add("n", n_target)
          .add("accessed_fraction", f)
          .add("draws", draws)
          .add("prp_seconds", t_prp)
          .add("materializer_seconds", t_mat)
          .add("prp_measured", measured)
          .add("prp_wins", wins);
      out.push_back(std::move(rec));
    }
  }
  tc.print(std::cout);

  std::cout << "\ncrossover at n = " << fmt_count(n_target) << ": prp wins every f <= 1% cell: "
            << (crossover_demonstrated ? "yes" : "NO") << "; materializers win dense access: "
            << (prp_loses_somewhere ? "yes" : "no (prp won everywhere)") << "\n";

  json_record summary;
  summary.add("bench", "e19_prp")
      .add("mode", mode)
      .add("section", "summary")
      .add("n", n_target)
      .add("scalar_ns_per_eval", scalar_ns)
      .add("batched_ns_per_eval", batched_ns)
      .add("batched_speedup", scalar_ns / batched_ns)
      .add("best_materializer_ns_per_item", best_item_ns)
      .add("crossover_demonstrated", crossover_demonstrated);
  out.push_back(std::move(summary));
  if (write_json_records(json_path, out)) {
    std::cout << "wrote " << out.size() << " records to " << json_path << "\n";
  }
  return crossover_demonstrated ? 0 : 2;
}
