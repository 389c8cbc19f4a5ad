// smp_shuffle: the native shared-memory engine in 30 seconds, and the
// context that picks between it and the sequential reference.
//
//   $ ./smp_shuffle
//
// The engine runs the paper's recursive hypergeometric split with real
// threads (src/smp/); same uniformity guarantee as the CGM pipeline, none
// of the simulation overhead.  For a fixed seed the permutation is
// bit-identical for ANY thread count -- scale the pool without changing
// results.
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main() {
  // Direct use: an engine with 4 worker threads.
  cgp::smp::engine_options opt;
  opt.threads = 4;
  cgp::smp::engine engine(opt);

  std::vector<std::uint64_t> data(32);
  std::iota(data.begin(), data.end(), 0);
  const std::vector<std::uint64_t> shuffled = engine.permute(data, /*seed=*/2026);

  std::cout << "input : ";
  for (const auto v : data) std::cout << v << ' ';
  std::cout << "\noutput: ";
  for (const auto v : shuffled) std::cout << v << ' ';
  std::cout << "\n\n";

  // Determinism: 1 thread and 4 threads, same seed, same permutation.
  cgp::smp::engine_options one;
  one.threads = 1;
  cgp::smp::engine single(one);
  std::cout << "bit-identical at p=1 and p=4: "
            << (single.permute(data, 2026) == shuffled ? "yes" : "NO (bug!)") << "\n\n";

  // One entry point, two engines plus the planner: a context per
  // backend.  The SMP engine just goes fast; `automatic` lets the cost
  // model pick.  Repeated calls share warm thread pools through the
  // process-wide registry.
  const std::uint64_t n = 2'000'000;
  cgp::table t({"backend", "T [ms]", "note"});
  for (const auto which : {cgp::core::backend::sequential, cgp::core::backend::smp,
                           cgp::core::backend::automatic}) {
    cgp::context_options copt;
    copt.which = which;
    copt.parallelism = 4;
    const cgp::context ctx(copt);
    cgp::stopwatch sw;
    const auto pi = ctx.random_permutation(n, /*seed=*/7);
    const double ms = sw.millis();
    // plan_for names the plan the draw ran: resolve_plan is deterministic.
    const auto chosen = ctx.plan_for(n, sizeof(std::uint64_t)).chosen;
    t.add_row({cgp::core::backend_name(which), cgp::fmt(ms, 1),
               which == cgp::core::backend::smp ? "native threads"
               : which == cgp::core::backend::automatic
                   ? std::string("planner picked ") + cgp::core::backend_name(chosen)
                   : "Fisher-Yates reference"});
  }
  std::cout << "uniform permutation of " << cgp::fmt_count(n) << " items:\n";
  t.print(std::cout);

  // The plan is explainable: ask the planner what it would do and why.
  cgp::core::workload w;
  w.n = n;
  std::cout << "\n" << cgp::core::plan_permutation(w).explain();
  return 0;
}
