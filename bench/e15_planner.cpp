// E15 -- planner agreement: does backend::automatic pick the backend that
// actually measures fastest?
//
// The paper's Section 6 message is that the best algorithm depends on the
// regime: matrix sampling / fixed overheads dominate small n, memory
// traffic dominates large RAM-resident n, and the out-of-core variant is
// the only feasible choice for n >> M.  The plan/executor core
// (core/plan.hpp) encodes those regimes in a calibrated cost model; this
// bench sweeps n across all three regimes, runs the planner against a
// machine_profile::calibrate() probe, measures every feasible backend,
// and tabulates predicted-vs-fastest agreement.  A row agrees when the
// planner's choice is the measured-fastest backend or within 10% of it.
//
// Output: a table on stdout plus BENCH_plan.json (one record per row:
// regime, n, budget, chosen, fastest, per-backend seconds, agreement)
// and a trailing summary record with the agreement rate.
//
// Usage: e15_planner [mode] [json_path]   mode: full (default) | small
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/plan.hpp"
#include "stats/lehmer.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace cgp;

struct sweep_row {
  const char* regime;
  std::uint64_t n;
  std::uint64_t budget_bytes;  // 0 = unconstrained
};

// Best-of-`reps` wall clock of one explicit-backend draw.
double measure_backend(core::backend which, const sweep_row& row,
                       const core::permutation_plan& plan, int reps) {
  context_options copt;
  copt.which = which;
  if (which == core::backend::em) {
    copt.engine.em_engine.memory_items = plan.em_memory_items;
    copt.engine.em_block_items = plan.em_block_items;
  }
  const cgp::context ctx(copt);
  // Validate once, untimed, then time the draws (seed varies per rep so no
  // rep can reuse another's plan-independent state).
  if (!stats::is_permutation_of_iota(ctx.random_permutation(row.n, 0xE15))) {
    std::cerr << "INVALID permutation from " << core::backend_name(which) << "\n";
    std::exit(1);
  }
  return best_of(reps, [&](int r) {
    (void)ctx.random_permutation(row.n, 0xE15 + static_cast<std::uint64_t>(r));
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_plan.json";
  const bool small = mode == "small";
  const int reps = small ? 3 : 5;

  std::cout << "E15: planner-predicted vs measured-fastest backend (" << mode << " mode)\n\n";
  std::cout << "calibrating machine profile...\n";
  const core::machine_profile prof =
      small ? core::machine_profile::calibrate(1u << 14, 1u << 20)
            : core::machine_profile::calibrate();
  std::cout << "  threads=" << prof.threads << "  seq_hit=" << fmt(prof.seq_ns_hit, 2)
            << " ns/item  seq_miss=" << fmt(prof.seq_ns_miss, 2)
            << " ns/item  split=" << fmt(prof.split_ns, 2) << " ns/item/level\n\n";

  std::vector<sweep_row> rows;
  if (small) {
    rows = {{"tiny", 4'096, 0},
            {"tiny", 32'768, 0},
            {"mid", 1'000'000, 0},
            {"em", 500'000, 512 * 1024}};
  } else {
    rows = {{"tiny", 4'096, 0},       {"tiny", 32'768, 0},
            {"mid", 2'000'000, 0},    {"mid", 8'000'000, 0},
            {"em", 2'000'000, 2'000'000}};
  }

  table t({"regime", "n", "budget [B]", "chosen", "fastest", "T_seq [ms]", "T_smp [ms]",
           "T_em [ms]", "agree"});
  std::vector<json_record> out;
  int agreements = 0;

  for (const auto& row : rows) {
    core::workload w;
    w.n = row.n;
    w.memory_budget_bytes = row.budget_bytes;
    const core::permutation_plan plan = core::plan_permutation(w, prof);

    const bool ram_ok = row.budget_bytes == 0 || row.budget_bytes >= row.n * 8;
    // Tiny rows finish in microseconds; take many more reps so scheduler
    // jitter cannot fake a >10% gap between near-identical backends.
    const int row_reps = row.n <= 65536 ? 5 * reps : reps;
    double t_seq = std::numeric_limits<double>::infinity();
    double t_smp = std::numeric_limits<double>::infinity();
    if (ram_ok) {
      t_seq = measure_backend(core::backend::sequential, row, plan, row_reps);
      t_smp = measure_backend(core::backend::smp, row, plan, row_reps);
    }
    const double t_em = measure_backend(core::backend::em, row, plan, reps);

    const auto seconds_of = [&](core::backend b) {
      return b == core::backend::sequential ? t_seq : b == core::backend::smp ? t_smp : t_em;
    };
    core::backend fastest = core::backend::em;
    for (const core::backend b : {core::backend::sequential, core::backend::smp}) {
      if (seconds_of(b) < seconds_of(fastest)) fastest = b;
    }
    const bool agree = seconds_of(plan.chosen) <= 1.10 * seconds_of(fastest);
    agreements += agree ? 1 : 0;

    const auto ms = [](double s) {
      return std::isinf(s) ? std::string("-") : fmt(s * 1e3, 3);
    };
    t.add_row({row.regime, fmt_count(row.n),
               row.budget_bytes == 0 ? "-" : fmt_count(row.budget_bytes),
               core::backend_name(plan.chosen), core::backend_name(fastest), ms(t_seq),
               ms(t_smp), ms(t_em), agree ? "yes" : "NO"});

    json_record rec;
    rec.add("bench", "e15_planner")
        .add("mode", mode)
        .add("regime", row.regime)
        .add("n", row.n)
        .add("budget_bytes", row.budget_bytes)
        .add("chosen", core::backend_name(plan.chosen))
        .add("fastest", core::backend_name(fastest))
        .add("predicted_seconds", plan.predicted_seconds)
        .add("agree", agree);
    if (!std::isinf(t_seq)) rec.add("seq_seconds", t_seq);
    if (!std::isinf(t_smp)) rec.add("smp_seconds", t_smp);
    rec.add("em_seconds", t_em);
    out.push_back(std::move(rec));
  }
  t.print(std::cout);

  const double rate = static_cast<double>(agreements) / static_cast<double>(rows.size());
  std::cout << "\nagreement: " << agreements << "/" << rows.size() << " rows ("
            << fmt(rate * 100.0, 1) << "%) -- chosen backend fastest or within 10%\n";
  std::cout << "\nsample plan (last row):\n"
            << core::plan_permutation(
                   core::workload{rows.back().n, 8, rows.back().budget_bytes, 1}, prof)
                   .explain();

  json_record summary;
  summary.add("bench", "e15_planner")
      .add("mode", mode)
      .add("regime", "summary")
      .add("rows", static_cast<std::uint64_t>(rows.size()))
      .add("agreements", static_cast<std::uint64_t>(agreements))
      .add("agreement_rate", rate);
  out.push_back(std::move(summary));
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return agreements == static_cast<int>(rows.size()) ? 0 : 2;
}
