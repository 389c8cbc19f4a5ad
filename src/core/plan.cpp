#include "core/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "em/async_shuffle.hpp"
#include "obs/plan_feedback.hpp"
#include "prp/cipher.hpp"
#include "rng/philox_batch.hpp"
#include "rng/splitmix64.hpp"
#include "seq/fisher_yates.hpp"
#include "util/stopwatch.hpp"

namespace cgp::core {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

std::uint32_t normalized_threads(std::uint32_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// smp recursion depth: split until a bucket is at or below the leaf
/// cutoff, fan-out 16 per level (smp::engine_options defaults).
std::uint32_t smp_levels(std::uint64_t n, std::uint64_t leaf_cutoff) {
  if (n <= leaf_cutoff || leaf_cutoff == 0) return 0;
  const double ratio = static_cast<double>(n) / static_cast<double>(leaf_cutoff);
  return static_cast<std::uint32_t>(std::ceil(std::log2(ratio) / 4.0));  // log_16
}

/// Fisher-Yates ns/item as a function of the working set: the hit rate up
/// to hit_bytes, ramping (log-interpolated) to the miss rate at
/// miss_bytes, then -- when a far calibration point exists -- ramping on
/// to seq_ns_far at far_bytes and extrapolating that slope beyond it
/// (capped at 2x seq_ns_far).  The random-access pattern degrades
/// gradually as the set outgrows each cache level and then the TLB reach.
double seq_ns_per_item(const machine_profile& prof, std::uint64_t bytes) {
  const auto log_interp = [](double lo_ns, double hi_ns, std::uint64_t lo_b, std::uint64_t hi_b,
                             std::uint64_t at_b) {
    const double span = std::log2(static_cast<double>(hi_b) / static_cast<double>(lo_b));
    const double at = std::log2(static_cast<double>(at_b) / static_cast<double>(lo_b));
    return lo_ns + (hi_ns - lo_ns) * (at / span);
  };
  if (bytes <= prof.hit_bytes) return prof.seq_ns_hit;
  if (bytes < prof.miss_bytes) {
    return log_interp(prof.seq_ns_hit, prof.seq_ns_miss, prof.hit_bytes, prof.miss_bytes, bytes);
  }
  const bool has_far = prof.far_bytes > prof.miss_bytes && prof.seq_ns_far > 0.0;
  if (!has_far) return prof.seq_ns_miss;
  const double ns =
      log_interp(prof.seq_ns_miss, prof.seq_ns_far, prof.miss_bytes, prof.far_bytes, bytes);
  return std::clamp(ns, std::min(prof.seq_ns_miss, prof.seq_ns_far), 2.0 * prof.seq_ns_far);
}

/// Pick the (M, B) device geometry from the byte budget.  Device items
/// are u64 words; B defaults to the dispatch layer's 4096 and shrinks
/// (power-of-two) under tight budgets to respect the engine's M >= 4B
/// contract.
void fill_em_geometry(permutation_plan& plan, std::uint64_t n, std::uint64_t budget_bytes) {
  std::uint64_t m = budget_bytes == 0 ? (std::uint64_t{1} << 16) : budget_bytes / 8;
  std::uint32_t b = 4096;
  while (b > 16 && m < 4ull * b) b /= 2;
  m = std::max<std::uint64_t>(m, 4ull * b);
  plan.em_memory_items = m;
  plan.em_block_items = b;
  plan.em_fan_out = em::adaptive_fan_out(m, b);  // the engine's own rule
  if (n <= m) {
    plan.em_levels = 0;
  } else {
    const double ratio = static_cast<double>(n) / static_cast<double>(m);
    plan.em_levels = static_cast<std::uint32_t>(
        std::ceil(std::log2(ratio) / std::log2(static_cast<double>(plan.em_fan_out))));
  }
}

std::string fmt_seconds(double s) {
  std::ostringstream os;
  if (s >= 1.0) {
    os.precision(3);
    os << s << " s";
  } else if (s >= 1e-3) {
    os.precision(3);
    os << s * 1e3 << " ms";
  } else {
    os.precision(3);
    os << s * 1e6 << " us";
  }
  return os.str();
}

std::string fmt_ratio(double r) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << r;
  return os.str();
}

}  // namespace

machine_profile machine_profile::detect() {
  machine_profile prof;
  prof.threads = normalized_threads(0);
  return prof;
}

machine_profile machine_profile::calibrate(std::uint64_t small_n, std::uint64_t large_n) {
  machine_profile prof = detect();
  small_n = std::max<std::uint64_t>(small_n, 1024);
  large_n = std::max(large_n, small_n * 4);

  // Sequential Fisher-Yates at a cache-resident size, a memory-bound
  // size, and a far (4x) size: the third point captures how the
  // random-access cost keeps growing past the last cache level, which the
  // planner extrapolates for still-larger inputs.  It draws from the
  // batched keystream, as every executor leaf does.
  const auto time_fy = [](std::uint64_t n, std::uint64_t seed, int reps) {
    std::vector<std::uint64_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    double best = kInfeasible;
    for (int r = 0; r < reps; ++r) {
      rng::batched_philox e(seed, static_cast<std::uint64_t>(r));
      stopwatch sw;
      seq::fisher_yates(e, std::span<std::uint64_t>(v));
      best = std::min(best, sw.seconds());
    }
    return best;
  };
  const std::uint64_t far_n = large_n * 4;
  const double t_small = time_fy(small_n, 0xCA71B0, 3);
  const double t_large = time_fy(large_n, 0xCA71B1, 3);
  const double t_far = time_fy(far_n, 0xCA71B3, 2);
  prof.seq_ns_hit = t_small * 1e9 / static_cast<double>(small_n);
  prof.seq_ns_miss =
      std::max(prof.seq_ns_hit, t_large * 1e9 / static_cast<double>(large_n));
  prof.hit_bytes = small_n * 8;
  prof.miss_bytes = std::max(large_n * 8, prof.hit_bytes * 2);
  prof.far_bytes = std::max(far_n * 8, prof.miss_bytes * 2);
  prof.seq_ns_far = std::max(prof.seq_ns_miss, t_far * 1e9 / static_cast<double>(far_n));

  // The smp engine at the memory-bound size, through the shared registry
  // engine (a warm pool, exactly what production dispatch uses).  Invert
  // the T_smp model for the per-level streaming cost; the inversion
  // reproduces the measured ordering of seq vs smp at this size by
  // construction (clamped below only when smp is far ahead, where the
  // clamp cannot flip the ordering).
  smp::engine_options eopt;
  eopt.threads = prof.threads;
  smp::engine& eng = shared_engine(eopt);
  {
    std::vector<std::uint64_t> v(large_n);
    std::iota(v.begin(), v.end(), 0);
    double best = kInfeasible;
    for (int r = 0; r < 3; ++r) {
      stopwatch sw;
      eng.shuffle(std::span<std::uint64_t>(v), 0xCA71B2 + static_cast<std::uint64_t>(r));
      best = std::min(best, sw.seconds());
    }
    const double p = static_cast<double>(eng.threads());
    const auto levels = std::max<std::uint32_t>(1, smp_levels(large_n, prof.cache_items));
    const double fixed = prof.dispatch_overhead_ns * 1e-9 +
                         static_cast<double>(levels) * prof.level_overhead_ns * 1e-9 +
                         static_cast<double>(large_n) * prof.seq_ns_hit * 1e-9 / p;
    const double per_level_item =
        (best - fixed) * 1e9 * p / (static_cast<double>(levels) * static_cast<double>(large_n));
    prof.split_ns = std::max(0.05, per_level_item);
  }

  // One batched cipher evaluation (the prp candidate's only per-item
  // term).  Pure ALU work, so a short probe at any domain size measures
  // the production rate; 1<<16 evals take well under a millisecond.
  {
    const std::uint64_t probe_n = std::uint64_t{1} << 30;
    const prp::cipher c(0xCA71B4, probe_n);
    std::vector<std::uint64_t> out(std::uint64_t{1} << 16);
    double best = kInfeasible;
    for (int r = 0; r < 3; ++r) {
      stopwatch sw;
      c.eval_range(static_cast<std::uint64_t>(r) * out.size(), out, nullptr);
      best = std::min(best, sw.seconds());
    }
    prof.prp_eval_ns = std::max(1.0, best * 1e9 / static_cast<double>(out.size()));
  }
  return prof;
}

std::uint64_t machine_profile::fingerprint() const noexcept {
  // Chain every plan-relevant field through the same mix discipline the
  // seed derivations use; doubles enter as their bit patterns, so any
  // recalibration that moves a rate by one ulp already re-keys the cache.
  const auto mix_in = [](std::uint64_t h, std::uint64_t v) {
    return rng::mix64(h ^ rng::mix64(v + 0x9E3779B97F4A7C15ull));
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::uint64_t h = 0x50524F46ull;  // 'PROF'
  h = mix_in(h, threads);
  h = mix_in(h, cache_items);
  h = mix_in(h, hit_bytes);
  h = mix_in(h, miss_bytes);
  h = mix_in(h, far_bytes);
  h = mix_in(h, bits(seq_ns_hit));
  h = mix_in(h, bits(seq_ns_miss));
  h = mix_in(h, bits(seq_ns_far));
  h = mix_in(h, bits(split_ns));
  h = mix_in(h, bits(level_overhead_ns));
  h = mix_in(h, bits(dispatch_overhead_ns));
  h = mix_in(h, bits(em_ns_per_item_pass));
  h = mix_in(h, comm_ranks);
  h = mix_in(h, bits(comm_g_ns_per_word));
  h = mix_in(h, bits(comm_l_ns));
  h = mix_in(h, bits(prp_eval_ns));
  // The build's cipher depth, not a field: a binary compiled with a
  // different kDefaultRounds prices the prp candidate differently (and
  // produces different permutations), so its cached plans must re-key.
  h = mix_in(h, prp::cipher::kDefaultRounds);
  // Runtime, not a field: re-keys cached plans whenever the profile moves
  // to a host with a different ISA (or CGP_SIMD flips the path).
  h = mix_in(h, static_cast<std::uint64_t>(rng::active_simd_path()));
  return h;
}

permutation_plan plan_permutation(const workload& w, const machine_profile& prof) {
  permutation_plan plan;
  const std::uint64_t n = std::max<std::uint64_t>(w.n, 1);
  const std::uint64_t bytes = n * w.element_bytes;
  const std::uint32_t p = normalized_threads(prof.threads);
  const double reps = static_cast<double>(std::max<std::uint64_t>(w.repetitions, 1));
  const bool ram_feasible = w.memory_budget_bytes == 0 || w.memory_budget_bytes >= bytes;
  // Declared consumption density, clamped into (0, 1]; non-positive or
  // unset values mean "all of it".
  const double frac = (w.accessed_fraction > 0.0 && w.accessed_fraction <= 1.0)
                          ? w.accessed_fraction
                          : 1.0;
  plan.accessed_fraction = frac;

  // --- candidate costs (seconds per draw) -----------------------------
  const double t_seq =
      ram_feasible ? static_cast<double>(n) * seq_ns_per_item(prof, bytes) * 1e-9 : kInfeasible;

  const std::uint32_t levels_smp = smp_levels(n, prof.cache_items);
  double t_smp = kInfeasible;
  if (ram_feasible) {
    if (levels_smp == 0) {
      // At or below the leaf cutoff the engine IS a Fisher-Yates; the
      // epsilon keeps the planner on the simpler sequential path at ties.
      t_smp = t_seq + 1e-6;
    } else {
      t_smp = prof.dispatch_overhead_ns * 1e-9 / reps +
              static_cast<double>(levels_smp) *
                  (static_cast<double>(n) * prof.split_ns * 1e-9 / p +
                   prof.level_overhead_ns * 1e-9) +
              static_cast<double>(n) * prof.seq_ns_hit * 1e-9 / p;
    }
  }

  fill_em_geometry(plan, n, w.memory_budget_bytes);
  const double em_passes = static_cast<double>(plan.em_levels) + 1.0;
  const double t_em = em_passes * static_cast<double>(n) * prof.em_ns_per_item_pass * 1e-9;

  // The distributed cgm backend: Theorem 1's cost with the profile's BSP
  // (p, g, L) terms.  Feasible only for a scale-out profile (>= 2 ranks,
  // each bringing its own memory: the budget is per rank).  A rank holds
  // its block plus its staged and received (pos, value) records, in
  // buffers it keeps across calls.  Measured for 8-byte items at
  // n = 1,000,003 over sockets, the peak above the input is 2.1 blocks per
  // rank at p = 4, 2.7 at p = 8 and 3.0 at p = 2: 3.1 to 4.0 blocks in all,
  // so the 3 blocks below slightly undercount at p = 2 and p = 8.
  const std::uint32_t ranks = std::max(1u, prof.comm_ranks);
  const std::uint64_t rank_block = (n + ranks - 1) / ranks;
  const bool cgm_feasible =
      ranks >= 2 && (w.memory_budget_bytes == 0 ||
                     3 * rank_block * w.element_bytes <= w.memory_budget_bytes);
  // Per-phase cost terms, shared between t_cgm and the phase breakdown
  // below (one source of truth so explain() cannot drift from
  // predicted_seconds).
  double t_cgm = kInfeasible;
  double cgm_dist_s = 0.0;   // distributed levels: split + h-relation + barriers
  double cgm_local_s = 0.0;  // local levels, rank-parallel
  double cgm_leaf_s = 0.0;   // leaf fisher-yates per rank
  if (cgm_feasible) {
    // Distributed split levels: the range localizes once buckets fall
    // under a block, i.e. after ceil(log_K p) levels (K = 16, the smp
    // fan-out).  The remaining depth of the smp recursion runs locally
    // and rank-parallel.
    const std::uint32_t levels_total = smp_levels(n, prof.cache_items);
    std::uint32_t dist_levels = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::ceil(std::log2(static_cast<double>(ranks)) / 4.0)));
    dist_levels = std::min(dist_levels, std::max(1u, levels_total));
    const std::uint32_t local_levels =
        levels_total > dist_levels ? levels_total - dist_levels : 0;
    const double b = static_cast<double>(rank_block);
    const double words_per_item =
        static_cast<double>((std::uint64_t{w.element_bytes} + 7) / 8);
    // Each distributed level moves every item off its rank and back in
    // (pos + payload words, both directions counted once as g per word),
    // plus three barriers (move, gather, scatter supersteps).
    const double level_comm_s =
        b * (1.0 + words_per_item) * 2.0 * prof.comm_g_ns_per_word * 1e-9 +
        3.0 * prof.comm_l_ns * 1e-9;
    cgm_dist_s =
        static_cast<double>(dist_levels) * (b * prof.split_ns * 1e-9 + level_comm_s);
    cgm_local_s = static_cast<double>(local_levels) * b * prof.split_ns * 1e-9;
    cgm_leaf_s = b * prof.seq_ns_hit * 1e-9;
    t_cgm = prof.dispatch_overhead_ns * 1e-9 / reps + cgm_dist_s + cgm_local_s + cgm_leaf_s;
  }

  // The prp candidate: evaluate pi pointwise with the cipher instead of
  // materializing it.  Pays only for the positions actually read -- frac *
  // n evaluations at the calibrated ALU rate -- while every materializing
  // candidate above pays for all n (and for a repeated workload pays it
  // EVERY draw, where prp re-keys for free: a new draw is a new (seed, n),
  // zero work until positions are read).  Offered only when the workload
  // declares sparse access (frac < 1): the cipher's law is a keyed PRP
  // family -- statistically uniform (chi-square-pinned) but not the exact
  // uniform law of the materializing engines -- so dense default workloads
  // keep their previous plans bit-for-bit.
  const bool prp_feasible = frac < 1.0;
  const double t_prp =
      prp_feasible
          ? prof.dispatch_overhead_ns * 1e-9 / reps +
                frac * static_cast<double>(n) * prof.prp_eval_ns * 1e-9
          : kInfeasible;

  plan.candidates = {
      {backend::sequential, ram_feasible, t_seq},
      {backend::smp, ram_feasible, t_smp},
      {backend::em, true, t_em},
      {backend::cgm, cgm_feasible, t_cgm},
      {backend::prp, prp_feasible, t_prp},
  };

  // --- choose ----------------------------------------------------------
  const backend_estimate* best = &plan.candidates[0];
  for (const auto& c : plan.candidates) {
    if (c.feasible && c.seconds < best->seconds) best = &c;
  }
  if (!best->feasible) best = &plan.candidates[2];  // em is always feasible
  plan.chosen = best->which;
  plan.predicted_seconds = best->seconds;
  plan.split_levels = levels_smp;
  plan.threads = plan.chosen == backend::sequential ? 1
                 : plan.chosen == backend::prp      ? 1
                 : plan.chosen == backend::cgm      ? ranks
                                                    : p;

  // --- phase breakdown of the choice -----------------------------------
  switch (plan.chosen) {
    case backend::sequential:
      plan.phases = {{"fisher-yates", t_seq}};
      break;
    case backend::prp:
      plan.phases = {
          {"dispatch (amortized over repetitions)", prof.dispatch_overhead_ns * 1e-9 / reps},
          {"cipher evaluations (accessed fraction of n)",
           frac * static_cast<double>(n) * prof.prp_eval_ns * 1e-9},
      };
      break;
    case backend::cgm:
      plan.phases = {
          {"dispatch (amortized over repetitions)", prof.dispatch_overhead_ns * 1e-9 / reps},
          {"distributed split levels (h-relation + barriers)", cgm_dist_s},
          {"local split levels (rank-parallel)", cgm_local_s},
          {"leaf fisher-yates", cgm_leaf_s},
      };
      break;
    case backend::smp:
      if (levels_smp == 0) {
        plan.phases = {{"leaf fisher-yates (fits cache cutoff)", t_smp}};
      } else {
        plan.phases = {
            {"dispatch (amortized over repetitions)", prof.dispatch_overhead_ns * 1e-9 / reps},
            {"split levels (stream + matrix)",
             static_cast<double>(levels_smp) *
                 (static_cast<double>(n) * prof.split_ns * 1e-9 / p +
                  prof.level_overhead_ns * 1e-9)},
            {"leaf fisher-yates", static_cast<double>(n) * prof.seq_ns_hit * 1e-9 / p},
        };
      }
      break;
    default:
      plan.phases = {
          {"distribution levels", static_cast<double>(plan.em_levels) * static_cast<double>(n) *
                                      prof.em_ns_per_item_pass * 1e-9},
          {"leaf pass", static_cast<double>(n) * prof.em_ns_per_item_pass * 1e-9},
      };
      break;
  }
  return plan;
}

std::string permutation_plan::explain() const {
  std::ostringstream os;
  os << "plan: backend=" << backend_name(chosen) << " threads=" << threads;
  if (chosen == backend::smp) os << " split_levels=" << split_levels;
  if (chosen == backend::cgm) os << " ranks=" << threads;
  if (chosen == backend::em) {
    os << " M=" << em_memory_items << " B=" << em_block_items << " K=" << em_fan_out
       << " levels=" << em_levels;
  }
  if (accessed_fraction < 1.0) os << " accessed_fraction=" << accessed_fraction;
  os << " rng.simd_path=" << rng::simd_path_name(rng::active_simd_path());
  os << " predicted=" << fmt_seconds(predicted_seconds) << "\n";
  os << "candidates:\n";
  for (const auto& c : candidates) {
    os << "  " << backend_name(c.which) << ": ";
    if (!c.feasible) {
      os << (c.which == backend::prp
                 ? "infeasible (dense access: workload reads all of pi, and the "
                   "cipher's law is pseudorandom, not the exact-uniform law)"
                 : "infeasible (exceeds memory budget)");
    } else {
      os << fmt_seconds(c.seconds);
    }
    if (c.which == chosen) os << "  <- chosen";
    os << "\n";
  }
  // The prp candidate's win conditions, stated whether or not it won: it
  // pays per position READ while everyone else pays per position STORED.
  os << "prp wins when: accessed_fraction << 1 (declared sparse lookups / shard"
        " reads; currently "
     << (accessed_fraction < 1.0 ? "declared" : "NOT declared -- prp sits out")
     << "), repetitions >> 1 (each draw is a free re-key, no rebuild), or n"
        " beyond the memory budget (O(1) state vs em's on-device pi)\n";
  os << "phases:\n";
  for (const auto& ph : phases) {
    os << "  " << ph.label << ": " << fmt_seconds(ph.seconds) << "\n";
  }

  // --- predicted vs measured (ROADMAP-5 feedback loop) -------------------
  // The obs layer logs (plan, measured phase times) for every executed job
  // (core::feedback_scope); aggregate what it has seen for this backend.
  const obs::backend_feedback fb = obs::plan_feedback_for(backend_name(chosen));
  if (fb.jobs == 0) {
    os << "feedback: no executed jobs recorded for backend=" << backend_name(chosen) << "\n";
    return os.str();
  }
  const double jobs = static_cast<double>(fb.jobs);
  const double pred_avg = fb.predicted_seconds / jobs;
  const double meas_avg = fb.measured_seconds / jobs;
  const auto flag = [](double predicted, double measured) {
    if (predicted <= 0.0 || measured <= 0.0) return "";
    const double ratio = measured / predicted;
    return (ratio > 2.0 || ratio < 0.5) ? "  <- MISPREDICT (>2x off)" : "";
  };
  os << "feedback (" << fb.jobs << " executed job" << (fb.jobs == 1 ? "" : "s")
     << ", backend=" << backend_name(chosen) << ", per-job averages):\n";
  os << "  total: predicted=" << fmt_seconds(pred_avg) << " measured=" << fmt_seconds(meas_avg);
  if (pred_avg > 0.0 && meas_avg > 0.0) {
    os << " (x" << fmt_ratio(meas_avg / pred_avg) << ")";
  }
  os << flag(pred_avg, meas_avg) << "\n";
  for (const auto& m : fb.measured_phases) {
    os << "  " << m.label << ": measured=" << fmt_seconds(m.seconds / jobs);
    for (const auto& p : fb.predicted_phases) {
      if (p.label != m.label) continue;
      os << " predicted=" << fmt_seconds(p.seconds / jobs);
      if (p.seconds > 0.0 && m.seconds > 0.0) {
        os << " (x" << fmt_ratio(m.seconds / p.seconds) << ")";
      }
      os << flag(p.seconds / jobs, m.seconds / jobs);
      break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cgp::core
