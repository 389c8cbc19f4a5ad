// core/plan.hpp
//
// The planner of the plan/executor core: turn a *workload descriptor*
// (how many records, how big, how much memory, how often) plus a *machine
// profile* (threads, cache geometry, calibrated per-item costs) into an
// executable `permutation_plan` -- which backend runs, with how many
// threads, and (for the out-of-core engine) with what (M, B) geometry and
// fan-out -- together with an explainable per-phase cost estimate.
//
// This is the paper's Section 6 message made operational: "the best
// algorithm depends on the regime".  Matrix sampling / fixed overheads
// dominate small n, memory traffic dominates large RAM-resident n, and
// the out-of-core variant is the only feasible choice once the input
// exceeds the memory budget.  The cost formulas mirror the calibrated
// BSP model of cgm/cost.hpp -- T = sum of (c * work + g * traffic + L)
// over phases -- with the (c, g, L) roles played by the profile's
// per-item costs, per-level streaming costs, and per-level overheads:
//
//   T_seq(n)    = n * c_seq(n)                 c_seq ramps from the
//                                              cache-hit to the cache-miss
//                                              rate as n * elem grows past
//                                              the cache (the paper's
//                                              memory-bound Fisher-Yates)
//   T_smp(n, p) = D/r + L_s * (n * c_split / p + O_level)
//                 + n * c_hit / p              L_s = ceil(log_K(n / leaf)),
//                                              D = dispatch overhead,
//                                              amortized over r repetitions
//   T_em(n)     = (L_e + 1) * n * c_em         L_e = ceil(log_K(n / M)),
//                                              one streaming pass per
//                                              distribution level + leaves
//   T_cgm(n, p) = L_d * (b * c_split + 2 * b * w * g + 3 * L)
//                 + L_l * b * c_split + b * c_hit
//                                              b = n/p items per rank,
//                                              w = words per item; L_d
//                                              distributed levels pay the
//                                              BSP (g, L) terms, L_l local
//                                              levels run rank-parallel
//                                              (the paper's Theorem 1 cost
//                                              made a planner candidate;
//                                              feasible only when the
//                                              profile describes >= 2
//                                              transport ranks)
//
// The model-counting simulator (cgm::machine, core/driver.hpp) is not a
// backend: it is the measurement instrument for the paper's resource
// bounds, reached directly and never through the planner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cgp::core {

/// Which engine executes the permutation.
enum class backend : std::uint8_t {
  smp,            ///< native shared-memory thread engine
  em,             ///< out-of-core engine (block-device distribution passes)
  cgm,            ///< distributed engine over a comm::transport
  sequential,     ///< seq::fisher_yates reference
  prp,            ///< O(1)-memory cipher PRP (src/prp/): pi evaluated, never stored
  automatic,      ///< planner-chosen: cost model picks seq / smp / em / cgm / prp
};

[[nodiscard]] constexpr const char* backend_name(backend b) noexcept {
  switch (b) {
    case backend::smp: return "smp";
    case backend::em: return "em";
    case backend::cgm: return "cgm";
    case backend::sequential: return "seq";
    case backend::prp: return "prp";
    case backend::automatic: return "auto";
  }
  return "?";
}

/// What the caller wants permuted.
struct workload {
  std::uint64_t n = 0;                    ///< number of records
  std::uint32_t element_bytes = 8;        ///< size of one record
  /// RAM the permutation may use, in bytes; 0 = unconstrained.  A budget
  /// below n * element_bytes makes the RAM-resident backends infeasible
  /// and forces the out-of-core engine.
  std::uint64_t memory_budget_bytes = 0;
  /// How many permutations of this shape the caller will draw (repeated
  /// generation amortizes fixed dispatch overhead, favouring smp earlier).
  std::uint64_t repetitions = 1;
  /// Fraction of pi's positions the caller will actually read, in (0, 1].
  /// 1.0 (the default) declares dense consumption -- every materializing
  /// backend competes as before and the prp candidate stays out of the
  /// race (its permutation law is a keyed cipher family, statistically
  /// uniform but not the exact-uniform law of the materializing engines,
  /// so `automatic` only offers it to workloads that DECLARE sparse
  /// access).  Below 1.0 the prp backend's cost scales with the accessed
  /// fraction while every other backend still pays for all n, which is
  /// what makes point lookups and shard reads of huge domains planable.
  double accessed_fraction = 1.0;
};

/// Probed / calibrated machine description.  `detect()` fills conservative
/// defaults from the hardware; `calibrate()` measures the per-item rates
/// with short in-process probes (a few milliseconds) -- what bench e15
/// uses, and what servers should run once at startup.
struct machine_profile {
  std::uint32_t threads = 0;            ///< worker threads (0 = hardware)
  std::uint64_t cache_items = 65536;    ///< smp leaf cutoff (items) -- must
                                        ///< match smp::engine_options
  std::uint64_t hit_bytes = 1ull << 18;   ///< working sets <= this run at seq_ns_hit
  std::uint64_t miss_bytes = 1ull << 25;  ///< seq_ns_miss is reached here
  /// Optional third calibration point: Fisher-Yates keeps degrading past
  /// the last cache level (TLB reach, DRAM page locality), so the seq
  /// cost ramps on from (miss_bytes, seq_ns_miss) to (far_bytes,
  /// seq_ns_far) and extrapolates that slope beyond, capped at 2x
  /// seq_ns_far.  far_bytes == 0 disables the segment (flat past miss).
  std::uint64_t far_bytes = 0;
  double seq_ns_hit = 2.5;    ///< Fisher-Yates ns/item, cache-resident
  double seq_ns_miss = 10.0;  ///< Fisher-Yates ns/item, memory-bound
  double seq_ns_far = 0.0;    ///< ns/item at far_bytes (0 = seq_ns_miss)
  // Default per-item rates assume the batched (SIMD-dispatched) label
  // draws of rng/philox_batch.hpp: the split and em passes spend less of
  // their per-item budget on keystream arithmetic than the original
  // scalar-engine estimates did.  `calibrate()` still overwrites split_ns
  // with a measured value; these are the uncalibrated priors.
  double split_ns = 2.4;      ///< smp streaming split, ns/item/level (per thread)
  double level_overhead_ns = 3.0e4;     ///< matrix sampling + barrier per split level
  double dispatch_overhead_ns = 5.0e4;  ///< per-call engine lookup/dispatch
  double em_ns_per_item_pass = 19.0;    ///< em engine ns/item per streaming pass

  // --- BSP communication terms of the distributed cgm backend -----------
  // The classic (p, g, L) triple: p ranks, a per-word streaming cost g
  // through the transport, and a per-superstep latency L.  `detect()`
  // leaves comm_ranks at 1, which marks the cgm candidate infeasible --
  // on a single host the threaded transport shares the same cores as the
  // smp engine and can only add overhead, so `automatic` considers the
  // distributed path only when a profile explicitly describes a scale-out
  // deployment (ranks with their OWN memory and cores: the memory budget
  // is interpreted per rank for the cgm candidate).
  std::uint32_t comm_ranks = 1;      ///< p: transport ranks (1 = no cluster)
  double comm_g_ns_per_word = 5.0;   ///< g: ns per 8-byte word through the transport
  double comm_l_ns = 2.0e4;          ///< L: per-superstep barrier/latency, ns

  /// One batched prp::cipher evaluation (pi of one index, amortized over
  /// an eval_range chunk): kDefaultRounds swap-or-not rounds plus the
  /// expected cycle-walk retry.  Pure ALU work -- no memory traffic, so
  /// unlike every *_ns above it does not ramp with n.  `calibrate()`
  /// overwrites it with a measured rate.
  double prp_eval_ns = 55.0;

  [[nodiscard]] static machine_profile detect();
  [[nodiscard]] static machine_profile calibrate(std::uint64_t small_n = 1ull << 15,
                                                 std::uint64_t large_n = 1ull << 22);

  /// Stable 64-bit fingerprint over every field that can change a plan.
  /// This is the profile component of the plan-cache key (core::cached_plan
  /// in core/registry.hpp): two profiles with equal fingerprints plan every
  /// workload identically, and recalibration changes the fingerprint, so
  /// stale cached plans can never be served for a re-measured machine.
  /// The HOST's active SIMD path (rng::active_simd_path()) is mixed in as
  /// well -- it is deliberately not a stored field, so a profile serialized
  /// on an AVX2 host and loaded on a scalar-only one re-keys automatically:
  /// the calibrated rates embody the vector kernels' speed and must not be
  /// served to a machine running the scalar path (and vice versa).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// One line of the plan's cost breakdown.
struct phase_estimate {
  std::string label;
  double seconds = 0.0;
};

/// Predicted cost of one candidate backend (feasible or not).
struct backend_estimate {
  backend which = backend::sequential;
  bool feasible = true;
  double seconds = 0.0;  ///< predicted seconds per draw (infinite if infeasible)
};

/// The planner's output: everything an executor needs, plus the evidence.
struct permutation_plan {
  backend chosen = backend::sequential;
  std::uint32_t threads = 1;      ///< worker threads (smp/em) or transport ranks (cgm)
  std::uint32_t split_levels = 0; ///< predicted smp recursion depth

  // Out-of-core geometry (meaningful when chosen == backend::em).
  std::uint64_t em_memory_items = 0;  ///< M, in device items
  std::uint32_t em_block_items = 0;   ///< B, items per device block
  std::uint32_t em_fan_out = 0;       ///< K = em::adaptive_fan_out(M, B), the engine's own rule
  std::uint32_t em_levels = 0;        ///< predicted distribution depth ceil(log_K(n/M))

  /// Echo of workload::accessed_fraction (the prp candidate's cost and
  /// explain()'s win-condition line depend on it).
  double accessed_fraction = 1.0;

  double predicted_seconds = 0.0;        ///< per draw, for the chosen backend
  std::vector<phase_estimate> phases;    ///< per-phase breakdown of the choice
  std::vector<backend_estimate> candidates;  ///< every candidate's prediction

  /// Human-readable account of the decision: the workload, every
  /// candidate's predicted cost, the choice, and its phase breakdown.
  [[nodiscard]] std::string explain() const;
};

/// Plan a permutation of `w` on `prof`.  Deterministic: same inputs, same
/// plan.  The chosen backend is always feasible under the budget.
[[nodiscard]] permutation_plan plan_permutation(const workload& w,
                                                const machine_profile& prof = machine_profile::detect());

}  // namespace cgp::core
