// core/registry.hpp
//
// Process-wide engine/pool registry.  Thread pools are expensive to spin
// up and tear down, and callers draw permutations in a loop (a context's
// draw sequence, the service, the benches), so the registry keeps ONE
// engine per distinct configuration for the lifetime of the process;
// every caller that asks for the same configuration shares the same warm
// pool.
//
// Lifetime rules (also documented in DESIGN.md):
//   * engines are created on first use and never destroyed until process
//     exit (static-duration registry; pools join their workers in the
//     registry's destructor);
//   * references returned by shared_engine()/shared_pool() therefore stay
//     valid for the remainder of the process -- callers may cache them;
//   * the registry is fully thread-safe; each entry is constructed exactly
//     once (per-entry std::call_once: concurrent first-touch calls for the
//     SAME configuration race into one construction, and a slow first
//     construction -- an engine spins up a whole thread pool -- no longer
//     blocks lookups of OTHER configurations behind the registry mutex);
//     use of a returned engine is as thread-safe as the engine itself
//     (smp::engine::shuffle is safe for concurrent calls on disjoint data).
//
// The registry also owns two process-wide caches: the detected machine
// profile (so every context / server construction stops re-running
// machine_profile::detect()) and the plan cache behind
// core::resolve_plan (so repeated request shapes skip
// core::plan_permutation, keyed by workload + profile fingerprint).
// Beside the plan cache it keeps one plan-feedback row per backend, which
// core::feedback_scope sums every executed draw into and
// permutation_plan::explain() reads back.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "comm/transport.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smp/engine.hpp"

namespace cgp::core {

/// The shared engine for `opt` (one per distinct configuration, created on
/// first use, alive until process exit).  opt.threads == 0 normalizes to
/// hardware concurrency, so explicit-0 and explicit-hw callers share.
[[nodiscard]] smp::engine& shared_engine(const smp::engine_options& opt = {});

/// The shared thread pool with `threads` workers (0 = hardware
/// concurrency).  This is the pool of the shared engine with otherwise
/// default options -- em executors run their computation here when the
/// caller did not provide an engine.
[[nodiscard]] smp::thread_pool& shared_pool(std::uint32_t threads = 0);

/// The shared transport for `ranks` ranks (0 normalizes to 1): the
/// loopback transport at one rank, a threaded mailbox transport (with its
/// own dedicated pool of `ranks` workers -- transport ranks block at
/// barriers and must not starve the compute pool) otherwise.  One per
/// distinct rank count, created on first use, alive until process exit --
/// the same lifetime rules as the engines above.
[[nodiscard]] comm::transport& shared_transport(std::uint32_t ranks);

/// Number of distinct engine configurations currently registered (test /
/// introspection hook).
[[nodiscard]] std::size_t registered_engine_count();

/// The process-wide cached machine profile: machine_profile::detect() run
/// once on first touch and reused by every cgp::context and svc::server
/// constructed afterwards.  It never changes for the life of the process.
[[nodiscard]] machine_profile shared_profile();

/// The plan for workload `w` on `prof`, cached under the key
/// (n, element_bytes, memory_budget, repetitions, prof.fingerprint()).
/// Bit-identical to plan_permutation(w, prof) -- the cache only skips the
/// recomputation, never changes the answer -- which is what lets
/// core::resolve_plan answer every `automatic` request from it without
/// perturbing any output.
[[nodiscard]] permutation_plan cached_plan(const workload& w, const machine_profile& prof);

/// Plan-cache traffic counters (monotone, process-wide): how many
/// cached_plan calls were made, and how many were answered from the cache.
[[nodiscard]] std::size_t plan_cache_lookups();
[[nodiscard]] std::size_t plan_cache_hits();

/// One backend's plan feedback: every draw a feedback_scope ran on it since
/// process start or the last clear_feedback(), summed.
struct backend_feedback {
  std::uint64_t jobs = 0;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;                  ///< the draws' "execute" phase
  std::vector<obs::phase_time> predicted_phases;  ///< the plans' estimates, by label
  std::vector<obs::phase_time> measured_phases;   ///< the collected spans, by label
};

/// A copy of `which`'s feedback row.
[[nodiscard]] backend_feedback feedback_for(backend which);

/// Zero every feedback row (tests).  The `core.exec.*` counters stay:
/// counters are monotone.
void clear_feedback();

/// RAII scope around one executed draw of `plan` (which must outlive it):
/// an "execute" span times the draw and a phase collector gathers what the
/// executors' spans report on this thread.  On exit the draw is added into
/// its backend's feedback row and counted into `core.exec.<backend>`, a
/// counter the row registers on that backend's first draw, so a document
/// never shows a backend that did not run.  Inert when obs is disabled
/// (CGP_OBS_OFF): no collector, no span, no clock.
class feedback_scope {
 public:
  explicit feedback_scope(const permutation_plan& plan) {
    if (!obs::enabled()) return;
    plan_ = &plan;
    collector_.emplace();
    span_.emplace("execute", "exec");
  }
  feedback_scope(const feedback_scope&) = delete;
  feedback_scope& operator=(const feedback_scope&) = delete;
  ~feedback_scope();

 private:
  const permutation_plan* plan_ = nullptr;  ///< null when obs was off at entry
  std::optional<obs::phase_collector> collector_;
  std::optional<obs::span> span_;
};

}  // namespace cgp::core
