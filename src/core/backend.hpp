// core/backend.hpp
//
// The dispatch entry points the facade runs on, a thin shell over the
// plan/executor core:
//
//   request --> resolve_plan (core/executor.hpp) --> permutation_plan
//           --> make_executor (core/executor.hpp) --> runs it
//
// `cgp::context` (core/context.hpp) calls `shuffle` / `random_permutation`
// below with the options it projects from its own state (profile,
// transport, seed sequence); most callers should construct a context.
// These functions stay public because they are the one entry point that
// takes fully explicit `backend_options` -- an injected machine profile
// in particular, which is what pins `automatic` to a fixed plan in tests.
//
// Five backends plus a planner that picks among them:
//
//   * `smp` -- the native shared-memory engine (smp/engine.hpp) on the
//     process-wide shared pool (core/registry.hpp).  The fast path for
//     RAM-resident production workloads.
//   * `em` -- the out-of-core engine (em/async_shuffle.hpp) behind the
//     streaming apply layer (core/apply.hpp), for the n >> M regime.
//   * `cgm` -- the distributed engine (cgm/distributed.hpp) over a
//     pluggable comm::transport: the real coarse-grained backend.  Output
//     is independent of the rank count and transport; at or below the
//     cache cutoff it bit-matches `sequential` (one leaf on
//     philox(seed, 0)), and above it it bit-matches `smp` under the same
//     engine options.
//   * `prp` -- the O(1)-memory cipher permutation (src/prp/), offered by
//     the planner only to workloads that declare sparse access.
//   * `sequential` -- the seq::fisher_yates reference.
//   * `automatic` -- the cost-model planner picks seq / smp / em / cgm /
//     prp from the workload (n, element size, memory budget, repetitions,
//     accessed fraction) and the machine profile; the resolved plan is
//     observable via backend_options::plan_out.  The cgm candidate is
//     considered only when the profile describes a scale-out deployment
//     (comm_ranks >= 2).
//
// The model-counting simulator of Algorithm 1 (cgm::machine with
// core/driver.hpp's permute_global) is not a backend: nothing here
// includes it.
//
// Every backend but `prp` is exactly uniform (prp's law is a keyed cipher
// family; see core/executor.hpp).  They draw from differently keyed
// streams, so equal seeds do *not* imply equal permutations across
// backends (each backend is individually bit-reproducible in its seed).
// One designed exception: `em` with memory >= n degenerates to a single
// in-memory Fisher-Yates from the very stream `sequential` uses, so the
// two agree bit for bit in that regime (tests/test_em_async.cpp).  And by
// construction `automatic` agrees bit for bit with whichever backend the
// plan names (tests/test_plan.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/plan_feedback.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace cgp::core {

/// RAII scope around one executed job: wall-clocks the run, collects the
/// per-phase times the executors' obs::spans report on this thread, and
/// on destruction files an obs::plan_feedback_record (prediction next to
/// measurement) -- the raw material of plan::explain()'s
/// predicted-vs-measured section.  Inert when obs is disabled
/// (CGP_OBS_OFF): no collector, no clock, no record.  Used by the
/// backend-dispatched entry points below and by the service layer's job
/// runners (svc/server.cpp), which drive executors directly.
class feedback_scope {
 public:
  feedback_scope(const permutation_plan& plan, std::uint64_t n, std::uint32_t elem_bytes) {
    if (!obs::enabled()) return;
    active_ = true;
    rec_.backend = backend_name(plan.chosen);
    rec_.n = n;
    rec_.elem_bytes = elem_bytes;
    rec_.predicted_seconds = plan.predicted_seconds;
    rec_.predicted_phases.reserve(plan.phases.size());
    for (const auto& ph : plan.phases) rec_.predicted_phases.push_back({ph.label, ph.seconds});
    obs::get_counter(std::string("core.exec.") + rec_.backend).add();
    collector_.emplace();
    span_.emplace("execute", "exec");
    sw_.reset();
  }
  feedback_scope(const feedback_scope&) = delete;
  feedback_scope& operator=(const feedback_scope&) = delete;
  ~feedback_scope() {
    if (!active_) return;
    rec_.measured_seconds = sw_.seconds();
    span_.reset();  // flush the overall "execute" phase into the collector
    rec_.measured_phases = collector_->phases();
    collector_.reset();
    obs::record_plan_feedback(std::move(rec_));
  }

 private:
  bool active_ = false;
  obs::plan_feedback_record rec_;
  std::optional<obs::phase_collector> collector_;
  std::optional<obs::span> span_;
  stopwatch sw_;
};

/// Uniformly permute `data` in place with the selected (or planned)
/// backend -- the zero-copy span entry point.  Returns the plan that ran.
template <typename T>
permutation_plan shuffle(std::span<T> data, const backend_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  const permutation_plan plan = resolve_plan(data.size(), sizeof(T), opt);
  if (opt.plan_out != nullptr) *opt.plan_out = plan;
  const feedback_scope fb(plan, data.size(), sizeof(T));
  make_executor(plan, opt)->shuffle(data, opt.seed);
  return plan;
}

/// Sample pi uniform over S_n with the selected backend (pi[i] = image of
/// i).  The permutation is filled in place inside the executor -- iota +
/// in-place shuffle for the RAM backends, a bulk device read for em -- so
/// there is no copy-in/copy-out round trip.
[[nodiscard]] inline std::vector<std::uint64_t> random_permutation(
    std::uint64_t n, const backend_options& opt = {}) {
  const permutation_plan plan = resolve_plan(n, sizeof(std::uint64_t), opt);
  if (opt.plan_out != nullptr) *opt.plan_out = plan;
  std::vector<std::uint64_t> pi(n);
  const feedback_scope fb(plan, n, sizeof(std::uint64_t));
  make_executor(plan, opt)->fill_random_permutation(std::span<std::uint64_t>(pi), opt.seed);
  return pi;
}

}  // namespace cgp::core
