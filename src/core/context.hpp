// core/context.hpp
//
// The curated facade of cgmperm: ONE object that owns everything a caller
// used to wire together by hand -- the machine profile the planner reads,
// the transport the distributed backend runs on, the process-wide
// engine/pool registry behind the executors, and the seed discipline --
// with ONE entry point:
//
//   cgp::context ctx;                      // planner-driven defaults
//   ctx.shuffle(std::span<T>(records));    // permute in place, get the plan
//
//   cgp::context_options copt;
//   copt.which = cgp::core::backend::cgm;  // explicit backend...
//   copt.parallelism = 8;                  // ...8 transport ranks
//   cgp::context dist(copt);
//   dist.shuffle(std::span<T>(records));
//
// Seed discipline: a context draws are *independent and reproducible* --
// call k of `shuffle()` uses a seed derived from (base seed, k), so
// repeated draws on one context never replay each other, while two
// contexts with the same base seed replay each other call for call.  Pass
// an explicit seed to pin a single call instead.
//
// Thread safety: ONE context may be shared across worker threads.  The
// explicit-seed entry points are `const` and touch no mutable state, so a
// service (src/svc/) hands every scheduler worker a `const context&` and
// keys each job's seed itself; the draw-sequence entry points reserve
// their call index atomically, so concurrent sequence draws each get a
// distinct seed (which draw gets which index is scheduling-dependent --
// callers that need a deterministic (caller, index) -> seed map should key
// explicit seeds, as the service layer does).  `reseed` is exclusive: do
// not run it concurrently with draws.  The profile and the transport are
// fixed at construction.
//
// Underneath, every draw runs core::resolve_plan, core::feedback_scope
// and core::make_executor (core/executor.hpp) under the options
// execution_options() projects.  A service shuffle job is a shuffle_raw
// call on the server's context, and a service fill job runs the same
// three steps, so a context plans like every other caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "rng/splitmix64.hpp"

namespace cgp {

/// What the caller curates; everything else is planned or defaulted.
struct context_options {
  /// Backend; `automatic` lets the cost model pick per call.
  core::backend which = core::backend::automatic;
  /// Transport ranks (cgm) or worker threads (smp/em); 0 = default.
  std::uint32_t parallelism = 0;
  /// RAM the permutation may use, in bytes; 0 = unconstrained.
  std::uint64_t memory_budget_bytes = 0;
  /// Expected draws of one shape (amortizes dispatch in the planner).
  std::uint64_t repetitions = 1;
  /// Base seed of the context's draw sequence.
  std::uint64_t seed = 0xC0A2537E5EEDull;
  /// Expert escape hatch: engine knobs (em geometry, smp/cgm/prp engine
  /// options) forwarded verbatim.  The curated fields above override
  /// their counterparts in here.  A set `engine.profile` is copied into
  /// the context at construction and replaces the shared detected
  /// profile: point it at a machine_profile::calibrate() result for
  /// measured costs, or at a fixed profile to pin plans in tests.
  core::backend_options engine{};
};

class context {
 public:
  explicit context(context_options opt = {})
      : opt_(opt),
        profile_(opt.engine.profile != nullptr ? *opt.engine.profile : core::shared_profile()),
        seed_(opt.seed) {}

  context(const context&) = delete;
  context& operator=(const context&) = delete;

  /// THE entry point: uniformly permute `data` in place on the context's
  /// backend (or the planner's choice) and return the plan that ran.
  /// Uses the next seed of the context's draw sequence.
  template <typename T>
  core::permutation_plan shuffle(std::span<T> data) {
    return shuffle(data, next_seed());
  }

  /// Same, under an explicit seed (does not advance the draw sequence).
  /// `const`: safe to call concurrently on one shared context.
  template <typename T>
  core::permutation_plan shuffle(std::span<T> data, std::uint64_t seed) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return shuffle_raw(data.data(), data.size(), static_cast<std::uint32_t>(sizeof(T)), seed);
  }

  /// The type-erased draw behind shuffle<T>: permute n records of
  /// elem_bytes each at `data` in place (any alignment).  The service
  /// layer's shuffle jobs run through here, so a service shuffle is a
  /// context draw by construction.
  core::permutation_plan shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                                     std::uint64_t seed) const {
    const core::backend_options o = execution_options();
    const core::permutation_plan plan = core::resolve_plan(n, elem_bytes, o);
    const core::feedback_scope fb(plan, n, elem_bytes);
    core::make_executor(plan, o)->shuffle_raw(data, n, elem_bytes, seed);
    return plan;
  }

  /// Sample pi uniform over S_n (pi[i] = image of i).  The executor fills
  /// pi in place -- iota + in-place shuffle for the RAM backends, a bulk
  /// device read for em -- so there is no copy-in/copy-out round trip.
  /// plan_for(n, 8) names the plan it runs.
  [[nodiscard]] std::vector<std::uint64_t> random_permutation(std::uint64_t n) {
    return random_permutation(n, next_seed());
  }
  [[nodiscard]] std::vector<std::uint64_t> random_permutation(std::uint64_t n,
                                                              std::uint64_t seed) const {
    const core::backend_options o = execution_options();
    const core::permutation_plan plan = core::resolve_plan(n, sizeof(std::uint64_t), o);
    std::vector<std::uint64_t> pi(n);
    const core::feedback_scope fb(plan, n, sizeof(std::uint64_t));
    core::make_executor(plan, o)->fill_random_permutation(std::span<std::uint64_t>(pi), seed);
    return pi;
  }

  /// The plan a shuffle of `n` records of `elem_bytes` would run, without
  /// running it (inspect plan.explain() for the evidence).  resolve_plan
  /// is deterministic, so this is the plan a draw of that shape runs.
  [[nodiscard]] core::permutation_plan plan_for(std::uint64_t n,
                                               std::uint32_t elem_bytes) const {
    return core::resolve_plan(n, elem_bytes, execution_options());
  }

  /// The exact options every draw executes with: the curated fields
  /// projected onto the expert engine options, plus the context's
  /// profile.  Public so a layer that schedules its own execution
  /// (svc::server's fill jobs, perfbench's replays) can run the identical
  /// plan/executor path: with `o = execution_options()`,
  /// `make_executor(resolve_plan(n, sizeof(T), o), o)->shuffle(data, s)`
  /// is bit-for-bit `shuffle(data, s)` (ContextFacade.
  /// DrawsEqualTheExecutorPath).  The options carry no seed -- executors
  /// take theirs per call -- so the parameter is unused; callers that
  /// pass a draw's seed still compile.  The returned options point at
  /// this context's profile; they must not outlive it.
  [[nodiscard]] core::backend_options execution_options(std::uint64_t /*unused*/ = 0) const {
    core::backend_options o = opt_.engine;
    o.which = opt_.which;
    if (opt_.parallelism != 0) o.parallelism = opt_.parallelism;
    if (opt_.memory_budget_bytes != 0) o.memory_budget_bytes = opt_.memory_budget_bytes;
    o.repetitions = opt_.repetitions;
    o.profile = &profile_;
    return o;
  }

  /// The profile the planner reads.
  [[nodiscard]] const core::machine_profile& profile() const noexcept { return profile_; }

  /// The transport the distributed cgm backend runs on: the injected one,
  /// else the registry's shared transport for the context's rank count.
  [[nodiscard]] comm::transport& transport() {
    if (opt_.engine.transport != nullptr) return *opt_.engine.transport;
    return core::shared_transport(opt_.parallelism != 0 ? opt_.parallelism : 1);
  }

  /// Restart the draw sequence at `seed`.  Exclusive: not safe to run
  /// concurrently with draw-sequence calls (the pair of stores is not one
  /// atomic transaction).
  void reseed(std::uint64_t seed) noexcept {
    seed_.store(seed, std::memory_order_relaxed);
    draws_.store(0, std::memory_order_relaxed);
  }

  /// Calls consumed from the draw sequence so far.
  [[nodiscard]] std::uint64_t draws() const noexcept {
    return draws_.load(std::memory_order_relaxed);
  }

 private:
  /// Seed of draw k: the base seed verbatim first (so draw 0 replays an
  /// explicit-seed call with the base seed), then streams derived like
  /// core/repeat.hpp's permutation_stream -- mixing k through its own
  /// mix64 before xoring keeps contexts with ADJACENT base seeds on
  /// disjoint sequences (mix64(seed + k) would make seed 101's draw k
  /// collide with seed 100's draw k+1).  The fetch_add reserves the call
  /// index, so concurrent sequence draws never reuse a seed.
  [[nodiscard]] std::uint64_t next_seed() noexcept {
    const std::uint64_t k = draws_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t s = seed_.load(std::memory_order_relaxed);
    return k == 0 ? s : rng::mix64(s ^ rng::mix64(k + 0x9E3779B97F4A7C15ull));
  }

  const context_options opt_;
  const core::machine_profile profile_;
  std::atomic<std::uint64_t> seed_ = 0;
  std::atomic<std::uint64_t> draws_ = 0;
};

}  // namespace cgp
