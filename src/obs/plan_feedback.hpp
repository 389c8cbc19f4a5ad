// obs/plan_feedback.hpp
//
// First half of the ROADMAP-5 feedback loop: a bounded process-wide log of
// (plan, measured phase times) per executed job, so plan::explain() can
// print predicted-vs-measured deltas and flag mispredictions.  The obs
// layer stays below core in the dependency order -- records hold plain
// strings and doubles, never core types; core::feedback_scope
// (core/executor.hpp) converts a permutation_plan into a record around
// every executed draw.
//
// Measured phase times come from obs::span via a thread-local
// phase_collector: feedback_scope installs a collector, runs the
// executor, and every span that finishes on that thread while it is
// installed adds {label, seconds} to it.  Labels aggregate (a span
// repeated per recursion level sums into one phase).  Worker threads
// spawned by an engine have no collector, so a backend's measured phases
// are what its *calling* thread observes: "fisher-yates" for sequential,
// "fill"/"shuffle"/"readback" for em, an overall "execute" everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cgp::obs {

/// One named phase with a duration in seconds.
struct phase_time {
  std::string label;
  double seconds = 0.0;
};

/// One executed job: the plan's prediction next to what was measured.
struct plan_feedback_record {
  std::string backend;        ///< plan backend name ("sequential", "smp", ...)
  std::uint64_t n = 0;        ///< permutation size
  std::uint32_t elem_bytes = 0;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;              ///< wall time of the whole job
  std::vector<phase_time> predicted_phases;   ///< from the plan's estimates
  std::vector<phase_time> measured_phases;    ///< from the phase collector
};

/// RAII scope that captures {label, seconds} from every obs::span finishing
/// on this thread.  Nesting replaces the outer collector until the inner
/// one is destroyed (the inner job owns its phases).
class phase_collector {
 public:
  phase_collector() noexcept;
  ~phase_collector();
  phase_collector(const phase_collector&) = delete;
  phase_collector& operator=(const phase_collector&) = delete;

  /// Phases seen so far, label-aggregated, in first-seen order.
  [[nodiscard]] const std::vector<phase_time>& phases() const noexcept { return phases_; }

 private:
  friend void note_phase(const char* label, double seconds) noexcept;
  void add(const char* label, double seconds);
  std::vector<phase_time> phases_;
  phase_collector* prev_;
};

/// Does the calling thread have a phase_collector installed?
[[nodiscard]] bool phase_collector_active() noexcept;

/// Add `seconds` to phase `label` of the calling thread's innermost
/// collector; no-op without one.  Called by obs::span on destruction.
void note_phase(const char* label, double seconds) noexcept;

/// Append `rec` to the process-wide feedback log (bounded: the oldest
/// records fall off beyond kLogCapacity).  No-op when obs is disabled.
inline constexpr std::size_t kFeedbackLogCapacity = 1024;
void record_plan_feedback(plan_feedback_record rec);

/// Everything currently in the log, oldest first.
[[nodiscard]] std::vector<plan_feedback_record> plan_feedback_log();

/// Label-aggregated view of the log restricted to one backend, the shape
/// plan::explain() consumes.
struct backend_feedback {
  std::uint64_t jobs = 0;                   ///< records aggregated
  double predicted_seconds = 0.0;           ///< summed over records
  double measured_seconds = 0.0;            ///< summed over records
  std::vector<phase_time> predicted_phases; ///< summed by label
  std::vector<phase_time> measured_phases;  ///< summed by label
};
[[nodiscard]] backend_feedback plan_feedback_for(std::string_view backend);

/// Forget all recorded feedback (tests).
void clear_plan_feedback();

}  // namespace cgp::obs
