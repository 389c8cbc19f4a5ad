// obs/trace.hpp
//
// The tracing half of the observability layer: RAII phase spans recorded
// into a bounded lock-free ring buffer, exportable as Chrome trace_event
// JSON ("JSON Array Format" -- load the file in chrome://tracing or
// https://ui.perfetto.dev).  Span taxonomy (DESIGN.md section 8):
//
//   cat "plan"     -- planner work: "resolve", "calibrate"
//   cat "exec"     -- executor phases: "execute", "fisher-yates", "fill",
//                     "shuffle", "readback"
//   cat "split"    -- smp/cgm recursion: "split", "leaf"
//   cat "scatter"  -- em distribution levels: "scatter-level"
//   cat "io"       -- em block device work: "io-wait"
//   cat "exchange" -- comm/cgm supersteps: "exchange"
//   cat "batch"    -- svc scheduling: "job", "batch"
//   cat "svc"      -- service job execution: "svc.job"
//   cat "wire"     -- RPC round trips: "wire.call", "wire.<opcode>"
//
// Tracing is off by default; it turns on when the CGP_TRACE environment
// variable names an output file (the trace is dumped there at process
// exit, from ANY binary linking the library -- no per-binary code) or when
// set_tracing(true) is called.  A disarmed span is two relaxed loads and
// no clock read.  Span names must have static storage duration (string
// literals): slots store the pointer, not a copy, so recording stays
// wait-free.
//
// DISTRIBUTED TRACE CONTEXT.  Every armed span carries a
// (trace_id, span_id, parent_id) triple.  A thread-local trace_context
// holds the innermost open span; a new armed span joins its trace (or
// starts a fresh one when the thread has none) and parents under it.
// The context crosses process boundaries: svc::wire attaches it to
// request frames and comm::socket_transport to exchange frames (both as
// an optional 24-byte extension gated on a flags bit, so old peers keep
// working), and the receiving side installs it with trace_scope /
// adopt_trace.  Dumps from different processes can then be concatenated
// into one stitched trace: ids are process-salted so they never collide,
// and every dump carries a wall-clock anchor record mapping its private
// steady-clock epoch to the shared wall clock (see wall_epoch_ns()).
//
// Spans also feed the plan-feedback loop: when the current thread has a
// phase_collector installed, a finished span reports {name, seconds} to it
// even with tracing off.  core::feedback_scope (core/registry.hpp)
// installs one around every executed draw, which is how measured phase
// times reach plan::explain() without the executors knowing about plans.
// Worker threads spawned by an engine have no collector, so a backend's
// measured phases are what its *calling* thread observes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace cgp::obs {

/// One named phase with a duration in seconds.  Labels are string
/// literals, like span names.
struct phase_time {
  const char* label = "";
  double seconds = 0.0;
};

/// Add `seconds` to the phase labelled `label` (labels compare by content)
/// among phases[from..], appending the phase when it is new.
void add_phase(std::vector<phase_time>& phases, const char* label, double seconds,
               std::size_t from = 0);

/// RAII scope that captures {label, seconds} from every obs::span finishing
/// on this thread, summed by label in first-seen order.  Nesting replaces
/// the outer collector until the inner one is destroyed (the inner job
/// owns its phases).  Collected phases live in a thread-local buffer that
/// keeps its capacity, so a warm thread collects without allocating.
class phase_collector {
 public:
  phase_collector() noexcept;
  ~phase_collector();
  phase_collector(const phase_collector&) = delete;
  phase_collector& operator=(const phase_collector&) = delete;

  /// Phases seen so far; valid until the next phase is noted on this
  /// thread or this collector is destroyed.
  [[nodiscard]] std::span<const phase_time> phases() const noexcept;

 private:
  friend void note_phase(const char* label, double seconds) noexcept;
  phase_collector* prev_;
  std::size_t begin_;  ///< this collector's first phase in the thread's buffer
};

/// Does the calling thread have a phase_collector installed?
[[nodiscard]] bool phase_collector_active() noexcept;

/// Add `seconds` to phase `label` of the calling thread's innermost
/// collector; no-op without one.  Called by obs::span on destruction.
void note_phase(const char* label, double seconds) noexcept;

/// Is span recording into the ring buffer active?
[[nodiscard]] bool tracing() noexcept;

/// Turn ring-buffer recording on or off programmatically (overrides the
/// CGP_TRACE default; does not change where/if the exit dump goes).
void set_tracing(bool on) noexcept;

/// The propagatable part of a trace: which trace this thread is inside
/// (trace_id) and the innermost open span (span_id, the parent of any span
/// opened next).  trace_id == 0 means "no trace"; ids are never 0 once a
/// trace starts.  Exactly the triple that crosses the wire.
struct trace_context {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// A trace context's wire form: the optional 24-byte extension that both
/// the transport frames (comm/socket_transport.cpp) and the RPC requests
/// (svc/wire.cpp) carry after their header when a flag bit says so.  Host
/// byte order, like both headers.
struct trace_ext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t reserved = 0;  ///< always 0: room for a future context field
};
static_assert(sizeof(trace_ext) == 24);
static_assert(std::is_trivially_copyable_v<trace_ext>);

/// The calling thread's current trace context ({0, 0} when none).
[[nodiscard]] trace_context current_trace() noexcept;

/// Replace the calling thread's trace context (prefer trace_scope).
void set_current_trace(trace_context ctx) noexcept;

/// Install `ctx` only if the calling thread has no trace yet -- the
/// receive-side primitive: a deserialized remote context must not clobber
/// a trace the thread is already inside.
void adopt_trace(trace_context ctx) noexcept;

/// A fresh process-salted nonzero trace id (wall clock ^ pid seeded, so
/// ids from concurrently tracing processes do not collide).
[[nodiscard]] std::uint64_t new_trace_id() noexcept;

/// Wall-clock nanoseconds since the Unix epoch at the process trace epoch
/// (the steady-clock zero all span timestamps count from).  Dump consumers
/// add this to a span's ts to place it on the shared wall-clock timeline;
/// every Chrome dump embeds it as a "clock_anchor" metadata record.
[[nodiscard]] std::uint64_t wall_epoch_ns() noexcept;

/// RAII guard that installs a trace context on this thread and restores
/// the previous one on destruction.  Used wherever a unit of work executes
/// on a thread that did not create it: scheduler workers picking up a job,
/// transport rank threads, wire request handlers.
class trace_scope {
 public:
  explicit trace_scope(trace_context ctx) noexcept : prev_(current_trace()) {
    set_current_trace(ctx);
  }
  trace_scope(const trace_scope&) = delete;
  trace_scope& operator=(const trace_scope&) = delete;
  ~trace_scope() { set_current_trace(prev_); }

 private:
  trace_context prev_;
};

/// One completed span, as read back from the ring.
struct trace_event {
  const char* name = nullptr;   ///< static-storage span name
  const char* cat = nullptr;    ///< static-storage category
  std::uint64_t ts_ns = 0;      ///< start, ns since process trace epoch
  std::uint64_t dur_ns = 0;     ///< duration in ns
  std::uint32_t tid = 0;        ///< small per-thread id (registration order)
  std::uint64_t trace_id = 0;   ///< trace this span belongs to
  std::uint64_t span_id = 0;    ///< this span's id (unique in-process)
  std::uint64_t parent_id = 0;  ///< enclosing span's id, 0 for a root
};

namespace detail {
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;
[[nodiscard]] std::uint64_t next_span_id() noexcept;
void record_event(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, std::uint64_t trace_id,
                  std::uint64_t span_id, std::uint64_t parent_id) noexcept;
}  // namespace detail

/// RAII phase span.  `name` and `cat` must be string literals (or
/// otherwise outlive the process trace).  Construction arms the span only
/// when tracing is on or the calling thread is collecting phase times;
/// disarmed construction and destruction never read the clock and leave
/// the thread's trace context untouched.  An armed span joins the thread's
/// current trace (starting a new one if there is none), becomes the
/// current context for its lifetime, and restores the previous context on
/// destruction.
class span {
 public:
  span(const char* name, const char* cat) noexcept : name_(name), cat_(cat) {
    if (tracing() || phase_collector_active()) {
      start_ns_ = detail::trace_now_ns();
      armed_ = true;
      prev_ = current_trace();
      trace_id_ = prev_.trace_id != 0 ? prev_.trace_id : new_trace_id();
      span_id_ = detail::next_span_id();
      set_current_trace({trace_id_, span_id_});
    }
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  ~span() {
    if (!armed_) return;
    set_current_trace(prev_);
    const std::uint64_t end_ns = detail::trace_now_ns();
    const std::uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
    if (tracing()) {
      detail::record_event(name_, cat_, start_ns_, dur, trace_id_, span_id_,
                           prev_.span_id);
    }
    note_phase(name_, static_cast<double>(dur) * 1e-9);
  }

  /// This span's ids while it is open (0s when disarmed) -- lets a caller
  /// attach the exact context to an outgoing frame.
  [[nodiscard]] trace_context context() const noexcept {
    return {trace_id_, span_id_};
  }

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  trace_context prev_{};
  bool armed_ = false;
};

/// Completed spans currently held in the ring, oldest first.  Events that
/// were overwritten (ring capacity exceeded) are gone; dropped_events()
/// counts them.
[[nodiscard]] std::vector<trace_event> trace_snapshot();

/// Spans evicted by ring wrap-around since the last clear.  The monotone
/// process-lifetime eviction count (never reset) is also kept in the
/// registry counter `obs.trace.dropped_spans` and surfaced in
/// svc metrics_snapshot() and the trace dump footer.
[[nodiscard]] std::uint64_t dropped_events() noexcept;

/// Forget all recorded spans (tests; also resets the dropped count).
void clear_trace();

/// Write the ring contents as a Chrome trace_event JSON array to `path`.
/// The dump contains, besides one "ph":"X" record per span (with
/// args.trace_id / span_id / parent_id as hex strings), two "ph":"M"
/// metadata records: a "clock_anchor" header carrying wall_epoch_ns and
/// the pid, and a "trace_summary" footer carrying events_written and
/// dropped_spans.  Records use the real pid, so dumps from multiple
/// processes merge cleanly.  Returns false (and prints to stderr) on I/O
/// failure.
bool write_chrome_trace(const std::string& path);

}  // namespace cgp::obs
