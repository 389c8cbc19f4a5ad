#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rng/splitmix64.hpp"
#include "util/json.hpp"

namespace cgp::obs {

namespace {

// Ring capacity.  64Ki events x 80 bytes/slot = 5 MiB, allocated lazily
// on first record (the ring lives in a function-local static).
constexpr std::uint64_t kRingCapacity = std::uint64_t{1} << 16;

// One ring slot.  All fields are atomics so concurrent write/read is
// data-race-free (sanitizer-clean); `seq` is the validity stamp: a reader
// accepts the slot only when seq == claim_index + 1 before AND after
// reading the payload.  `sig` is a payload checksum closing the remaining
// seqlock hole: if a writer stalls for a full ring lap, a reader could see
// matching seq values around a torn payload -- the checksum (which mixes
// the claim index) then disagrees and the record is discarded instead of
// surfacing torn.
struct slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> cat{nullptr};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint32_t> tid{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> parent_id{0};
  std::atomic<std::uint64_t> sig{0};
  std::atomic<std::uint64_t> seq{0};
};

std::uint64_t slot_sig(std::uint64_t idx, const char* name, const char* cat,
                       std::uint64_t ts_ns, std::uint64_t dur_ns, std::uint32_t tid,
                       std::uint64_t trace_id, std::uint64_t span_id,
                       std::uint64_t parent_id) noexcept {
  std::uint64_t h = rng::mix64(idx ^ 0x9E3779B97F4A7C15ull);
  h = rng::mix64(h ^ reinterpret_cast<std::uintptr_t>(name));
  h = rng::mix64(h ^ reinterpret_cast<std::uintptr_t>(cat));
  h = rng::mix64(h ^ ts_ns);
  h = rng::mix64(h ^ dur_ns);
  h = rng::mix64(h ^ tid);
  h = rng::mix64(h ^ trace_id);
  h = rng::mix64(h ^ span_id);
  return rng::mix64(h ^ parent_id);
}

struct ring_buffer {
  std::vector<slot> slots{kRingCapacity};
  std::atomic<std::uint64_t> head{0};  ///< next claim index (monotone)
  std::atomic<std::uint64_t> base{0};  ///< logical start (moved by clear)
};

ring_buffer& ring() {
  static ring_buffer r;
  return r;
}

std::uint32_t this_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// The two trace epochs, captured together so one is a translation of the
// other: span timestamps count from the steady epoch (immune to wall-clock
// steps mid-run); the wall reading anchors them on the cross-process
// timeline.
struct trace_epochs {
  std::chrono::steady_clock::time_point steady;
  std::uint64_t wall_ns;
};

const trace_epochs& epochs() noexcept {
  static const trace_epochs e = [] {
    trace_epochs p;
    p.steady = std::chrono::steady_clock::now();
    p.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return p;
  }();
  return e;
}

// Process-salted id sequence: base mixes the wall clock and pid so two
// processes tracing the same distributed job never mint colliding ids.
std::uint64_t next_id() noexcept {
  static const std::uint64_t salt =
      rng::mix64(epochs().wall_ns ^ (static_cast<std::uint64_t>(::getpid()) << 32));
  static std::atomic<std::uint64_t> seq{0};
  const std::uint64_t id =
      rng::mix64(salt + seq.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

thread_local trace_context t_trace{};

thread_local phase_collector* t_collector = nullptr;

// The phases of every collector installed on this thread, innermost last:
// a collector owns the tail from its begin_, so nesting needs no storage
// of its own.
thread_local std::vector<phase_time> t_phases;

// -1 = not yet resolved from the environment.
std::atomic<int> g_tracing{-1};

std::string& trace_dump_path() {
  static std::string path;
  return path;
}

void dump_trace_at_exit() {
  const std::string& path = trace_dump_path();
  if (!path.empty()) write_chrome_trace(path);
}

int resolve_tracing_slow() noexcept {
  const char* env = std::getenv("CGP_TRACE");
  int v = 0;
  if (env != nullptr && env[0] != '\0') {
    trace_dump_path() = env;
    // Construct the ring, the clock epochs, AND the metrics registry (the
    // dump footer reads the dropped-spans counter) BEFORE registering the
    // dump: exit runs atexit handlers and function-local-static
    // destructors in one reverse sequence, so anything the handler reads
    // must be constructed earlier than the registration.
    (void)ring();
    (void)epochs();
    (void)get_counter("obs.trace.dropped_spans");
    std::atexit(&dump_trace_at_exit);
    v = 1;
  }
  int expected = -1;
  g_tracing.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  return g_tracing.load(std::memory_order_relaxed);
}

std::string hex_id(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

bool tracing() noexcept {
  const int v = g_tracing.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return resolve_tracing_slow() != 0;
}

void set_tracing(bool on) noexcept {
  // Resolve the environment first so a later tracing() call cannot
  // overwrite the explicit choice (and CGP_TRACE still registers its dump).
  static_cast<void>(tracing());
  g_tracing.store(on ? 1 : 0, std::memory_order_relaxed);
}

void add_phase(std::vector<phase_time>& phases, const char* label, double seconds,
               std::size_t from) {
  for (std::size_t i = from; i < phases.size(); ++i) {
    if (std::strcmp(phases[i].label, label) == 0) {
      phases[i].seconds += seconds;
      return;
    }
  }
  phases.push_back({label, seconds});
}

phase_collector::phase_collector() noexcept : prev_(t_collector), begin_(t_phases.size()) {
  t_collector = this;
}

phase_collector::~phase_collector() {
  t_phases.resize(begin_);
  t_collector = prev_;
}

std::span<const phase_time> phase_collector::phases() const noexcept {
  return std::span<const phase_time>(t_phases).subspan(begin_);
}

bool phase_collector_active() noexcept { return t_collector != nullptr; }

void note_phase(const char* label, double seconds) noexcept {
  if (t_collector != nullptr) add_phase(t_phases, label, seconds, t_collector->begin_);
}

trace_context current_trace() noexcept { return t_trace; }

void set_current_trace(trace_context ctx) noexcept { t_trace = ctx; }

void adopt_trace(trace_context ctx) noexcept {
  if (t_trace.trace_id == 0) t_trace = ctx;
}

std::uint64_t new_trace_id() noexcept { return next_id(); }

std::uint64_t wall_epoch_ns() noexcept { return epochs().wall_ns; }

namespace detail {

std::uint64_t trace_now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epochs().steady)
          .count());
}

std::uint64_t next_span_id() noexcept { return next_id(); }

void record_event(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, std::uint64_t trace_id,
                  std::uint64_t span_id, std::uint64_t parent_id) noexcept {
  ring_buffer& r = ring();
  const std::uint64_t idx = r.head.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kRingCapacity) {
    // This claim reuses a slot: the span that lived there is evicted.
    static counter& dropped = get_counter("obs.trace.dropped_spans");
    dropped.add();
  }
  slot& s = r.slots[idx & (kRingCapacity - 1)];
  const std::uint32_t tid = this_thread_id();
  s.seq.store(0, std::memory_order_release);  // invalidate while writing
  s.name.store(name, std::memory_order_relaxed);
  s.cat.store(cat, std::memory_order_relaxed);
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.tid.store(tid, std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.span_id.store(span_id, std::memory_order_relaxed);
  s.parent_id.store(parent_id, std::memory_order_relaxed);
  s.sig.store(slot_sig(idx, name, cat, ts_ns, dur_ns, tid, trace_id, span_id, parent_id),
              std::memory_order_relaxed);
  s.seq.store(idx + 1, std::memory_order_release);
}

}  // namespace detail

std::vector<trace_event> trace_snapshot() {
  ring_buffer& r = ring();
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::uint64_t base = r.base.load(std::memory_order_acquire);
  const std::uint64_t lo =
      std::max(base, head > kRingCapacity ? head - kRingCapacity : 0);
  std::vector<trace_event> out;
  out.reserve(static_cast<std::size_t>(head - lo));
  for (std::uint64_t idx = lo; idx < head; ++idx) {
    const slot& s = r.slots[idx & (kRingCapacity - 1)];
    if (s.seq.load(std::memory_order_acquire) != idx + 1) continue;  // in flight / overwritten
    trace_event e;
    e.name = s.name.load(std::memory_order_relaxed);
    e.cat = s.cat.load(std::memory_order_relaxed);
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
    e.tid = s.tid.load(std::memory_order_relaxed);
    e.trace_id = s.trace_id.load(std::memory_order_relaxed);
    e.span_id = s.span_id.load(std::memory_order_relaxed);
    e.parent_id = s.parent_id.load(std::memory_order_relaxed);
    const std::uint64_t sig = s.sig.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) == idx + 1 && e.name != nullptr &&
        sig == slot_sig(idx, e.name, e.cat, e.ts_ns, e.dur_ns, e.tid, e.trace_id,
                        e.span_id, e.parent_id)) {
      out.push_back(e);
    }
  }
  return out;
}

std::uint64_t dropped_events() noexcept {
  ring_buffer& r = ring();
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  const std::uint64_t base = r.base.load(std::memory_order_relaxed);
  const std::uint64_t recorded = head > base ? head - base : 0;
  return recorded > kRingCapacity ? recorded - kRingCapacity : 0;
}

void clear_trace() {
  ring_buffer& r = ring();
  r.base.store(r.head.load(std::memory_order_acquire), std::memory_order_release);
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<trace_event> events = trace_snapshot();
  const auto pid = static_cast<std::uint64_t>(::getpid());
  std::vector<json_record> records;
  records.reserve(events.size() + 2);
  {
    // Header: the steady->wall translation for this process, so dumps from
    // different machines/processes can be merged onto one timeline.
    json_record anchor;
    anchor.add("name", "clock_anchor")
        .add("cat", "meta")
        .add("ph", "M")
        .add("ts", 0.0)
        .add("dur", 0.0)
        .add("pid", pid)
        .add("tid", std::uint32_t{0})
        .add_raw_json("args", "{\"wall_epoch_ns\": \"" +
                                  std::to_string(wall_epoch_ns()) +
                                  "\", \"pid\": " + std::to_string(pid) + "}");
    records.push_back(std::move(anchor));
  }
  for (const trace_event& e : events) {
    json_record rec;
    rec.add("name", e.name)
        .add("cat", e.cat == nullptr ? "misc" : e.cat)
        .add("ph", "X")
        .add("ts", static_cast<double>(e.ts_ns) / 1000.0)
        .add("dur", static_cast<double>(e.dur_ns) / 1000.0)
        .add("pid", pid)
        .add("tid", e.tid)
        .add_raw_json("args", "{\"trace_id\": \"" + hex_id(e.trace_id) +
                                  "\", \"span_id\": \"" + hex_id(e.span_id) +
                                  "\", \"parent_id\": \"" + hex_id(e.parent_id) + "\"}");
    records.push_back(std::move(rec));
  }
  {
    // Footer: how complete this dump is.
    json_record footer;
    footer.add("name", "trace_summary")
        .add("cat", "meta")
        .add("ph", "M")
        .add("ts", 0.0)
        .add("dur", 0.0)
        .add("pid", pid)
        .add("tid", std::uint32_t{0})
        .add_raw_json("args",
                      "{\"events_written\": " + std::to_string(events.size()) +
                          ", \"dropped_spans\": " +
                          std::to_string(get_counter("obs.trace.dropped_spans").value()) +
                          "}");
    records.push_back(std::move(footer));
  }
  return write_json_records(path, records);
}

}  // namespace cgp::obs
