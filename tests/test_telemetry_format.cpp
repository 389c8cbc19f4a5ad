// Byte-for-byte pins of the telemetry documents: the registry's snapshot
// JSON, its Prometheus text exposition, the time-series sampler's ring
// and a service's metrics snapshot.  The other telemetry tests search the
// documents for substrings; these hold every byte, so a change to how a
// metric is rendered shows here first.  The binary is its own process, so
// the registry holds only what these tests register (and what the
// service's jobs register in the last test, whose registry section is
// masked).  Numbers that depend on timing -- timestamps, rates, latency
// quantiles -- are masked before comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <string>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "svc/server.hpp"

namespace {

using namespace cgp;

/// `text` with every match of `pattern` replaced by `with` ($1 etc. allowed).
std::string mask(const std::string& text, const char* pattern, const char* with) {
  return std::regex_replace(text, std::regex(pattern), with);
}

// One registry of every kind: a counter, a gauge with a peak, a histogram
// with an exemplar, and a counter family and a histogram family with two
// labels each (the histogram family's overflow slot holds one hit, the
// counter family's none).
void fill_registry() {
  obs::get_counter("fmt.requests").add(42);
  obs::gauge& g = obs::get_gauge("fmt.depth");
  g.set(3);
  g.note_peak(9);
  obs::histogram& h = obs::get_histogram("fmt.latency_ns");
  h.record(100);
  h.record(2'000, /*trace_id=*/0xABCDEF);
  h.record(50'000);
  obs::counter_family& cf = obs::get_counter_family("fmt.done.by_client");
  cf.with(7).add(5);
  cf.with(2).add(1);
  obs::histogram_family& hf = obs::get_histogram_family("fmt.latency_ns.by_client");
  hf.with(7).record(300);
  hf.with(7).record(900, /*trace_id=*/0x1234);
  hf.with(2).record(70);
  hf.with(std::uint64_t(-1)).record(5);  // the unusable label: overflow
}

constexpr const char* kSnapshotJson =
    R"doc({"counters": {"fmt.requests": 42}, "gauges": {"fmt.depth": {"value": 3, "peak": 9}}, )doc"
    R"doc("histograms": {"fmt.latency_ns": {"count": 3, "sum": 52100, "max": 50000, "p50": 1920, )doc"
    R"doc("p90": 49152, "p99": 49152, "p99_exemplar_trace_id": "11259375"}}, )doc"
    R"doc("counter_families": {"fmt.done.by_client": {"2": 1, "7": 5, "overflow": 0}}, )doc"
    R"doc("histogram_families": {"fmt.latency_ns.by_client": {"2": {"count": 1, "sum": 70, )doc"
    R"doc("max": 70, "p50": 64, "p90": 64, "p99": 64, "p99_exemplar_trace_id": "0"}, )doc"
    R"doc("7": {"count": 2, "sum": 1200, "max": 900, "p50": 288, "p90": 896, "p99": 896, )doc"
    R"doc("p99_exemplar_trace_id": "4660"}, "overflow": 1}}})doc";

constexpr const char* kExposition = R"doc(# TYPE cgp_fmt_depth gauge
cgp_fmt_depth 3
# TYPE cgp_fmt_depth_peak gauge
cgp_fmt_depth_peak 9
# TYPE cgp_fmt_latency_ns summary
cgp_fmt_latency_ns{quantile="0.5"} 1920
cgp_fmt_latency_ns{quantile="0.9"} 49152
cgp_fmt_latency_ns{quantile="0.99"} 49152
cgp_fmt_latency_ns_sum 52100
cgp_fmt_latency_ns_count 3
# exemplar cgp_fmt_latency_ns trace_id=0x0000000000abcdef
# TYPE cgp_fmt_requests_total counter
cgp_fmt_requests_total 42
# TYPE cgp_fmt_done_by_client_total counter
cgp_fmt_done_by_client_total{client_id="2"} 1
cgp_fmt_done_by_client_total{client_id="7"} 5
# TYPE cgp_fmt_latency_ns_by_client summary
cgp_fmt_latency_ns_by_client{client_id="2",quantile="0.5"} 64
cgp_fmt_latency_ns_by_client{client_id="2",quantile="0.9"} 64
cgp_fmt_latency_ns_by_client{client_id="2",quantile="0.99"} 64
cgp_fmt_latency_ns_by_client_sum{client_id="2"} 70
cgp_fmt_latency_ns_by_client_count{client_id="2"} 1
cgp_fmt_latency_ns_by_client{client_id="7",quantile="0.5"} 288
cgp_fmt_latency_ns_by_client{client_id="7",quantile="0.9"} 896
cgp_fmt_latency_ns_by_client{client_id="7",quantile="0.99"} 896
cgp_fmt_latency_ns_by_client_sum{client_id="7"} 1200
cgp_fmt_latency_ns_by_client_count{client_id="7"} 2
# exemplar cgp_fmt_latency_ns_by_client trace_id=0x0000000000001234
cgp_fmt_latency_ns_by_client_count{client_id="overflow"} 1
)doc";

constexpr const char* kRing =
    R"doc({"period_ms": 1000, "slots": 4, "samples_taken": 2, "wall_epoch_ns": "#", )doc"
    R"doc("series": ["fmt.depth", "fmt.latency_ns", "fmt.requests"], )doc"
    R"doc("samples": [{"t_ms": #, "values": [3, 3, 42]}, {"t_ms": #, "values": [-1, 4, 50]}], )doc"
    R"doc("deltas": [{"t_ms": #, "dt_ms": #, "values": [-4, 1, 8], "rates_per_s": [#, #, #]}]})doc";

TEST(TelemetryFormat, RegistryDocumentsAreByteStable) {
  obs::set_enabled(true);
  fill_registry();
  EXPECT_EQ(obs::snapshot_json(), kSnapshotJson);
  EXPECT_EQ(obs::prometheus_exposition(), kExposition);

  obs::sampler_options so;
  so.period_ms = 1000;
  so.slots = 4;
  obs::sampler ring(so);  // never started: only the two samples below
  ring.sample_now();
  obs::get_counter("fmt.requests").add(8);
  obs::get_gauge("fmt.depth").set(-1);
  obs::get_histogram("fmt.latency_ns").record(7);
  ring.sample_now();
  std::string js = ring.ring_json();
  js = mask(js, R"re("wall_epoch_ns": "\d+")re", R"re("wall_epoch_ns": "#")re");
  js = mask(js, R"re("(t_ms|dt_ms)": \d+)re", R"re("$1": #)re");
  js = mask(js, R"re(-?\d+\.\d{3})re", "#");  // rates_per_s: per-second over a timed dt
  EXPECT_EQ(js, kRing);
}

constexpr const char* kServerSnapshot =
    R"doc({"queue_depth": 0, "max_queue_depth": 1, "submitted": 2, "done": 2, "failed": 0, )doc"
    R"doc("rejected": 0, "singles": 2, "batches": 0, "batched_jobs": 0, )doc"
    R"doc("plan_cache": {"scope": "process", "lookups": 2, "hits": 1, "hit_rate": 0.5}, )doc"
    R"doc("job_latency": {"count": 2, "p50_ns": #, "p90_ns": #, "p99_ns": #, "max_ns": #, )doc"
    R"doc("p99_exemplar_trace_id": "0"}, "batch_size": {"count": 2, "p50": 1, "p99": 1, "max": 1}, )doc"
    R"doc("tenants": {"1": {"submitted": 1, "done": 1, "failed": 0, "rejected": 0, )doc"
    R"doc("latency": {"count": 1, "p50_ns": #, "p90_ns": #, "p99_ns": #, "max_ns": #, )doc"
    R"doc("p99_exemplar_trace_id": "0"}}, )doc"
    R"doc("3": {"submitted": 1, "done": 1, "failed": 0, "rejected": 0, )doc"
    R"doc("latency": {"count": 1, "p50_ns": #, "p90_ns": #, "p99_ns": #, "max_ns": #, )doc"
    R"doc("p99_exemplar_trace_id": "0"}}}, )doc"
    R"doc("trace": {"dropped_spans": 0, "tracing": false}, "metrics": #})doc";

// A fresh server after two jobs, each awaited before the next is submitted
// (so both run singly and the tick counts are fixed).  Latencies are
// masked, and so is the "metrics" section: it is the registry's
// snapshot_json(), pinned above, and which engine metrics the jobs
// register depends on the host's plan.
TEST(TelemetryFormat, ServerSnapshotIsByteStable) {
  obs::set_enabled(true);
  obs::set_tracing(false);
  svc::server srv;
  (void)srv.submit_permutation(3, 1000).get();
  (void)srv.submit_permutation(1, 1000).get();
  std::string js = srv.metrics_snapshot();
  const std::size_t at = js.find("\"metrics\": ");
  ASSERT_NE(at, std::string::npos);
  js = js.substr(0, at) + "\"metrics\": #}";
  js = mask(js, R"re("(p50|p90|p99|max)_ns": \d+)re", R"re("$1_ns": #)re");
  EXPECT_EQ(js, kServerSnapshot);
}

}  // namespace
