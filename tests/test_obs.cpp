// Unit tests for the observability layer (src/obs/): registry thread
// safety, histogram quantile accuracy against a sorted-vector oracle,
// snapshot determinism across scheduler worker counts, and the layer's
// one hard invariant -- instrumentation NEVER changes permutation output.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/philox.hpp"
#include "svc/server.hpp"

namespace {

using namespace cgp;

// ---------------------------------------------------------------------------
// Registry thread safety.  The CI sanitize job runs this under
// ASan+UBSan(+thread hammering): concurrent first-use registration of the
// same names, plus concurrent mutation of every metric kind, must be free
// of races and lose no increments.

TEST(ObsRegistry, ConcurrentRegistrationAndMutation) {
  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  obs::set_enabled(true);

  const std::uint64_t before = obs::get_counter("test.hammer.counter").value();
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go] {
      go.fetch_add(1);
      while (go.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        // Same names from every thread: exercises concurrent first-use
        // registration (iteration 0) and then pure hot-path mutation.
        obs::get_counter("test.hammer.counter").add();
        obs::get_gauge("test.hammer.gauge").set(t);
        obs::get_gauge("test.hammer.gauge").note_peak(t);
        obs::get_histogram("test.hammer.hist").record(static_cast<std::uint64_t>(i));
        // A few distinct names too, so registration interleaves with
        // lookups of other nodes.
        obs::get_counter("test.hammer.c" + std::to_string(i % 4)).add();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(obs::get_counter("test.hammer.counter").value() - before,
            static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t spread = 0;
  for (int k = 0; k < 4; ++k) {
    spread += obs::get_counter("test.hammer.c" + std::to_string(k)).value();
  }
  EXPECT_GE(spread, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(obs::get_gauge("test.hammer.gauge").peak(), kThreads - 1);
  EXPECT_GE(obs::get_histogram("test.hammer.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ObsRegistry, DisabledGateStopsMutation) {
  obs::set_enabled(true);
  obs::counter& c = obs::get_counter("test.gate.counter");
  const std::uint64_t v0 = c.value();
  obs::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), v0);
  obs::set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), v0 + 1);
}

TEST(ObsRegistry, SnapshotJsonIsWellFormedEnough) {
  obs::set_enabled(true);
  obs::get_counter("test.snapshot.counter").add(3);
  obs::get_histogram("test.snapshot.hist").record(42);
  const std::string js = obs::snapshot_json();
  // Structural smoke check (the CI workflow json.loads()-validates the
  // full document): braces balance and the three sections are present.
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'), std::count(js.begin(), js.end(), '}'));
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"gauges\""), std::string::npos);
  EXPECT_NE(js.find("\"histograms\""), std::string::npos);
  EXPECT_NE(js.find("test.snapshot.counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram quantiles vs a sorted-vector oracle.  The contract
// (obs/metrics.hpp): quantile(q) returns the lower bound of the bucket
// holding the nearest-rank order statistic -- so the returned value and
// the exact order statistic always map to the SAME bucket, bounding the
// relative error by the bucket width (<= 12.5%).

TEST(ObsHistogram, QuantilesMatchSortedOracle) {
  rng::philox4x64 e(0x0B5, 1);
  for (const std::size_t n : {1u, 2u, 100u, 10'000u}) {
    obs::histogram h;
    std::vector<std::uint64_t> vals;
    vals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Skewed spread across many octaves, like real latencies.
      const std::uint64_t v = e() % (std::uint64_t{1} << (4 + i % 40));
      vals.push_back(v);
      h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      // Nearest rank: the ceil(q*n)-th smallest, 1-based (clamped to >= 1).
      std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
      if (k < 1) k = 1;
      const std::uint64_t oracle = vals[k - 1];
      EXPECT_EQ(obs::histogram::bucket_of(h.quantile(q)), obs::histogram::bucket_of(oracle))
          << "n=" << n << " q=" << q << " oracle=" << oracle << " got=" << h.quantile(q);
    }
  }
}

TEST(ObsHistogram, BucketGeometry) {
  // Unit buckets are exact; beyond them every bucket's floor maps back to
  // that bucket, and bucket widths stay within 1/8 of the floor.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::histogram::bucket_of(v), v);
    EXPECT_EQ(obs::histogram::bucket_floor(v), v);
  }
  for (std::size_t b = 0; b < obs::histogram::kBuckets; ++b) {
    EXPECT_EQ(obs::histogram::bucket_of(obs::histogram::bucket_floor(b)), b) << "b=" << b;
  }
  obs::histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty histogram
}

// ---------------------------------------------------------------------------
// Snapshot determinism: the DETERMINISTIC subset of service metrics (jobs
// completed, latency observations recorded) must not depend on scheduler
// worker count.  Batch counts, cache hits, and gauge levels are
// schedule-dependent by design and deliberately not pinned.

TEST(ObsService, DeterministicCountersAcrossWorkerCounts) {
  obs::set_enabled(true);
  constexpr std::uint64_t kJobs = 24;
  auto run = [&](std::uint32_t workers) {
    const std::uint64_t done0 = obs::get_counter("svc.jobs.done").value();
    const std::uint64_t lat0 = obs::get_histogram("svc.job_latency_ns").count();
    svc::server_options so;
    so.seed = 0x0B5;
    so.scheduler_workers = workers;
    svc::server srv(so);
    std::vector<svc::future<svc::permutation>> futs;
    futs.reserve(kJobs);
    for (std::uint64_t j = 0; j < kJobs; ++j) {
      futs.push_back(srv.submit_permutation(/*client=*/j % 3, /*n=*/512));
    }
    for (auto& f : futs) (void)f.get();
    srv.close();
    EXPECT_EQ(obs::get_counter("svc.jobs.done").value() - done0, kJobs);
    EXPECT_EQ(obs::get_histogram("svc.job_latency_ns").count() - lat0, kJobs);
  };
  run(1);
  run(4);
}

TEST(ObsService, MetricsSnapshotReportsJobs) {
  obs::set_enabled(true);
  svc::server srv;
  (void)srv.submit_permutation(0, 1024).get();
  const std::string js = srv.metrics_snapshot();
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'), std::count(js.begin(), js.end(), '}'));
  for (const char* key : {"\"queue_depth\"", "\"rejected\"", "\"plan_cache\"", "\"hit_rate\"",
                          "\"job_latency\"", "\"batch_size\"", "\"metrics\""}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// The invariant everything above depends on: instrumentation observes and
// never perturbs.  Identical output with obs+tracing on, off, and
// mid-toggled.

TEST(ObsDeterminism, TracingNeverChangesShuffleOutput) {
  constexpr std::uint64_t kN = 200'000;  // above the cache cutoff: real splits
  constexpr std::uint64_t kSeed = 0x0B5D;
  auto draw = [&] {
    std::vector<std::uint64_t> v(kN);
    for (std::uint64_t i = 0; i < kN; ++i) v[i] = i;
    cgp::context ctx;
    (void)ctx.shuffle(std::span<std::uint64_t>(v), kSeed);
    return v;
  };

  obs::set_enabled(true);
  obs::set_tracing(false);
  const std::vector<std::uint64_t> base = draw();

  obs::set_tracing(true);
  obs::clear_trace();
  EXPECT_EQ(draw(), base);
  EXPECT_GT(obs::trace_snapshot().size(), 0u);  // tracing was really on

  obs::set_tracing(false);
  obs::set_enabled(false);
  EXPECT_EQ(draw(), base);
  obs::set_enabled(true);
  EXPECT_EQ(draw(), base);
}

// ---------------------------------------------------------------------------
// Distributed trace context: spans carry (trace_id, span_id, parent_id),
// nest via the thread-local context, and restore it on close; adopt_trace
// is the receive-side "install only if free" primitive.

TEST(ObsTrace, SpanContextNestsAndRestores) {
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::clear_trace();
  ASSERT_EQ(obs::current_trace().trace_id, 0u);
  obs::trace_context outer_ctx;
  obs::trace_context inner_ctx;
  {
    const obs::span outer("ctx.outer", "test");
    outer_ctx = obs::current_trace();
    EXPECT_NE(outer_ctx.trace_id, 0u);
    EXPECT_NE(outer_ctx.span_id, 0u);
    {
      const obs::span inner("ctx.inner", "test");
      inner_ctx = obs::current_trace();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);  // joined, not forked
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
    }
    EXPECT_EQ(obs::current_trace().span_id, outer_ctx.span_id);  // restored
  }
  EXPECT_EQ(obs::current_trace().trace_id, 0u);  // fully unwound

  // The recorded events carry the chain: inner parents under outer.
  bool found_inner = false;
  bool found_outer = false;
  for (const obs::trace_event& e : obs::trace_snapshot()) {
    if (std::string(e.name) == "ctx.inner") {
      found_inner = true;
      EXPECT_EQ(e.trace_id, outer_ctx.trace_id);
      EXPECT_EQ(e.span_id, inner_ctx.span_id);
      EXPECT_EQ(e.parent_id, outer_ctx.span_id);
    }
    if (std::string(e.name) == "ctx.outer") {
      found_outer = true;
      EXPECT_EQ(e.parent_id, 0u);  // a root span
    }
  }
  EXPECT_TRUE(found_inner);
  EXPECT_TRUE(found_outer);
  obs::set_tracing(false);
}

TEST(ObsTrace, AdoptTraceInstallsOnlyWhenFree) {
  obs::set_current_trace({});
  obs::adopt_trace({0xABCD, 0x1234});
  EXPECT_EQ(obs::current_trace().trace_id, 0xABCDu);  // free thread adopts
  obs::adopt_trace({0xEEEE, 0x2222});
  EXPECT_EQ(obs::current_trace().trace_id, 0xABCDu);  // occupied thread keeps
  obs::set_current_trace({});
}

TEST(ObsTrace, FreshTraceIdsAreNonzeroAndDistinct) {
  const std::uint64_t a = obs::new_trace_id();
  const std::uint64_t b = obs::new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(obs::wall_epoch_ns(), 0u);
  EXPECT_EQ(obs::wall_epoch_ns(), obs::wall_epoch_ns());  // one anchor per process
}

// ---------------------------------------------------------------------------
// Ring wraparound: recording past capacity evicts the oldest spans, the
// relative dropped count reconciles exactly, and the process-wide
// dropped-spans counter surfaces the evictions.

TEST(ObsTrace, RingWraparoundReconciles) {
  obs::set_enabled(true);
  obs::clear_trace();
  const std::uint64_t counter0 = obs::get_counter("obs.trace.dropped_spans").value();
  // Well past the 64Ki ring: the overshoot must show up as drops.
  constexpr std::uint64_t kWrite = (std::uint64_t{1} << 16) + 1000;
  for (std::uint64_t i = 0; i < kWrite; ++i) {
    obs::detail::record_event("wrap.ev", "test", i, 1, 1, i + 1, 0);
  }
  const std::vector<obs::trace_event> evs = obs::trace_snapshot();
  // Everything not dropped is in the snapshot: sizes reconcile exactly.
  EXPECT_EQ(evs.size() + obs::dropped_events(), kWrite);
  EXPECT_GE(obs::dropped_events(), 1000u);
  EXPECT_GE(obs::get_counter("obs.trace.dropped_spans").value() - counter0, 1000u);
  // Survivors are the NEWEST records (the tail of the write sequence).
  for (const obs::trace_event& e : evs) {
    EXPECT_GE(e.ts_ns, kWrite - evs.size());
  }
  obs::clear_trace();
}

// ---------------------------------------------------------------------------
// Concurrent dump-while-writing: snapshots taken while writers hammer the
// ring must never surface a torn record (fields from two different
// writers in one event) -- the seqlock + payload checksum contract.

TEST(ObsTrace, SnapshotWhileWritingSeesNoTornRecords) {
  obs::set_enabled(true);
  obs::clear_trace();
  constexpr int kWriters = 8;
  constexpr std::uint64_t kIters = 40'000;  // > ring capacity in total: real laps
  static const char* const kNames[kWriters] = {"torn.a", "torn.b", "torn.c", "torn.d",
                                               "torn.e", "torn.f", "torn.g", "torn.h"};
  std::atomic<int> go{0};
  std::atomic<int> active{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &go, &active] {
      // Writer t's records are internally consistent: every field derives
      // from k = t + 1, so any cross-writer mix is detectable.
      const std::uint64_t k = static_cast<std::uint64_t>(t) + 1;
      go.fetch_add(1);
      while (go.load() < kWriters) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        obs::detail::record_event(kNames[t], "torn", k * 10, k * 100, k, k * 2 + 1, k * 3);
      }
      active.fetch_sub(1);
    });
  }
  // Snapshot continuously WHILE the writers lap the ring.
  std::uint64_t checked = 0;
  while (active.load(std::memory_order_relaxed) > 0) {
    for (const obs::trace_event& e : obs::trace_snapshot()) {
      if (std::string(e.cat) != "torn") continue;
      ++checked;
      const std::uint64_t k = e.trace_id;
      ASSERT_GE(k, 1u);
      ASSERT_LE(k, static_cast<std::uint64_t>(kWriters));
      // Every field must belong to the SAME writer k.
      EXPECT_EQ(std::string(e.name), kNames[k - 1]);
      EXPECT_EQ(e.ts_ns, k * 10);
      EXPECT_EQ(e.dur_ns, k * 100);
      EXPECT_EQ(e.span_id, k * 2 + 1);
      EXPECT_EQ(e.parent_id, k * 3);
    }
  }
  for (auto& w : writers) w.join();
  // Post-join reconciliation: snapshot + dropped accounts for everything
  // written, up to a handful of slots a lapped writer re-invalidated (the
  // seqlock discards those rather than surfacing them torn -- at most one
  // in-flight record per writer can be a casualty).
  const std::vector<obs::trace_event> evs = obs::trace_snapshot();
  const std::uint64_t total = static_cast<std::uint64_t>(kWriters) * kIters;
  EXPECT_LE(evs.size() + obs::dropped_events(), total);
  EXPECT_GE(evs.size() + obs::dropped_events() + 2 * kWriters, total);
  for (const obs::trace_event& e : evs) {
    if (std::string(e.cat) != "torn") continue;
    ++checked;
    const std::uint64_t k = e.trace_id;
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, static_cast<std::uint64_t>(kWriters));
    EXPECT_EQ(std::string(e.name), kNames[k - 1]);
    EXPECT_EQ(e.span_id, k * 2 + 1);
  }
  EXPECT_GT(checked, 0u);
  obs::clear_trace();
}

// ---------------------------------------------------------------------------
// The Chrome dump carries the cross-process stitching metadata: a
// clock_anchor record (steady->wall translation) and a trace_summary
// footer (events written + dropped spans).

TEST(ObsTrace, ChromeDumpCarriesAnchorAndSummary) {
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::clear_trace();
  {
    const obs::span sp("dump.probe", "test");
  }
  obs::set_tracing(false);
  const std::string path = "obs_dump_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  for (const char* key : {"\"clock_anchor\"", "\"wall_epoch_ns\"", "\"trace_summary\"",
                          "\"dropped_spans\"", "\"trace_id\"", "\"span_id\"",
                          "\"parent_id\"", "\"dump.probe\""}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key;
  }
}

TEST(ObsDeterminism, FeedbackIsRecordedAndHarmless) {
  obs::set_enabled(true);
  core::clear_feedback();
  std::vector<std::uint64_t> v(4096);
  for (std::uint64_t i = 0; i < v.size(); ++i) v[i] = i;
  cgp::context ctx;
  (void)ctx.shuffle(std::span<std::uint64_t>(v), 7);
  bool any = false;
  for (const core::backend b : {core::backend::sequential, core::backend::smp, core::backend::em}) {
    if (core::feedback_for(b).jobs > 0) any = true;
  }
  EXPECT_TRUE(any);
}

// ---------------------------------------------------------------------------
// Plan feedback rows (core/registry.hpp): core::feedback_scope sums every
// draw into its backend's row under the row's mutex and counts it into
// `core.exec.<backend>`.

// 400 draws from 8 threads on one shared context: the seq row and
// core.exec.seq each grow by exactly 400.  The CI tsan job runs this.
TEST(PlanFeedback, ConcurrentDrawsSumIntoOneRow) {
  constexpr int kThreads = 8;
  constexpr int kDraws = 50;
  obs::set_enabled(true);
  context_options copt;
  copt.which = core::backend::sequential;
  const cgp::context ctx(copt);
  obs::counter& exec = obs::get_counter("core.exec.seq");
  const std::uint64_t jobs0 = core::feedback_for(core::backend::sequential).jobs;
  const std::uint64_t exec0 = exec.value();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, t] {
      std::vector<std::uint64_t> v(256);
      for (int d = 0; d < kDraws; ++d) {
        (void)ctx.shuffle(std::span<std::uint64_t>(v), std::uint64_t(t * kDraws + d));
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr std::uint64_t kTotal = kThreads * kDraws;
  EXPECT_EQ(core::feedback_for(core::backend::sequential).jobs - jobs0, kTotal);
  EXPECT_EQ(exec.value() - exec0, kTotal);
}

// clear_feedback() zeroes every row; a draw made with obs off adds nothing
// to any row or core.exec.* counter.
TEST(PlanFeedback, ClearZeroesEveryRowAndObsOffAddsNothing) {
  const std::array backends = {core::backend::sequential, core::backend::smp,
                               core::backend::em, core::backend::cgm, core::backend::prp};
  const auto draw_on_every_backend = [&] {
    std::vector<std::uint64_t> v(4096);
    for (const core::backend b : backends) {
      context_options copt;
      copt.which = b;
      (void)cgp::context(copt).shuffle(std::span<std::uint64_t>(v), 11);
    }
  };
  const auto expect_empty_rows = [&](const char* when) {
    for (const core::backend b : backends) {
      const core::backend_feedback fb = core::feedback_for(b);
      EXPECT_EQ(fb.jobs, 0u) << when << " " << core::backend_name(b);
      EXPECT_EQ(fb.predicted_seconds, 0.0) << when << " " << core::backend_name(b);
      EXPECT_EQ(fb.measured_seconds, 0.0) << when << " " << core::backend_name(b);
      EXPECT_TRUE(fb.predicted_phases.empty()) << when << " " << core::backend_name(b);
      EXPECT_TRUE(fb.measured_phases.empty()) << when << " " << core::backend_name(b);
    }
  };
  obs::set_enabled(true);
  core::clear_feedback();
  draw_on_every_backend();
  for (const core::backend b : backends) EXPECT_EQ(core::feedback_for(b).jobs, 1u);
  core::clear_feedback();
  expect_empty_rows("after clear");

  std::vector<std::uint64_t> exec0;
  for (const core::backend b : backends) {
    exec0.push_back(obs::get_counter(std::string("core.exec.") + core::backend_name(b)).value());
  }
  obs::set_enabled(false);
  draw_on_every_backend();
  obs::set_enabled(true);
  expect_empty_rows("after an obs-off draw");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    EXPECT_EQ(obs::get_counter(std::string("core.exec.") + core::backend_name(backends[i])).value(),
              exec0[i]);
  }
}

// A row's measured total is the sum of its "execute" phase, and explain()
// prints the row next to the plan's prediction.
TEST(PlanFeedback, MeasuredTotalIsTheExecutePhaseAndExplainPrintsTheRow) {
  obs::set_enabled(true);
  core::clear_feedback();
  context_options copt;
  copt.which = core::backend::sequential;
  cgp::context ctx(copt);
  std::vector<std::uint64_t> v(4096);
  core::permutation_plan plan;
  for (int d = 0; d < 3; ++d) plan = ctx.shuffle(std::span<std::uint64_t>(v));
  const core::backend_feedback fb = core::feedback_for(core::backend::sequential);
  ASSERT_EQ(fb.jobs, 3u);
  double execute = 0.0;
  bool fisher_yates = false;
  for (const obs::phase_time& p : fb.measured_phases) {
    if (std::strcmp(p.label, "execute") == 0) execute = p.seconds;
    if (std::strcmp(p.label, "fisher-yates") == 0) fisher_yates = true;
  }
  EXPECT_GT(execute, 0.0);
  EXPECT_EQ(fb.measured_seconds, execute);
  EXPECT_TRUE(fisher_yates);
  EXPECT_DOUBLE_EQ(fb.predicted_seconds, 3 * plan.predicted_seconds);

  const std::string text = plan.explain();
  EXPECT_NE(text.find("feedback (3 executed jobs, backend=seq, per-job averages):"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  execute: measured="), std::string::npos) << text;
  EXPECT_NE(text.find("  fisher-yates: measured="), std::string::npos) << text;
}

}  // namespace
