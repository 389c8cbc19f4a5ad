// Unit tests for the per-tenant telemetry pipeline (PR 10): bounded
// labeled metric families, histogram exemplars, the Prometheus text
// exposition, the background time-series sampler, the service's
// per-tenant snapshot section -- and the invariant underneath all of it:
// telemetry observes and never perturbs permutation output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/server.hpp"

namespace {

using namespace cgp;

// ---------------------------------------------------------------------------
// Labeled counter families: per-label isolation, bounded cardinality, and
// the overflow slot that makes with() total.

TEST(TelemetryFamilies, CounterFamilyIsolatesLabels) {
  obs::set_enabled(true);
  obs::counter_family fam;
  fam.with(7).add(3);
  fam.with(42).add(1);
  fam.with(7).add(2);
  const auto vals = fam.entries();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0].first, 7u);  // sorted by label
  EXPECT_EQ(vals[0].second->value(), 5u);
  EXPECT_EQ(vals[1].first, 42u);
  EXPECT_EQ(vals[1].second->value(), 1u);
  EXPECT_EQ(fam.overflow().value(), 0u);
}

TEST(TelemetryFamilies, CounterFamilyBoundsCardinality) {
  obs::set_enabled(true);
  obs::counter_family fam;
  // Claim every slot, then one more label: it must land on overflow, and
  // with() must never fail.
  for (std::uint64_t l = 0; l < obs::counter_family::kSlots; ++l) fam.with(l).add();
  EXPECT_EQ(fam.entries().size(), obs::counter_family::kSlots);
  fam.with(1'000'000).add(9);
  EXPECT_EQ(fam.entries().size(), obs::counter_family::kSlots);  // no 65th slot
  EXPECT_EQ(fam.overflow().value(), 9u);
  // The unusable label (would collide with the empty-slot encoding).
  fam.with(std::uint64_t(-1)).add(1);
  EXPECT_EQ(fam.overflow().value(), 10u);
}

TEST(TelemetryFamilies, CounterFamilyConcurrentClaims) {
  obs::set_enabled(true);
  obs::counter_family fam;
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fam] {
      // Every thread hits the SAME labels: first-use claims race, then
      // it is pure relaxed adds.  No increment may be lost.
      for (int i = 0; i < kIters; ++i) fam.with(static_cast<std::uint64_t>(i % 4)).add();
    });
  }
  for (auto& th : threads) th.join();
  const auto vals = fam.entries();
  ASSERT_EQ(vals.size(), 4u);
  for (const auto& [label, c] : vals) {
    EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kIters / 4) << "label " << label;
  }
}

TEST(TelemetryFamilies, HistogramFamilyRecordsPerLabel) {
  obs::set_enabled(true);
  obs::histogram_family fam;
  fam.with(1).record(100);
  fam.with(1).record(200);
  fam.with(5).record(1'000'000);
  const auto entries = fam.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 1u);
  EXPECT_EQ(entries[0].second->count(), 2u);
  EXPECT_EQ(entries[1].first, 5u);
  EXPECT_EQ(entries[1].second->max(), 1'000'000u);
}

TEST(TelemetryFamilies, DisabledGateRoutesToOverflowHarmlessly) {
  obs::set_enabled(true);
  obs::counter_family fam;
  fam.with(3).add();
  obs::set_enabled(false);
  fam.with(3).add(100);  // no-op: disabled adds don't count anywhere
  obs::set_enabled(true);
  const auto vals = fam.entries();
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0].second->value(), 1u);
  EXPECT_EQ(fam.overflow().value(), 0u);
}

TEST(TelemetryFamilies, RegistryFamiliesAreStableAndSnapshot) {
  obs::set_enabled(true);
  obs::counter_family& f1 = obs::get_counter_family("test.telemetry.by_client");
  obs::counter_family& f2 = obs::get_counter_family("test.telemetry.by_client");
  EXPECT_EQ(&f1, &f2);  // address-stable, like every registry metric
  f1.with(11).add(4);
  obs::get_histogram_family("test.telemetry.lat.by_client").with(11).record(500);

  // One row per family slot: the labels in order, then the overflow slot.
  std::vector<obs::metric_snapshot> cf_rows;
  std::vector<obs::metric_snapshot> hf_rows;
  for (const obs::metric_snapshot& s : obs::snapshot()) {
    if (s.name == "test.telemetry.by_client") cf_rows.push_back(s);
    if (s.name == "test.telemetry.lat.by_client") hf_rows.push_back(s);
  }
  ASSERT_EQ(cf_rows.size(), 2u);
  EXPECT_EQ(cf_rows[0].which, obs::metric_snapshot::kind::counter);
  EXPECT_TRUE(cf_rows[0].labeled);
  EXPECT_FALSE(cf_rows[0].overflow);
  EXPECT_EQ(cf_rows[0].label, 11u);
  EXPECT_EQ(cf_rows[0].count, 4u);
  EXPECT_TRUE(cf_rows[1].labeled);
  EXPECT_TRUE(cf_rows[1].overflow);
  EXPECT_EQ(cf_rows[1].count, 0u);
  ASSERT_EQ(hf_rows.size(), 2u);
  EXPECT_EQ(hf_rows[0].which, obs::metric_snapshot::kind::histogram);
  EXPECT_EQ(hf_rows[0].label, 11u);
  EXPECT_EQ(hf_rows[0].count, 1u);
  EXPECT_EQ(hf_rows[0].sum, 500u);
  EXPECT_TRUE(hf_rows[1].overflow);

  const std::string js = obs::snapshot_json();
  EXPECT_NE(js.find("\"counter_families\""), std::string::npos);
  EXPECT_NE(js.find("\"histogram_families\""), std::string::npos);
  EXPECT_NE(js.find("test.telemetry.by_client"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram exemplars: a traced observation leaves its trace_id in the
// bucket it landed in, and quantile_exemplar links the p99 to it.

TEST(TelemetryExemplars, QuantileExemplarFindsTheOutlierTrace) {
  obs::set_enabled(true);
  obs::histogram h;
  for (int i = 0; i < 200; ++i) h.record(10);  // untraced bulk
  h.record(1'000'000, /*trace_id=*/0xDEADBEEF);  // the traced tail outlier
  EXPECT_EQ(h.exemplar(obs::histogram::bucket_of(1'000'000)), 0xDEADBEEFu);
  EXPECT_EQ(h.exemplar(obs::histogram::bucket_of(10)), 0u);
  // p99 sits in the bulk bucket (no exemplar); the search walks up to the
  // nearest exemplar-bearing bucket -- the outlier's.
  EXPECT_EQ(h.quantile_exemplar(0.99), 0xDEADBEEFu);
  EXPECT_EQ(obs::histogram().quantile_exemplar(0.99), 0u);  // empty: none
}

// ---------------------------------------------------------------------------
// Prometheus text exposition: names sanitize to the cgp_ namespace,
// counters render as _total, histograms as summaries, families with
// client_id labels.  (CI parses the full document with a python
// validator; these pin the shape.)

TEST(TelemetryExposition, NamesSanitize) {
  EXPECT_EQ(obs::prometheus_name("svc.jobs.done"), "cgp_svc_jobs_done");
  EXPECT_EQ(obs::prometheus_name("svc.job_latency_ns"), "cgp_svc_job_latency_ns");
  EXPECT_EQ(obs::prometheus_name("weird-name:x"), "cgp_weird_name_x");
}

TEST(TelemetryExposition, ExpositionCarriesAllKinds) {
  obs::set_enabled(true);
  obs::get_counter("test.expo.counter").add(5);
  obs::get_gauge("test.expo.gauge").set(7);
  obs::get_histogram("test.expo.hist").record(1000);
  obs::get_counter_family("test.expo.by_client").with(3).add(2);
  obs::get_histogram_family("test.expo.lat.by_client").with(3).record(2000);

  const std::string text = obs::prometheus_exposition();
  for (const char* needle : {
           "# TYPE cgp_test_expo_counter_total counter",
           "cgp_test_expo_counter_total 5",
           "# TYPE cgp_test_expo_gauge gauge",
           "cgp_test_expo_gauge 7",
           "# TYPE cgp_test_expo_hist summary",
           "cgp_test_expo_hist{quantile=\"0.99\"}",
           "cgp_test_expo_hist_count 1",
           "cgp_test_expo_by_client_total{client_id=\"3\"} 2",
           "cgp_test_expo_lat_by_client{client_id=\"3\",quantile=\"0.5\"}",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Exposition-format sanity: every non-comment line is "name[{labels}] value".
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(line.rfind("cgp_", 0), 0u) << line;
    EXPECT_NO_THROW((void)std::stoll(line.substr(sp + 1))) << line;
  }
}

// ---------------------------------------------------------------------------
// The time-series sampler: fixed ring, stable series indices, JSON
// document with samples oldest-first plus deltas/rates.

TEST(TelemetrySampler, SampleNowFillsTheRing) {
  obs::set_enabled(true);
  obs::counter& c = obs::get_counter("test.sampler.counter");
  obs::sampler s(obs::sampler_options{/*period_ms=*/1000, /*slots=*/4});
  c.add(10);
  s.sample_now();
  c.add(5);
  s.sample_now();
  EXPECT_EQ(s.samples_taken(), 2u);
  const std::string js = s.ring_json();
  for (const char* key : {"\"period_ms\"", "\"slots\"", "\"samples_taken\"",
                          "\"wall_epoch_ns\"", "\"series\"", "\"samples\"", "\"deltas\"",
                          "\"rates_per_s\"", "test.sampler.counter"}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'), std::count(js.begin(), js.end(), '}'));
}

TEST(TelemetrySampler, RingKeepsOnlyTheNewestSlots) {
  obs::set_enabled(true);
  obs::sampler s(obs::sampler_options{/*period_ms=*/1000, /*slots=*/3});
  for (int i = 0; i < 10; ++i) s.sample_now();
  EXPECT_EQ(s.samples_taken(), 10u);
  const std::string js = s.ring_json();
  // 3 ring slots -> exactly 3 "t_ms" sample entries (deltas have dt_ms).
  std::size_t count = 0;
  for (std::size_t p = js.find("\"t_ms\""); p != std::string::npos;
       p = js.find("\"t_ms\"", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u + 2u);  // 3 samples + 2 deltas between them
}

TEST(TelemetrySampler, BackgroundThreadSamples) {
  obs::set_enabled(true);
  obs::sampler s(obs::sampler_options{/*period_ms=*/5, /*slots=*/64});
  EXPECT_FALSE(s.running());
  s.start();
  EXPECT_TRUE(s.running());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.samples_taken() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s.stop();
  EXPECT_FALSE(s.running());
  EXPECT_GE(s.samples_taken(), 3u);
}

// ---------------------------------------------------------------------------
// The service's per-tenant section: concurrent clients get separate
// latency percentiles in metrics_snapshot(), backed by the per-instance
// families (two servers never pollute each other).

TEST(TelemetryService, SnapshotReportsPerTenantLatencies) {
  obs::set_enabled(true);
  svc::server srv;
  std::vector<svc::future<svc::permutation>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(srv.submit_permutation(/*client=*/3, 2048));
    futs.push_back(srv.submit_permutation(/*client=*/9, 2048));
  }
  for (auto& f : futs) EXPECT_EQ(f.wait(), svc::job_status::done);

  const auto entries = srv.tenant_latency_histograms().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 3u);
  EXPECT_EQ(entries[0].second->count(), 6u);
  EXPECT_EQ(entries[1].first, 9u);
  EXPECT_EQ(entries[1].second->count(), 6u);

  const std::string js = srv.metrics_snapshot();
  EXPECT_NE(js.find("\"tenants\""), std::string::npos);
  for (const char* key : {"\"3\"", "\"9\"", "\"p50_ns\"", "\"p99_ns\"",
                          "\"p99_exemplar_trace_id\"", "\"submitted\"", "\"done\""}) {
    EXPECT_NE(js.find(key), std::string::npos) << key;
  }
  EXPECT_NE(js.find("\"trace\""), std::string::npos);
  EXPECT_NE(js.find("\"dropped_spans\""), std::string::npos);

  // Per-INSTANCE scoping: a second server sees none of the first's tenants.
  svc::server other;
  EXPECT_TRUE(other.tenant_latency_histograms().entries().empty());
}

// ---------------------------------------------------------------------------
// The invariant: the whole telemetry pipeline observes and never
// perturbs.  Identical shuffle output with the sampler off, on, and
// toggled mid-run.

TEST(TelemetryDeterminism, SamplerNeverChangesShuffleOutput) {
  constexpr std::uint64_t kN = 150'000;
  constexpr std::uint64_t kSeed = 0x7E1E;
  auto draw = [&] {
    std::vector<std::uint64_t> v(kN);
    for (std::uint64_t i = 0; i < kN; ++i) v[i] = i;
    cgp::context ctx;
    (void)ctx.shuffle(std::span<std::uint64_t>(v), kSeed);
    return v;
  };

  obs::set_enabled(true);
  const std::vector<std::uint64_t> base = draw();

  obs::sampler s(obs::sampler_options{/*period_ms=*/1, /*slots=*/32});
  s.start();
  EXPECT_EQ(draw(), base);  // sampler hammering the registry mid-shuffle

  std::vector<std::uint64_t> toggled;
  std::thread worker([&] { toggled = draw(); });
  s.stop();
  s.start();  // toggled mid-run
  worker.join();
  s.stop();
  EXPECT_EQ(toggled, base);
  EXPECT_GE(s.samples_taken(), 1u);
}

}  // namespace
