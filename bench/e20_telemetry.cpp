// E20 -- telemetry overhead: what per-tenant accounting and the sampler
// cost on the service path.
//
// PR 10 labels the service's hot-path metrics by tenant (bounded
// labeled families, obs/metrics.hpp) and adds a background time-series
// sampler (obs/timeseries.hpp).  The design contract is the same as the
// rest of the obs layer (DESIGN.md section 8): one relaxed RMW per hit,
// a relaxed-load fast path when CGP_OBS_OFF, and a sampler that only
// ever touches snapshots -- never the hot path.  This bench grounds that
// on the service's own fast path: a stream of small jobs from four
// tenants through one svc::server, i.e. the workload where per-job
// accounting (admission counters, done counters, latency histograms --
// now all twice: plain + labeled) is the largest fraction of total cost:
//
//   * baseline: obs disabled via set_enabled(false) -- what CGP_OBS_OFF
//     gives any binary (families hit their overflow slot, not recorded);
//   * telemetry on: obs enabled (the default) -- per-tenant families
//     record on every job;
//   * on + sampler: obs enabled AND an obs::sampler polling the registry
//     at a tight 10 ms period -- the served-telemetry configuration.
//
// Acceptance: telemetry-on overhead vs baseline must stay under 3%
// (exit 2 beyond it, like e2's gate -- CI treats 2 as "measured, out of
// tolerance" rather than failure on loaded runners).  The jobs run on the
// scheduler's and the pool's threads, so each wave is timed in the
// process's CPU time (every thread's, summed); the three configurations
// run in alternating trials and are compared by medians
// (cgp::alternating_medians), so a busy phase of the host is shared by
// all three instead of landing on one.
//
// Output: a table on stdout plus BENCH_telemetry.json.
//
// Usage: e20_telemetry [mode] [json_path]   mode: full (default) | small
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/server.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace cgp;

struct config {
  const char* name;
  bool obs_on;
  bool sampler_on;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_telemetry.json";
  const bool small = mode == "small";
  const std::uint64_t jobs = small ? 2000 : 10'000;
  const std::uint64_t n = 4096;  // small jobs: the per-job-overhead regime
  const int trials = small ? 15 : 21;
  constexpr std::uint64_t kTenants = 4;
  constexpr double kBudget = 0.03;  // <3% telemetry-on vs CGP_OBS_OFF

  std::cout << "E20: per-tenant telemetry overhead on the service path, " << fmt_count(jobs)
            << " jobs of " << fmt_count(n) << " items from " << kTenants
            << " tenants, process CPU time, median of " << trials
            << " alternating trials\n\n";

  svc::server_options sopt;
  sopt.scheduler_workers = 2;
  sopt.queue_capacity = static_cast<std::size_t>(jobs) * 2;
  svc::server srv(sopt);

  // Untimed warmup: spins up the pool, fills the plan cache for the one
  // job shape, and claims every tenant's family slots.
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    (void)srv.submit_permutation(t, n).get();
  }

  const auto run_wave = [&] {
    std::vector<svc::future<svc::permutation>> futs;
    futs.reserve(static_cast<std::size_t>(jobs));
    for (std::uint64_t j = 0; j < jobs; ++j) {
      futs.push_back(srv.submit_permutation(j % kTenants, n));
    }
    for (auto& f : futs) (void)f.wait();
  };

  const config configs[] = {
      {"obs off (CGP_OBS_OFF)", false, false},
      {"telemetry on (default)", true, false},
      {"telemetry on + sampler", true, true},
  };
  const auto wave_with = [&](const config& c) {
    return [&run_wave, c](int) {
      obs::set_enabled(c.obs_on);
      obs::sampler smp(obs::sampler_options{/*period_ms=*/10, /*slots=*/256});
      if (c.sampler_on) smp.start();
      run_wave();
      if (c.sampler_on) smp.stop();
    };
  };
  const std::array<double, 3> medians =
      alternating_medians(trials, process_cpu_seconds, wave_with(configs[0]),
                          wave_with(configs[1]), wave_with(configs[2]));
  obs::set_enabled(true);

  struct result {
    const char* name;
    double seconds;
  };
  std::vector<result> results;
  for (std::size_t k = 0; k < medians.size(); ++k) results.push_back({configs[k].name, medians[k]});

  const double base = results.front().seconds;
  const double per_job = 1e9 / static_cast<double>(jobs);
  table t({"configuration", "T [s]", "us/job", "overhead vs off"});
  std::vector<json_record> out;
  for (const result& r : results) {
    const double overhead = r.seconds / base - 1.0;
    t.add_row({r.name, fmt(r.seconds, 4), fmt(r.seconds * per_job / 1000.0, 2),
               fmt(overhead * 100.0, 2) + "%"});
    json_record rec;
    rec.add("bench", "e20_telemetry")
        .add("mode", mode)
        .add("jobs", jobs)
        .add("n", n)
        .add("tenants", kTenants)
        .add("configuration", r.name)
        .add("seconds", r.seconds)
        .add("us_per_job", r.seconds * per_job / 1000.0)
        .add("overhead_vs_off", overhead);
    out.push_back(std::move(rec));
  }
  t.print(std::cout);

  const double telemetry_overhead = results[1].seconds / base - 1.0;
  std::cout << "\ntelemetry (obs on, sampler off) overhead: "
            << fmt(telemetry_overhead * 100.0, 2) << "% (budget " << fmt(kBudget * 100.0, 0)
            << "%)\n";

  json_record summary;
  summary.add("bench", "e20_telemetry")
      .add("mode", mode)
      .add("configuration", "summary")
      .add("jobs", jobs)
      .add("telemetry_overhead", telemetry_overhead)
      .add("budget", kBudget)
      .add("within_budget", telemetry_overhead <= kBudget);
  out.push_back(std::move(summary));
  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return telemetry_overhead <= kBudget ? 0 : 2;
}
