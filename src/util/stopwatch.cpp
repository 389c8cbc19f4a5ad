#include "util/stopwatch.hpp"

#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define CGP_HAVE_RDTSC 1
#endif

namespace cgp {

namespace {

#if defined(CGP_HAVE_RDTSC)

// Measure the TSC rate against the steady clock.  On every x86 of the last
// 15 years the TSC is invariant and ticks at (or very near) the nominal
// core frequency, which is the unit the paper's "60..100 clock cycles per
// item" figure is stated in.
double measure_hz() noexcept {
  const stopwatch sw;
  const std::uint64_t t0 = __rdtsc();
  double elapsed = 0.0;
  // ~20 ms window: plenty for 0.1% accuracy, cheap enough to run once.
  while ((elapsed = sw.seconds()) < 0.02) {
  }
  const std::uint64_t t1 = __rdtsc();
  return static_cast<double>(t1 - t0) / elapsed;
}

#else

// Portable fallback: time a dependent-ALU chain.  The loop body is ~3
// dependent ALU ops; dividing by 3 approximates one-op latency.
[[gnu::noinline]] std::uint64_t dependent_add_chain(std::uint64_t iters) noexcept {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x += (x >> 63) ^ 1;
  }
  return x;
}

double measure_hz() noexcept {
  constexpr std::uint64_t iters = 50'000'000;
  volatile std::uint64_t sink = dependent_add_chain(iters / 10);  // warm-up
  stopwatch sw;
  sink = dependent_add_chain(iters);
  const double secs = sw.seconds();
  (void)sink;
  if (secs <= 0.0) return 1e9;
  return 3.0 * static_cast<double>(iters) / secs;
}

#endif

double clock_seconds(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_seconds() noexcept { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_seconds() noexcept { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double estimated_cpu_hz() noexcept {
  static const double hz = measure_hz();
  return hz;
}

}  // namespace cgp
