// util/stopwatch.hpp
//
// Wall-clock timing and a rough cycles-per-second calibration so benches can
// report costs in "clock cycles per item" -- the unit the paper's
// introduction uses (60..100 cycles/item on a 300 MHz Sparc / 800 MHz P-III).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace cgp {

/// Simple steady-clock stopwatch.
class stopwatch {
 public:
  stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction / last reset.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double nanos() const noexcept { return seconds() * 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Estimated CPU frequency in Hz, measured once (first call) by timing a
/// dependent-add loop.  Used only to convert ns/item to cycles/item in bench
/// output; precision of a few percent is plenty for reproducing the paper's
/// "60..100 cycles" band.
[[nodiscard]] double estimated_cpu_hz() noexcept;

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
/// Unlike the wall clock it stops while the thread waits for a core.
[[nodiscard]] double thread_cpu_seconds() noexcept;

/// CPU seconds every thread of this process has run, summed
/// (CLOCK_PROCESS_CPUTIME_ID): for work the caller hands to other threads.
[[nodiscard]] double process_cpu_seconds() noexcept;

/// The benches' comparison discipline: run `trials` rounds, each running
/// every one of `fns` once (`fn(round)`, starting one further along in
/// each round, so no fn always runs first), time each run on `clock` (a
/// function returning seconds, e.g. thread_cpu_seconds), and return each
/// fn's median.  Alternating spreads a slow phase of the host over every
/// side alike, and the median ignores the runs it hit hardest.
template <typename Clock, typename... Fns>
[[nodiscard]] std::array<double, sizeof...(Fns)> alternating_medians(int trials, Clock&& clock,
                                                                     Fns&&... fns) {
  constexpr std::size_t k = sizeof...(Fns);
  const std::array<std::function<void(int)>, k> sides = {std::ref(fns)...};
  std::array<std::vector<double>, k> runs;
  for (int round = 0; round < (trials < 1 ? 1 : trials); ++round) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t side = (static_cast<std::size_t>(round) + i) % k;
      const double t0 = clock();
      sides[side](round);
      runs[side].push_back(clock() - t0);
    }
  }
  std::array<double, k> medians{};
  for (std::size_t side = 0; side < k; ++side) {
    std::vector<double>& r = runs[side];
    const auto mid = r.begin() + static_cast<std::ptrdiff_t>(r.size() / 2);
    std::nth_element(r.begin(), mid, r.end());
    medians[side] = *mid;
  }
  return medians;
}

/// Run `fn(rep)` `reps` times and return the fastest wall time in seconds
/// -- the benches' shared measurement discipline (best-of-N suppresses
/// scheduler noise better than averaging on a busy CI box).  `reps` < 1 is
/// treated as 1.
template <typename F>
[[nodiscard]] double best_of(int reps, F&& fn) {
  double best = -1.0;
  for (int rep = 0; rep < (reps < 1 ? 1 : reps); ++rep) {
    const stopwatch sw;
    fn(rep);
    const double s = sw.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

}  // namespace cgp
