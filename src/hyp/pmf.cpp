#include "hyp/pmf.hpp"

#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/lgamma.hpp"

namespace cgp::hyp {

std::uint64_t mode(const params& p) noexcept {
  // Classical closed form; derived from pmf_step_up(k) >= 1.
  const double raw = (static_cast<double>(p.t) + 1.0) * (static_cast<double>(p.w) + 1.0) /
                     (static_cast<double>(p.w) + static_cast<double>(p.b) + 2.0);
  auto m = static_cast<std::uint64_t>(raw);
  const std::uint64_t lo = support_min(p);
  const std::uint64_t hi = support_max(p);
  if (m < lo) m = lo;
  if (m > hi) m = hi;
  // Floating-point roundoff can put us one off; fix up with the exact ratio.
  while (m < hi && pmf_step_up(p, m) >= 1.0) ++m;
  while (m > lo && pmf_step_up(p, m - 1) < 1.0) --m;
  return m;
}

double mean(const params& p) noexcept {
  const double n = static_cast<double>(p.w) + static_cast<double>(p.b);
  if (n == 0.0) return 0.0;
  return static_cast<double>(p.t) * static_cast<double>(p.w) / n;
}

double variance(const params& p) noexcept {
  const double n = static_cast<double>(p.w) + static_cast<double>(p.b);
  if (n <= 1.0) return 0.0;
  const double fw = static_cast<double>(p.w) / n;
  const double fb = static_cast<double>(p.b) / n;
  return static_cast<double>(p.t) * fw * fb * (n - static_cast<double>(p.t)) / (n - 1.0);
}

double log_choose(std::uint64_t n, std::uint64_t k) noexcept {
  CGP_ASSERT_DBG(k <= n);
  if (k == 0 || k == n) return 0.0;
  return util::log_gamma(static_cast<double>(n) + 1.0) -
         util::log_gamma(static_cast<double>(k) + 1.0) -
         util::log_gamma(static_cast<double>(n - k) + 1.0);
}

double log_pmf(const params& p, std::uint64_t k) noexcept {
  if (k < support_min(p) || k > support_max(p))
    return -std::numeric_limits<double>::infinity();
  return log_choose(p.w, k) + log_choose(p.b, p.t - k) - log_choose(p.w + p.b, p.t);
}

double pmf(const params& p, std::uint64_t k) noexcept { return std::exp(log_pmf(p, k)); }

double pmf_step_up(const params& p, std::uint64_t k) noexcept {
  // P(k+1)/P(k); caller must keep k within [support_min, support_max).
  const double num = static_cast<double>(p.w - k) * static_cast<double>(p.t - k);
  const double den =
      (static_cast<double>(k) + 1.0) * (static_cast<double>(p.b) - static_cast<double>(p.t) +
                                        static_cast<double>(k) + 1.0);
  return num / den;
}

double cdf(const params& p, std::uint64_t k) noexcept {
  const std::uint64_t lo = support_min(p);
  const std::uint64_t hi = support_max(p);
  if (k >= hi) return 1.0;
  if (k < lo) return 0.0;

  // Sum from the lower tail if k is nearer to it, otherwise sum the upper
  // tail and take the complement; keeps the work proportional to the
  // shorter side and the relative error of small results tight.
  const bool lower = (k - lo) <= (hi - k);
  double sum = 0.0;
  double comp = 0.0;  // Kahan compensation
  const auto add = [&](double term) {
    const double y = term - comp;
    const double t2 = sum + y;
    comp = (t2 - sum) - y;
    sum = t2;
  };

  if (lower) {
    double term = pmf(p, lo);
    add(term);
    for (std::uint64_t i = lo; i < k; ++i) {
      term *= pmf_step_up(p, i);
      add(term);
    }
    return sum < 1.0 ? sum : 1.0;
  }
  double term = pmf(p, hi);
  add(term);
  for (std::uint64_t i = hi; i > k + 1; --i) {
    term /= pmf_step_up(p, i - 1);
    add(term);
  }
  const double r = 1.0 - sum;
  return r > 0.0 ? r : 0.0;
}

std::vector<double> pmf_table(const params& p) {
  const std::uint64_t lo = support_min(p);
  const std::uint64_t hi = support_max(p);
  std::vector<double> out(hi - lo + 1);
  // Start at the mode (the largest value) and use the exact ratio recurrence
  // outwards, which is far more accurate than exponentiating lgamma at every
  // point of a long support.
  const std::uint64_t md = mode(p);
  out[md - lo] = pmf(p, md);
  for (std::uint64_t k = md; k > lo; --k)
    out[k - 1 - lo] = out[k - lo] / pmf_step_up(p, k - 1);
  for (std::uint64_t k = md; k < hi; ++k)
    out[k + 1 - lo] = out[k - lo] * pmf_step_up(p, k);
  return out;
}

}  // namespace cgp::hyp
