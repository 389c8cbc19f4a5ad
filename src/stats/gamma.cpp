#include "stats/gamma.hpp"

#include <cmath>
#include <limits>

#include "util/lgamma.hpp"

namespace cgp::stats {

namespace {

// Series expansion of P(a,x): converges quickly for x < a + 1.
double gamma_p_series(double a, double x) noexcept {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 1000; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - util::log_gamma(a));
}

// Continued fraction for Q(a,x) (modified Lentz): converges for x > a + 1.
double gamma_q_cf(double a, double x) noexcept {
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - util::log_gamma(a));
}

}  // namespace

double gamma_p(double a, double x) noexcept {
  if (!(a > 0.0) || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) noexcept {
  if (!(a > 0.0) || x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double chi2_sf(double x, double dof) noexcept { return gamma_q(dof / 2.0, x / 2.0); }

}  // namespace cgp::stats
