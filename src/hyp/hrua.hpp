// hyp/hrua.hpp
//
// HRUA: hypergeometric sampling by the ratio-of-uniforms rejection method of
// Stadlober's group (the method behind the sampler of Zechner [1994], which
// the paper cites for its "< 1.5 random numbers on average" measurement).
// Constant expected cost regardless of parameters: ~1.3 iterations, each
// consuming ONE 64-bit random word (split into the two 32-bit-granularity
// uniforms of the ratio pair, as the samplers of that school did), with a
// fast squeeze that avoids most log() evaluations.
//
// Structure follows the published HRUA* algorithm (Stadlober 1990, with the
// Frohne support-transformations): sample the *smaller symmetric problem*
// (m = min(t, n-t) draws, counting the rarer color), then map back.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "hyp/pmf.hpp"
#include "rng/engine.hpp"
#include "rng/uniform.hpp"
#include "util/assert.hpp"
#include "util/lgamma.hpp"

namespace cgp::hyp {

namespace detail {
// 2*sqrt(2/e) and 3 - 2*sqrt(3/e): the classical ratio-of-uniforms hat
// constants for log-concave discrete distributions.
inline constexpr double kRouD1 = 1.7155277699214135;
inline constexpr double kRouD2 = 0.8989161620588988;

inline double log_fact(double x) noexcept { return util::log_gamma(x + 1.0); }
}  // namespace detail

/// Draw one variate of h(t,w,b) by ratio-of-uniforms rejection.
/// Requires a non-degenerate distribution (support_min < support_max).
template <rng::random_engine64 Engine>
[[nodiscard]] std::uint64_t sample_hrua(Engine& engine, const params& p) {
  CGP_EXPECTS(!degenerate(p));
  using detail::log_fact;

  const double good = static_cast<double>(p.w);
  const double bad = static_cast<double>(p.b);
  const double popsize = good + bad;
  const double sample = static_cast<double>(p.t);

  const double mingoodbad = std::min(good, bad);
  const double maxgoodbad = std::max(good, bad);
  const double m = std::min(sample, popsize - sample);

  const double d4 = mingoodbad / popsize;
  const double d5 = 1.0 - d4;
  const double d6 = m * d4 + 0.5;
  const double d7 = std::sqrt((popsize - m) * sample * d4 * d5 / (popsize - 1.0) + 0.5);
  const double d8 = detail::kRouD1 * d7 + detail::kRouD2;
  const double d9 = std::floor((m + 1.0) * (mingoodbad + 1.0) / (popsize + 2.0));  // mode
  const double d10 = log_fact(d9) + log_fact(mingoodbad - d9) + log_fact(m - d9) +
                     log_fact(maxgoodbad - m + d9);
  // Tail cutoff 16 standard deviations out: the mass beyond is < 1e-16 and
  // its omission is below double resolution.
  const double d11 = std::min(std::min(m, mingoodbad) + 1.0, std::floor(d6 + 16.0 * d7));

  double z;
  for (;;) {
    // One 64-bit word per iteration, split into the two uniforms of the
    // ratio-of-uniforms pair (see rng::canonical_pair) -- this is the
    // paper's "< 1.5 random numbers per h(.,.) sample" operating point.
    const auto [x, y] = rng::canonical_pair(engine);
    const double wv = d6 + d8 * (y - 0.5) / x;

    if (wv < 0.0 || wv >= d11) continue;  // outside the truncated support

    z = std::floor(wv);
    const double t_log = d10 - (log_fact(z) + log_fact(mingoodbad - z) + log_fact(m - z) +
                                log_fact(maxgoodbad - m + z));

    if (x * (4.0 - x) - 3.0 <= t_log) break;  // squeeze acceptance
    if (x * (x - t_log) >= 1.0) continue;     // squeeze rejection
    if (2.0 * std::log(x) <= t_log) break;    // full acceptance test
  }

  // Map the symmetric sub-problem's count (of the rarer color among the
  // smaller draw) back to "white balls among t draws".
  if (good > bad) z = m - z;                    // counted black; flip color
  if (m < sample) z = good - z;                 // sampled the complement draw
  return static_cast<std::uint64_t>(z);
}

}  // namespace cgp::hyp
