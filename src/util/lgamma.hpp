// util/lgamma.hpp
//
// log|Gamma(x)| without the data race: the C library's lgamma also stores
// the sign of Gamma(x) in the global `signgam`, so two threads sampling
// communication matrices at once (parallel bucket tasks, transport ranks)
// race on it.  lgamma_r hands the sign back through an argument and
// computes the identical value.
#pragma once

#include <math.h>

namespace cgp::util {

[[nodiscard]] inline double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace cgp::util
