// tests/support/perm_check.hpp
//
// Shared statistical test support for the permutation engines.  Every
// backend test suite (test_seq, test_smp, test_em, test_em_async) makes the
// same three kinds of claims; this header is the single implementation:
//
//  * exhaustive S_k uniformity -- run the full pipeline thousands of times
//    on k <= 5 items and chi-square the Lehmer-rank histogram over all k!
//    outcomes (the strongest empirical check of Theorem 1's uniformity);
//  * positional / moment checks at sizes where k! is unenumerable --
//    single-item position histograms, fixed-point and derangement moments
//    (#fixed points is asymptotically Poisson(1), P[derangement] -> 1/e);
//  * bit-reproducibility matrices -- a family of configurations (thread
//    counts, rank counts, transports) that must all produce the identical
//    permutation for the same seed.
//
// Shuffle callbacks receive (span, rep) so both styles of suite fit: suites
// that thread one engine through all reps capture it and ignore `rep`;
// suites that re-key per rep derive a seed from `rep`.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"
#include "stats/moments.hpp"

namespace cgp::test_support {

/// Run `shuffle(span, rep)` `reps` times on iota(k) and chi-square the
/// Lehmer-rank histogram over all k! outcomes.  Every rep asserts the
/// output is a permutation.
template <typename ShuffleFn>
[[nodiscard]] stats::gof_result uniformity_gof(ShuffleFn&& shuffle, unsigned k, int reps) {
  const std::uint64_t cells = stats::factorial(k);
  std::vector<std::uint64_t> counts(cells, 0);
  std::vector<std::uint64_t> v(k);
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    shuffle(std::span<std::uint64_t>(v), rep);
    EXPECT_TRUE(stats::is_permutation_of_iota(v));
    ++counts[stats::permutation_rank(v)];
  }
  return stats::chi_square_uniform(counts);
}

/// Assert exhaustive S_k uniformity at the suite-wide significance floor
/// (1e-9: catches real bias by orders of magnitude, never flakes).
template <typename ShuffleFn>
void expect_uniform_over_sk(ShuffleFn&& shuffle, unsigned k, int reps) {
  const auto res = uniformity_gof(std::forward<ShuffleFn>(shuffle), k, reps);
  EXPECT_GT(res.p_value, 1e-9) << "S" << k << " chi2=" << res.statistic;
}

/// Track which position item 0 of n lands in across reps and chi-square the
/// position histogram -- the single-item marginal of uniformity, usable at
/// sizes where k! is unenumerable.
template <typename ShuffleFn>
[[nodiscard]] stats::gof_result position_uniformity_gof(ShuffleFn&& shuffle, std::size_t n,
                                                        int reps) {
  std::vector<std::uint64_t> counts(n, 0);
  std::vector<std::uint64_t> v(n);
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    shuffle(std::span<std::uint64_t>(v), rep);
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] == 0) {
        ++counts[i];
        break;
      }
    }
  }
  return stats::chi_square_uniform(counts);
}

/// Fixed-point / derangement moments of a permutation sampler.
struct fixed_point_moments {
  double mean_fixed_points = 0.0;   ///< should be ~1 (Poisson(1) limit)
  double z_mean = 0.0;              ///< z-score of the mean against 1
  double derangement_fraction = 0.0;  ///< should be ~1/e
};

/// Sample `perm(rep)` -> pi `reps` times and accumulate fixed-point
/// statistics.  `n` must match the sampler's output size and be large
/// enough (>= ~20) for the Poisson(1) limit to hold to test accuracy.
template <typename PermFn>
[[nodiscard]] fixed_point_moments fixed_point_check(PermFn&& perm, int reps) {
  stats::running_moments fixed;
  std::uint64_t derangements = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::vector<std::uint64_t> pi = perm(rep);
    EXPECT_TRUE(stats::is_permutation_of_iota(pi));
    const std::uint64_t f = stats::count_fixed_points(pi);
    fixed.add(static_cast<double>(f));
    if (f == 0) ++derangements;
  }
  fixed_point_moments out;
  out.mean_fixed_points = fixed.mean();
  out.z_mean = fixed.z_against(1.0);
  out.derangement_fraction =
      static_cast<double>(derangements) / static_cast<double>(fixed.count());
  return out;
}

/// Assert the Poisson(1) fixed-point law: mean #fixed points within 5
/// standard errors of 1, derangement fraction within `tol` of 1/e.
template <typename PermFn>
void expect_fixed_point_law(PermFn&& perm, int reps, double tol = 0.05) {
  const auto m = fixed_point_check(std::forward<PermFn>(perm), reps);
  EXPECT_LT(std::abs(m.z_mean), 5.0) << "mean fixed points = " << m.mean_fixed_points;
  EXPECT_NEAR(m.derangement_fraction, 1.0 / std::exp(1.0), tol);
}

/// Bit-reproducibility matrix: `run(i)` for i in [0, variants) must produce
/// the identical permutation of iota (the variants differ in thread count,
/// rank count, transport, ... -- never in the seed).
template <typename VariantFn>
void expect_bit_identical(std::size_t variants, VariantFn&& run, const char* what) {
  std::vector<std::uint64_t> reference;
  for (std::size_t i = 0; i < variants; ++i) {
    std::vector<std::uint64_t> out = run(i);
    ASSERT_TRUE(stats::is_permutation_of_iota(out)) << what << ": variant " << i;
    if (i == 0) {
      reference = std::move(out);
    } else {
      ASSERT_EQ(out, reference) << what << ": variant " << i << " changed the permutation";
    }
  }
}

}  // namespace cgp::test_support
