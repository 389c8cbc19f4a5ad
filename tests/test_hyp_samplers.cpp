// Statistical validation of the hypergeometric samplers: every sampler is
// chi-squared against the exact pmf over a grid of parameter regimes
// (small/large draws, skewed colors, near-degenerate cases), moments are
// checked in regimes too large for exact tables, and the random-number
// budget of Section 3 ("< 1.5 on average, 10 worst case") is asserted.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "hyp/hin.hpp"
#include "hyp/hrua.hpp"
#include "hyp/pmf.hpp"
#include "hyp/sample.hpp"
#include "rng/counting.hpp"
#include "rng/philox.hpp"
#include "stats/chisq.hpp"
#include "stats/moments.hpp"

namespace {

using namespace cgp;
using hyp::params;

using engine_t = rng::counting_engine<rng::philox4x64>;

enum class which { hin, hrua, dispatcher };

std::uint64_t draw(engine_t& e, const params& p, which w) {
  switch (w) {
    case which::hin:
      return hyp::sample_hin(e, p);
    case which::hrua:
      return hyp::sample_hrua(e, p);
    case which::dispatcher:
    default:
      return hyp::sample(e, p);
  }
}

// Chi-square one sampler against the exact pmf.
stats::gof_result gof_of(const params& p, which w, int samples, std::uint64_t seed) {
  engine_t e{rng::philox4x64(seed, 77)};
  const std::uint64_t lo = hyp::support_min(p);
  const auto probs = hyp::pmf_table(p);
  std::vector<std::uint64_t> counts(probs.size(), 0);
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t k = draw(e, p, w);
    EXPECT_GE(k, lo);
    EXPECT_LE(k, hyp::support_max(p));
    ++counts[k - lo];
  }
  return stats::chi_square_gof(counts, probs);
}

struct sampler_case {
  params p;
  const char* label;
};

class SamplerGrid : public ::testing::TestWithParam<sampler_case> {};

TEST_P(SamplerGrid, HinMatchesExactPmf) {
  const auto res = gof_of(GetParam().p, which::hin, 40000, 1001);
  EXPECT_GT(res.p_value, 1e-9) << GetParam().label << " chi2=" << res.statistic;
}

TEST_P(SamplerGrid, HruaMatchesExactPmf) {
  const auto& p = GetParam().p;
  if (hyp::degenerate(p)) GTEST_SKIP() << "HRUA requires a non-degenerate law";
  const auto res = gof_of(p, which::hrua, 40000, 1002);
  EXPECT_GT(res.p_value, 1e-9) << GetParam().label << " chi2=" << res.statistic;
}

TEST_P(SamplerGrid, DispatcherMatchesExactPmf) {
  const auto res = gof_of(GetParam().p, which::dispatcher, 40000, 1003);
  EXPECT_GT(res.p_value, 1e-9) << GetParam().label << " chi2=" << res.statistic;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SamplerGrid,
    ::testing::Values(
        sampler_case{{2, 3, 2}, "tiny"},                 //
        sampler_case{{5, 10, 10}, "small_balanced"},     //
        sampler_case{{1, 50, 50}, "single_draw"},        //
        sampler_case{{30, 40, 50}, "moderate"},          //
        sampler_case{{99, 50, 50}, "near_total_draw"},   //
        sampler_case{{50, 3, 200}, "few_whites"},        //
        sampler_case{{50, 200, 3}, "few_blacks"},        //
        sampler_case{{200, 1000, 1000}, "large_even"},   //
        sampler_case{{500, 300, 900}, "large_skewed"},   //
        sampler_case{{1000, 2000, 2000}, "sd_above_hin_threshold"}),
    [](const auto& pinfo) { return pinfo.param.label; });

// --- draw-count budget (paper Section 3 / experiment E3) --------------------

TEST(DrawBudget, HinUsesExactlyOneDrawPerSample) {
  engine_t e{rng::philox4x64(55, 0)};
  const params p{30, 40, 50};
  for (int i = 0; i < 1000; ++i) {
    e.reset_count();
    (void)hyp::sample_hin(e, p);
    EXPECT_EQ(e.count(), 1u);
  }
}

TEST(DrawBudget, HruaMeetsThePaperBudget) {
  // One 64-bit word per rejection iteration: the paper's Section 3 figures
  // ("< 1.5 average, 10 worst case") must hold for HRUA directly.
  engine_t e{rng::philox4x64(56, 0)};
  stats::running_moments m;
  for (const auto& p : {params{200, 1000, 1000}, params{5000, 20000, 30000},
                        params{100000, 300000, 500000}}) {
    for (int i = 0; i < 5000; ++i) {
      e.reset_count();
      (void)hyp::sample_hrua(e, p);
      m.add(static_cast<double>(e.count()));
    }
  }
  EXPECT_LT(m.mean(), 1.5);    // ~1.3 expected (1 word per iteration)
  EXPECT_LE(m.max(), 10.0);    // tail of the rejection loop
}

TEST(DrawBudget, DispatcherMeetsPaperBudgetInMatrixRegime) {
  // The regime Algorithm 3/6 actually produce: t, w, b from block splits.
  // The paper reports < 1.5 random numbers on average and <= 10 worst case.
  engine_t e{rng::philox4x64(57, 0)};
  stats::running_moments m;
  for (const auto& p : {params{64, 64, 1984}, params{512, 512, 15872}, params{32, 1024, 1024},
                        params{1024, 32, 2048}, params{100, 100, 100}}) {
    for (int i = 0; i < 5000; ++i) {
      e.reset_count();
      (void)hyp::sample(e, p);
      m.add(static_cast<double>(e.count()));
    }
  }
  EXPECT_LT(m.mean(), 1.5) << "average draws per h(.,.) call";
  EXPECT_LE(m.max(), 10.0) << "worst-case draws per h(.,.) call";
}

TEST(DrawBudget, DegenerateUsesZeroDraws) {
  engine_t e{rng::philox4x64(58, 0)};
  (void)hyp::sample(e, params{0, 10, 10});
  (void)hyp::sample(e, params{20, 10, 10});
  (void)hyp::sample(e, params{5, 0, 10});
  (void)hyp::sample(e, params{5, 10, 0});
  EXPECT_EQ(e.count(), 0u);
}

// --- moments in table-free regimes ------------------------------------------

TEST(LargeRegime, MomentsMatchTheoryAtMillions) {
  // Too large for exact chi-square tables; check mean and variance with a
  // z-test at 6 sigma (fixed seed => deterministic).
  const params p{1'000'000, 1'000'000, 47'000'000};
  engine_t e{rng::philox4x64(60, 0)};
  stats::running_moments m;
  for (int i = 0; i < 20000; ++i) m.add(static_cast<double>(hyp::sample(e, p)));
  EXPECT_LT(std::fabs(m.z_against(hyp::mean(p))), 6.0);
  const double v_ratio = m.variance() / hyp::variance(p);
  EXPECT_GT(v_ratio, 0.94);
  EXPECT_LT(v_ratio, 1.06);
}

TEST(LargeRegime, HruaAndHinAgreeInOverlapRegime) {
  // Same distribution from both samplers in a regime both handle: compare
  // their empirical means against each other at 6 sigma.
  const params p{2000, 4000, 6000};
  engine_t e1{rng::philox4x64(61, 0)};
  engine_t e2{rng::philox4x64(62, 0)};
  stats::running_moments m1;
  stats::running_moments m2;
  for (int i = 0; i < 30000; ++i) {
    m1.add(static_cast<double>(hyp::sample_hin(e1, p)));
    m2.add(static_cast<double>(hyp::sample_hrua(e2, p)));
  }
  const double pooled_se = std::sqrt(m1.sem() * m1.sem() + m2.sem() * m2.sem());
  EXPECT_LT(std::fabs(m1.mean() - m2.mean()) / pooled_se, 6.0);
}

// --- policy plumbing ---------------------------------------------------------

TEST(Policy, ForcedMethodsAreHonored) {
  // HIN uses exactly 1 draw per sample, always.  HRUA uses 1 word per
  // iteration, so over many samples its total exceeds the sample count
  // (rejections happen) while HIN's equals it exactly.
  engine_t e{rng::philox4x64(63, 0)};
  const params p{1000, 2000, 2000};
  hyp::policy pol;
  pol.how = hyp::method::hin;
  e.reset_count();
  for (int i = 0; i < 500; ++i) (void)hyp::sample(e, p, pol);
  EXPECT_EQ(e.count(), 500u);
  pol.how = hyp::method::hrua;
  e.reset_count();
  for (int i = 0; i < 500; ++i) (void)hyp::sample(e, p, pol);
  EXPECT_GT(e.count(), 500u);
}

TEST(Policy, ThresholdSwitchesSampler) {
  const params p{1000, 2000, 2000};
  const double sd = std::sqrt(hyp::variance(p));
  engine_t e{rng::philox4x64(64, 0)};
  hyp::policy pol;
  pol.hin_sd_threshold = sd + 1.0;  // HIN side: exactly 1 draw each
  e.reset_count();
  for (int i = 0; i < 500; ++i) (void)hyp::sample(e, p, pol);
  EXPECT_EQ(e.count(), 500u);
  pol.hin_sd_threshold = sd - 1.0;  // HRUA side: rejections add draws
  e.reset_count();
  for (int i = 0; i < 500; ++i) (void)hyp::sample(e, p, pol);
  EXPECT_GT(e.count(), 500u);
}

}  // namespace
