// Parameterized option sweeps: every tuning knob of the shuffles, the
// matrix samplers, and the EM geometry must preserve the invariants
// (validity, conservation, uniform shape) at every setting -- the
// "configuration space is safe" guarantee a downstream user relies on.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "core/sample_matrix.hpp"
#include "em/async_shuffle.hpp"
#include "hyp/sample.hpp"
#include "rng/counting.hpp"
#include "rng/philox.hpp"
#include "seq/blocked_shuffle.hpp"
#include "seq/rao_sandelius.hpp"
#include "smp/thread_pool.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"

namespace {

using namespace cgp;
using engine_t = rng::philox4x64;

// --- blocked shuffle option grid ----------------------------------------------------

class BlockedOptions
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*fan*/, std::size_t /*cache*/>> {
};

TEST_P(BlockedOptions, ValidAndUniformCorner) {
  const auto [fan, cache] = GetParam();
  seq::blocked_options opt;
  opt.fan_out = fan;
  opt.cache_items = cache;
  engine_t e(0x0B10 + fan, cache);

  // Validity at a non-trivial size.
  std::vector<std::uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 0);
  seq::blocked_shuffle(e, std::span<std::uint64_t>(v), opt);
  ASSERT_TRUE(stats::is_permutation_of_iota(v));

  // Uniform shape on a small case: position of item 0 among 12.
  std::vector<std::uint64_t> counts(12, 0);
  std::vector<std::uint64_t> w(12);
  for (int rep = 0; rep < 6000; ++rep) {
    std::iota(w.begin(), w.end(), 0);
    seq::blocked_shuffle(e, std::span<std::uint64_t>(w), opt);
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w[i] == 0) {
        ++counts[i];
        break;
      }
    }
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, BlockedOptions,
                         ::testing::Combine(::testing::Values(2u, 3u, 8u, 16u),
                                            ::testing::Values(std::size_t{2}, std::size_t{16},
                                                              std::size_t{256})),
                         [](const auto& pinfo) {
                           return "fan" + std::to_string(std::get<0>(pinfo.param)) + "_cache" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

// --- Rao-Sandelius option grid ------------------------------------------------------

class RsOptions
    : public ::testing::TestWithParam<std::tuple<unsigned /*bits*/, std::size_t /*cache*/>> {};

TEST_P(RsOptions, ValidAndUniformCorner) {
  const auto [bits, cache] = GetParam();
  seq::rs_options opt;
  opt.log2_fan_out = bits;
  opt.cache_items = cache;
  engine_t e(0x0C10 + bits, cache);

  std::vector<std::uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 0);
  seq::rs_shuffle(e, std::span<std::uint64_t>(v), opt);
  ASSERT_TRUE(stats::is_permutation_of_iota(v));

  std::vector<std::uint64_t> counts(12, 0);
  std::vector<std::uint64_t> w(12);
  for (int rep = 0; rep < 6000; ++rep) {
    std::iota(w.begin(), w.end(), 0);
    seq::rs_shuffle(e, std::span<std::uint64_t>(w), opt);
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (w[i] == 0) {
        ++counts[i];
        break;
      }
    }
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, RsOptions,
                         ::testing::Combine(::testing::Values(1u, 3u, 6u),
                                            ::testing::Values(std::size_t{2}, std::size_t{64},
                                                              std::size_t{512})),
                         [](const auto& pinfo) {
                           return "bits" + std::to_string(std::get<0>(pinfo.param)) + "_cache" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

// --- matrix sampler policy grid -----------------------------------------------------

class MatrixPolicy : public ::testing::TestWithParam<std::tuple<int /*method*/, double /*thr*/>> {
};

TEST_P(MatrixPolicy, ConservationUnderEveryPolicy) {
  const auto [method_idx, threshold] = GetParam();
  core::matrix_options opt;
  opt.pol.how = static_cast<hyp::method>(method_idx);
  opt.pol.hin_sd_threshold = threshold;
  rng::counting_engine<engine_t> e{engine_t(0x0D10 + method_idx, 0)};

  const std::vector<std::uint64_t> rm{100, 50, 25, 25};
  const std::vector<std::uint64_t> cm{40, 60, 70, 30};
  for (int rep = 0; rep < 50; ++rep) {
    const auto a = core::sample_matrix_rowwise(e, rm, cm, opt);
    ASSERT_TRUE(a.satisfies_margins(rm, cm));
    const auto b = core::sample_matrix_recursive(e, rm, cm, opt);
    ASSERT_TRUE(b.satisfies_margins(rm, cm));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MatrixPolicy,
                         ::testing::Combine(::testing::Values(0, 1, 2),  // auto, hin, hrua
                                            ::testing::Values(0.0, 48.0, 1e9)),
                         [](const auto& pinfo) {
                           const int m = std::get<0>(pinfo.param);
                           const std::string name = m == 0 ? "auto" : (m == 1 ? "hin" : "hrua");
                           return name + "_thr" +
                                  std::to_string(static_cast<int>(std::get<1>(pinfo.param)));
                         });

// --- EM geometry grid ----------------------------------------------------------------

class EmGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*B*/, std::uint64_t /*M_blocks*/>> {
};

TEST_P(EmGeometry, ShufflePreservesMultisetAtEveryGeometry) {
  const auto [b, m_blocks] = GetParam();
  const std::uint64_t mem = static_cast<std::uint64_t>(b) * m_blocks;
  const std::uint64_t n = 997;  // deliberately not a multiple of anything
  em::block_device dev(n, b);
  for (std::uint64_t i = 0; i < n; ++i) dev.poke(i, i);
  smp::thread_pool pool(2);
  em::async_options opt;
  opt.memory_items = mem;
  const auto rep = em::async_em_shuffle(dev, n, 0x0E10 + b + (m_blocks << 16), pool, opt);
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = dev.peek(i);
  EXPECT_TRUE(stats::is_permutation_of_iota(out))
      << "B=" << b << " M=" << mem << " levels=" << rep.levels;
}

INSTANTIATE_TEST_SUITE_P(Grid, EmGeometry,
                         ::testing::Combine(::testing::Values(2u, 8u, 32u),
                                            ::testing::Values(std::uint64_t{4}, std::uint64_t{8},
                                                              std::uint64_t{32})),
                         [](const auto& pinfo) {
                           return "B" + std::to_string(std::get<0>(pinfo.param)) + "_Mblk" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

}  // namespace
