// Tests for the sequential algorithms: the Fisher-Yates reference, the
// cache-blocked shuffle (Section 6 outlook), and the related-work baselines
// -- including a *negative* test showing the iterated riffle is not uniform
// for small round counts (the paper's argument against the iterate trick).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "seq/baselines.hpp"
#include "seq/blocked_shuffle.hpp"
#include "seq/fisher_yates.hpp"
#include "seq/rao_sandelius.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"
#include "support/perm_check.hpp"

namespace {

using namespace cgp;

using engine_t = rng::philox4x64;

// Thread ONE engine through all reps of the shared exhaustive-uniformity
// harness (tests/support/perm_check.hpp): sequential suites key the run by
// the engine's seed, not per rep.
template <typename Shuffle>
stats::gof_result uniformity_gof(Shuffle&& shuffle, unsigned k, int reps, std::uint64_t seed) {
  engine_t e(seed, 0);
  return test_support::uniformity_gof(
      [&](std::span<std::uint64_t> v, int) { shuffle(e, v); }, k, reps);
}

TEST(FisherYates, PermutesContent) {
  engine_t e(1, 0);
  std::vector<std::uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 0);
  seq::fisher_yates(e, std::span<std::uint64_t>(v));
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
}

TEST(FisherYates, UniformOverS5) {
  const auto res = uniformity_gof(
      [](engine_t& e, std::span<std::uint64_t> v) { seq::fisher_yates(e, v); }, 5, 120 * 100, 2);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(FisherYates, CopyVariantUniformOverS4) {
  engine_t e(3, 0);
  std::vector<std::uint64_t> counts(24, 0);
  const std::vector<std::uint64_t> in{0, 1, 2, 3};
  std::vector<std::uint64_t> out(4);
  for (int rep = 0; rep < 24 * 400; ++rep) {
    seq::fisher_yates_copy(e, std::span<const std::uint64_t>(in), std::span<std::uint64_t>(out));
    ASSERT_TRUE(stats::is_permutation_of_iota(out));
    ++counts[stats::permutation_rank(out)];
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

TEST(FisherYates, EmptyAndSingleton) {
  engine_t e(4, 0);
  std::vector<int> empty;
  seq::fisher_yates(e, std::span<int>(empty));
  std::vector<int> one{7};
  seq::fisher_yates(e, std::span<int>(one));
  EXPECT_EQ(one[0], 7);
}

TEST(RandomPermutation, ProducesValidPermutation) {
  engine_t e(5, 0);
  std::vector<std::uint64_t> pi(257);
  seq::random_permutation(e, pi);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

// --- batched draws -----------------------------------------------------------
//
// seq::fisher_yates_batched must make the same swaps from the same words as
// the generic seq::fisher_yates, the reference.  Its exact path (a low
// product below the bound) is reached with probability bound / 2^64, so no
// real seed gets there: a scripted word source steers it.

/// Replays `words`, shown `window` at a time as a refilling buffer would
/// (windows start at multiples of `window`).
struct scripted_words {
  using result_type = std::uint64_t;
  const std::vector<std::uint64_t>& words;
  std::size_t window_size;
  std::size_t at = 0;

  std::span<const std::uint64_t> window() {
    const std::size_t end = std::min(words.size(), (at / window_size + 1) * window_size);
    return std::span<const std::uint64_t>(words).subspan(at, end - at);
  }
  void consume(std::size_t k) { at += k; }
  result_type operator()() { return words.at(at++); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
};

/// Any engine seen through operator() alone, so seq::fisher_yates takes
/// its generic path; counts the words drawn.
template <typename Engine>
struct plain_engine {
  using result_type = std::uint64_t;
  Engine& engine;
  std::uint64_t drawn = 0;
  result_type operator()() {
    ++drawn;
    return engine();
  }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
};

/// x with low64(x * bound) == low (low must be a multiple of bound's
/// power-of-two factor).
std::uint64_t word_with_low_product(std::uint64_t bound, std::uint64_t low) {
  const int s = __builtin_ctzll(bound);
  const std::uint64_t odd = bound >> s;
  std::uint64_t inv = odd;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - odd * inv;
  return (low >> s) * inv;
}

/// The batched kernel and the reference, each on its own replay of
/// `words` over iota(n).
struct kernel_vs_reference {
  std::vector<std::uint64_t> got, want;
  std::uint64_t drawn = 0;            ///< what the batched kernel returned
  std::uint64_t words_read = 0;       ///< where its source stopped
  std::uint64_t reference_drawn = 0;
};
kernel_vs_reference run_both(const std::vector<std::uint64_t>& words, std::size_t window,
                             std::size_t n) {
  kernel_vs_reference r;
  r.got.resize(n);
  std::iota(r.got.begin(), r.got.end(), 0);
  r.want = r.got;
  scripted_words source{words, window};
  r.drawn = seq::fisher_yates_batched(source, std::span<std::uint64_t>(r.got));
  r.words_read = source.at;
  scripted_words replay{words, window};
  plain_engine<scripted_words> reference{replay};
  seq::fisher_yates(reference, std::span<std::uint64_t>(r.want));
  r.reference_drawn = reference.drawn;
  return r;
}

struct crafted {
  const char* name;
  std::size_t slot;  ///< word index; the step it decides has bound n - slot
  int kind;          ///< 0: word 0; 1: highest rejected; 2: threshold; 3: bound - 1
};

TEST(FisherYatesBatched, ExactPathMatchesReferenceOnCraftedWords) {
  constexpr std::size_t n = 300;  // bounds 300 .. 2: three windows of 128
  for (const std::size_t window : {std::size_t{128}, std::size_t{7}}) {
    const crafted cases[] = {
        {"first slot", 0, 0},       {"first slot", 0, 1},
        {"first slot", 0, 2},       {"first slot", 0, 3},
        {"last slot", window - 1, 0}, {"last slot", window - 1, 1},
        {"last slot", window - 1, 2}, {"last slot", window - 1, 3},
        {"after refill", window, 0},  {"after refill", window, 2},
        {"last of second", 2 * window - 1, 0}, {"last of second", 2 * window - 1, 2},
    };
    for (const crafted& c : cases) {
      const std::uint64_t bound = n - c.slot;
      ASSERT_NE(bound & (bound - 1), 0u) << "bound must not be a power of two";
      const std::uint64_t threshold = (0 - bound) % bound;
      const std::uint64_t step = std::uint64_t{1} << __builtin_ctzll(bound);
      std::uint64_t low = 0;
      if (c.kind == 1) low = threshold - step;
      if (c.kind == 2) low = threshold;
      if (c.kind == 3) low = bound - step;
      const bool rejected = low < threshold;

      std::vector<std::uint64_t> words(n + 8);
      rng::philox4x64 fill(77, c.slot * 4 + static_cast<std::uint64_t>(c.kind));
      for (auto& w : words) w = fill();
      words[c.slot] = word_with_low_product(bound, low);
      ASSERT_EQ(static_cast<std::uint64_t>(static_cast<unsigned __int128>(words[c.slot]) * bound),
                low);

      const kernel_vs_reference r = run_both(words, window, n);
      const std::string where = std::string(c.name) + " kind " + std::to_string(c.kind) +
                                " window " + std::to_string(window);
      EXPECT_EQ(r.got, r.want) << where;
      EXPECT_EQ(r.drawn, r.reference_drawn) << where;
      EXPECT_EQ(r.drawn, n - 1 + (rejected ? 1 : 0)) << where;
      EXPECT_EQ(r.words_read, r.drawn) << where;
    }
  }
}

TEST(FisherYatesBatched, RepeatedRejectionAcrossARefill) {
  // Word 0 at the last slot and at the first slot after the refill: the
  // step at the window's end rejects twice and is decided by the third word.
  constexpr std::size_t n = 300;
  std::vector<std::uint64_t> words(n + 8);
  rng::philox4x64 fill(78, 0);
  for (auto& w : words) w = fill();
  words[127] = 0;
  words[128] = 0;
  const kernel_vs_reference r = run_both(words, 128, n);
  EXPECT_EQ(r.got, r.want);
  EXPECT_EQ(r.drawn, n + 1);
  EXPECT_EQ(r.reference_drawn, n + 1);
  EXPECT_EQ(r.words_read, n + 1);
}

template <std::size_t N>
void expect_batched_matches_reference(std::size_t n, std::uint64_t word_index) {
  using R = core::detail::record<N>;
  std::vector<R> got(n), want;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < N; ++b) got[i].bytes[b] = static_cast<unsigned char>(i * 7 + b);
  }
  want = got;
  rng::batched_philox batched(91, N, word_index);
  seq::fisher_yates(batched, std::span<R>(got));
  rng::batched_philox words(91, N, word_index);
  plain_engine<rng::batched_philox> reference{words};
  seq::fisher_yates(reference, std::span<R>(want));
  EXPECT_TRUE(n == 0 || std::memcmp(got.data(), want.data(), n * N) == 0)
      << "record " << N << " n " << n << " word_index " << word_index;
  // Both stop at the same word of the stream.
  EXPECT_EQ(batched(), words()) << "record " << N << " n " << n;
}

TEST(FisherYatesBatched, MatchesReferenceForEveryRecordSizeAndBatchEdge) {
  for (const std::size_t n : {0, 1, 2, 3, 127, 128, 129, 255, 256, 257}) {
    for (const std::uint64_t word_index : {0, 3}) {
      expect_batched_matches_reference<1>(n, word_index);
      expect_batched_matches_reference<2>(n, word_index);
      expect_batched_matches_reference<4>(n, word_index);
      expect_batched_matches_reference<8>(n, word_index);
      expect_batched_matches_reference<12>(n, word_index);
      expect_batched_matches_reference<16>(n, word_index);
      expect_batched_matches_reference<24>(n, word_index);
      expect_batched_matches_reference<32>(n, word_index);
    }
  }
}

// --- blocked (cache-aware) shuffle ------------------------------------------

TEST(BlockedShuffle, PermutesContent) {
  engine_t e(6, 0);
  std::vector<std::uint64_t> v(10'000);
  std::iota(v.begin(), v.end(), 0);
  seq::blocked_options opt;
  opt.fan_out = 4;
  opt.cache_items = 64;  // force several recursion levels
  seq::blocked_shuffle(e, std::span<std::uint64_t>(v), opt);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
}

TEST(BlockedShuffle, UniformOverS5WithTinyBlocks) {
  seq::blocked_options opt;
  opt.fan_out = 2;
  opt.cache_items = 2;  // recursion all the way down even for k=5
  const auto res = uniformity_gof(
      [&opt](engine_t& e, std::span<std::uint64_t> v) { seq::blocked_shuffle(e, v, opt); }, 5,
      120 * 100, 7);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(BlockedShuffle, MatchesFisherYatesMoments) {
  // Mean displacement of an item under a uniform shuffle of n items is
  // ~ n/3; compare blocked vs Fisher-Yates at 3% tolerance.
  const std::size_t n = 4096;
  engine_t e1(8, 0);
  engine_t e2(9, 0);
  double disp_fy = 0.0;
  double disp_bl = 0.0;
  const int reps = 200;
  std::vector<std::uint64_t> v(n);
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    seq::fisher_yates(e1, std::span<std::uint64_t>(v));
    for (std::size_t i = 0; i < n; ++i)
      disp_fy += std::abs(static_cast<double>(v[i]) - static_cast<double>(i));
    std::iota(v.begin(), v.end(), 0);
    seq::blocked_shuffle(e2, std::span<std::uint64_t>(v));
    for (std::size_t i = 0; i < n; ++i)
      disp_bl += std::abs(static_cast<double>(v[i]) - static_cast<double>(i));
  }
  EXPECT_NEAR(disp_bl / disp_fy, 1.0, 0.03);
}

// --- Rao-Sandelius shuffle ----------------------------------------------------

TEST(RaoSandelius, PermutesContent) {
  engine_t e(20, 0);
  std::vector<std::uint64_t> v(10'000);
  std::iota(v.begin(), v.end(), 0);
  seq::rs_options opt;
  opt.log2_fan_out = 2;
  opt.cache_items = 32;  // force deep recursion
  seq::rs_shuffle(e, std::span<std::uint64_t>(v), opt);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
}

TEST(RaoSandelius, UniformOverS5WithTinyLeaves) {
  seq::rs_options opt;
  opt.log2_fan_out = 1;  // binary splitting, the classical formulation
  opt.cache_items = 2;
  const auto res = uniformity_gof(
      [&opt](engine_t& e, std::span<std::uint64_t> v) { seq::rs_shuffle(e, v, opt); }, 5,
      120 * 100, 21);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(RaoSandelius, UniformOverS4WideFanOut) {
  seq::rs_options opt;
  opt.log2_fan_out = 3;  // 8 buckets for 4 items: mostly empty buckets
  opt.cache_items = 2;
  const auto res = uniformity_gof(
      [&opt](engine_t& e, std::span<std::uint64_t> v) { seq::rs_shuffle(e, v, opt); }, 4,
      24 * 400, 22);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(RaoSandelius, SingleItemPositionUniform) {
  engine_t e(23, 0);
  seq::rs_options opt;
  opt.cache_items = 8;
  opt.log2_fan_out = 2;
  const auto res = test_support::position_uniformity_gof(
      [&](std::span<std::uint64_t> v, int) { seq::rs_shuffle(e, v, opt); }, 64, 16000);
  EXPECT_GT(res.p_value, 1e-9);
}

// --- sort-based baseline -----------------------------------------------------

TEST(SortShuffle, PermutesAndUniformOverS4) {
  engine_t e(10, 0);
  std::vector<std::uint64_t> counts(24, 0);
  std::vector<std::uint64_t> v(4);
  for (int rep = 0; rep < 24 * 400; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    seq::shuffle_by_sorting(e, std::span<std::uint64_t>(v));
    ASSERT_TRUE(stats::is_permutation_of_iota(v));
    ++counts[stats::permutation_rank(v)];
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

TEST(SortShuffle, SurvivesForcedKeyCollisions) {
  // An engine that returns constants at first forces the collision-repair
  // path; wrap philox to emit duplicates for the first 2n draws.
  struct dup_engine {
    using result_type = std::uint64_t;
    engine_t inner{11, 0};
    int forced = 16;
    result_type operator()() {
      if (forced > 0) {
        --forced;
        return 42;  // identical keys
      }
      return inner();
    }
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }
  } e;
  std::vector<std::uint64_t> v(8);
  std::iota(v.begin(), v.end(), 0);
  seq::shuffle_by_sorting(e, std::span<std::uint64_t>(v));
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
}

// --- dart throwing ------------------------------------------------------------

TEST(DartThrowing, PermutesAndUniformOverS4) {
  engine_t e(12, 0);
  std::vector<std::uint64_t> counts(24, 0);
  std::vector<std::uint64_t> v(4);
  for (int rep = 0; rep < 24 * 400; ++rep) {
    std::iota(v.begin(), v.end(), 0);
    seq::dart_throwing_shuffle(e, std::span<std::uint64_t>(v));
    ASSERT_TRUE(stats::is_permutation_of_iota(v));
    ++counts[stats::permutation_rank(v)];
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

TEST(DartThrowing, ExpectedDrawsModel) {
  // slack=2: E[draws/item] = 2 ln 2 ~ 1.386.
  EXPECT_NEAR(seq::dart_throwing_expected_draws_per_item(2.0), 2.0 * std::log(2.0), 1e-12);
  // Tighter tables cost more.
  EXPECT_GT(seq::dart_throwing_expected_draws_per_item(1.25),
            seq::dart_throwing_expected_draws_per_item(4.0));
}

// --- riffle rounds: the non-uniform baseline ----------------------------------

TEST(Riffle, SingleRoundPreservesContent) {
  engine_t e(13, 0);
  std::vector<std::uint64_t> v(100);
  std::iota(v.begin(), v.end(), 0);
  seq::riffle_round(e, std::span<std::uint64_t>(v));
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
}

TEST(Riffle, OneRoundIsProvablyNonUniform) {
  // A single riffle of 5 cards cannot produce more than 2 descents; the
  // rank histogram must fail chi-square catastrophically.
  const auto res = uniformity_gof(
      [](engine_t& e, std::span<std::uint64_t> v) { seq::riffle_shuffle(e, v, 1); }, 5, 120 * 100,
      14);
  EXPECT_LT(res.p_value, 1e-12) << "a single riffle round must NOT look uniform";
}

TEST(Riffle, ManyRoundsApproachUniformity) {
  // ~log2(n) + safety rounds: 12 rounds on 5 cards is plenty.
  const auto res = uniformity_gof(
      [](engine_t& e, std::span<std::uint64_t> v) { seq::riffle_shuffle(e, v, 12); }, 5, 120 * 100,
      15);
  EXPECT_GT(res.p_value, 1e-9);
}

}  // namespace
