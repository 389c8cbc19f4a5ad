// Tests for the repeated-generation API: determinism under seek/replay,
// per-element uniformity, and independence between successive draws.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/context.hpp"
#include "core/plan.hpp"
#include "core/repeat.hpp"
#include "rng/philox_batch.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"

namespace {

using namespace cgp;

TEST(PermutationStream, ProducesValidPermutations) {
  core::permutation_stream stream(4, 64, 42);
  for (int i = 0; i < 10; ++i) {
    const auto pi = stream.next();
    EXPECT_TRUE(stats::is_permutation_of_iota(pi));
  }
  EXPECT_EQ(stream.count(), 10u);
}

TEST(PermutationStream, SuccessiveDrawsDiffer) {
  core::permutation_stream stream(4, 128, 43);
  const auto a = stream.next();
  const auto b = stream.next();
  EXPECT_NE(a, b);
}

TEST(PermutationStream, ReplayViaSeek) {
  core::permutation_stream s1(4, 100, 44);
  std::vector<std::vector<std::uint64_t>> first;
  for (int i = 0; i < 5; ++i) first.push_back(s1.next());

  s1.seek(0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s1.next(), first[i]);

  // Element k is a pure function of (seed, k): a fresh stream seeked to 3
  // reproduces element 3 directly.
  core::permutation_stream s2(4, 100, 44);
  s2.seek(3);
  EXPECT_EQ(s2.next(), first[3]);
}

TEST(PermutationStream, DifferentSeedsAreDifferentSequences) {
  core::permutation_stream s1(4, 100, 45);
  core::permutation_stream s2(4, 100, 46);
  EXPECT_NE(s1.next(), s2.next());
}

TEST(PermutationStream, EachElementUniform) {
  // Element #7 of the stream over many seeds must be uniform over S4.
  std::vector<std::uint64_t> counts(24, 0);
  for (int seed = 0; seed < 24 * 200; ++seed) {
    core::permutation_stream stream(2, 4, 0x5EED00 + seed);
    stream.seek(7);
    const auto pi = stream.next();
    ASSERT_TRUE(stats::is_permutation_of_iota(pi));
    ++counts[stats::permutation_rank(pi)];
  }
  EXPECT_GT(stats::chi_square_uniform(counts).p_value, 1e-9);
}

TEST(PermutationStream, SuccessiveDrawsIndependent) {
  // (rank of draw 0, rank of draw 1) over many seeds: chi-square
  // independence on the 24 x 24 contingency table (pooled internally).
  const int reps = 24 * 24 * 8;
  std::vector<std::uint64_t> table(24 * 24, 0);
  for (int seed = 0; seed < reps; ++seed) {
    core::permutation_stream stream(2, 4, 0xA5EED0 + seed);
    const auto r1 = stats::permutation_rank(stream.next());
    const auto r2 = stats::permutation_rank(stream.next());
    ++table[r1 * 24 + r2];
  }
  const auto res = stats::chi_square_independence(table, 24, 24);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(PermutationStream, StatsPlumbing) {
  core::permutation_stream stream(4, 256, 47);
  cgm::run_stats stats;
  (void)stream.next(&stats);
  EXPECT_EQ(stats.per_proc.size(), 4u);
  EXPECT_GT(stats.total_compute(), 0u);
}

// One seed fold keys a context's draw sequence, a permutation_stream's
// draws and the plan cache's profile fingerprint; these literals pin all
// three, so a change to the fold shows here first.
TEST(SeedFold, DrawSeedsAndProfileFingerprintArePinned) {
  context_options copt;
  copt.which = core::backend::sequential;
  copt.seed = 2029;
  cgp::context draws(copt);
  const cgp::context ref(copt);
  for (const std::uint64_t s : {std::uint64_t{2029}, std::uint64_t{0xe386e840d8b7b70bull},
                                std::uint64_t{0x0afbe05a92c68172ull}}) {
    EXPECT_EQ(draws.random_permutation(64), ref.random_permutation(64, s)) << s;
  }

  core::permutation_stream stream(2, 64, 47);
  for (const std::uint64_t s : {0xdaf5f6828d6210b5ull, 0x5f3fe51ef19e764eull,
                                0x5be0a8cef4a524ceull}) {
    cgm::machine mach(2, s);
    EXPECT_EQ(stream.next(), core::random_permutation_global(mach, 64)) << s;
  }

  // The active SIMD path enters the fingerprint; pin it on the scalar path
  // every host runs.
  rng::set_simd_override(rng::simd_path::scalar);
  EXPECT_EQ(core::machine_profile{}.fingerprint(), 0x2f7d32b6a2763f0cull);
  rng::clear_simd_override();
}

}  // namespace
