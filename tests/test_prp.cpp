// Tests for the O(1)-memory cipher permutation backend (src/prp/):
//
//  * statistical uniformity of the cipher family over cycle-walked
//    domains -- exhaustive S4/S5 chi-square on n = 2^k, n prime, and
//    n = 2^k + 1 (the worst cycle-walk shape), the position marginal and
//    the fixed-point law at sizes past k! enumeration;
//  * pi_inverse(pi(i)) == i exhaustively for a spread of small domains
//    and sampled at n = 10^9 (where nothing could ever materialize);
//  * shard views jointly tile pi exactly once, and the batched fill path
//    equals the iterator path;
//  * an absolute output digest, every round kernel against the scalar
//    one (outputs and walk counts), bit-identity across SIMD paths, and
//    backend plumbing: the prp executor's fill/shuffle agree with the
//    raw cipher, backend::automatic with a sparse-access declaration
//    picks prp and equals the explicit choice bit for bit, the plan
//    cache keys on accessed_fraction, and plan::explain() surfaces the
//    prp win conditions;
//  * the service surface: submit_shard windows replay against a local
//    cipher under job_seed, and prp-planned streams serve cipher content.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/executor.hpp"
#include "obs/metrics.hpp"
#include "prp/cipher.hpp"
#include "prp/shard.hpp"
#include "rng/philox_batch.hpp"
#include "support/perm_check.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"

namespace {

using namespace cgp;

constexpr std::uint64_t kSeed = 0x5970CA11ull;

std::vector<std::uint64_t> eval_all(const prp::cipher& c) {
  std::vector<std::uint64_t> out(c.domain());
  c.eval_range(0, std::span<std::uint64_t>(out));
  return out;
}

// --- uniformity of the cipher family ----------------------------------------

// Exhaustive S_k uniformity: every rep keys a FRESH cipher (a new member
// of the keyed family) and the Lehmer-rank histogram over all k! outcomes
// must be chi-square-uniform.  Three domain shapes stress the cycle walk
// differently: n = 4 = 2^2 (no walking at all), n = 5 prime (M = 8,
// 3/8 of evaluations walk), and for S5 n = 5 = 2^2 + 1 (the worst shape:
// M is the smallest power of two above n, nearly half the domain walks).
TEST(PrpCipher, ExhaustiveS4UniformityPowerOfTwoDomain) {
  test_support::expect_uniform_over_sk(
      [](std::span<std::uint64_t> v, int rep) {
        const prp::cipher c(kSeed + static_cast<std::uint64_t>(rep), v.size());
        c.eval_range(0, v);
      },
      /*k=*/4, /*reps=*/24'000);
}

TEST(PrpCipher, ExhaustiveS5UniformityCycleWalkedDomain) {
  // n = 5: prime AND 2^2 + 1 -- the heaviest cycle-walk shape.
  test_support::expect_uniform_over_sk(
      [](std::span<std::uint64_t> v, int rep) {
        const prp::cipher c(kSeed + static_cast<std::uint64_t>(rep), v.size());
        c.eval_range(0, v);
      },
      /*k=*/5, /*reps=*/120'000);
}

TEST(PrpCipher, ExhaustiveS3UniformityPrimeDomain) {
  test_support::expect_uniform_over_sk(
      [](std::span<std::uint64_t> v, int rep) {
        const prp::cipher c(kSeed + 7 + static_cast<std::uint64_t>(rep), v.size());
        c.eval_range(0, v);
      },
      /*k=*/3, /*reps=*/18'000);
}

TEST(PrpCipher, PositionMarginalUniformAtSeventeen) {
  // n = 17 = 2^4 + 1: past k! enumeration, worst walk shape; the position
  // histogram of item 0 is the single-item marginal of uniformity.
  const auto res = test_support::position_uniformity_gof(
      [](std::span<std::uint64_t> v, int rep) {
        const prp::cipher c(kSeed + 100 + static_cast<std::uint64_t>(rep), v.size());
        c.eval_range(0, v);
      },
      /*n=*/17, /*reps=*/30'000);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(PrpCipher, FixedPointLawAtHundred) {
  test_support::expect_fixed_point_law(
      [](int rep) {
        const prp::cipher c(kSeed + 200 + static_cast<std::uint64_t>(rep), 100);
        return eval_all(c);
      },
      /*reps=*/4'000);
}

// --- bijectivity + inversion -------------------------------------------------

TEST(PrpCipher, InverseRoundTripsExhaustivelyOnSmallDomains) {
  // Primes, powers of two, 2^k + 1, and ragged sizes; every i round-trips
  // both ways and eval_range emits exactly the permutation pi describes.
  for (const std::uint64_t n :
       {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 9ull, 16ull, 17ull, 31ull, 64ull,
        100ull, 257ull, 1000ull, 1025ull}) {
    const prp::cipher c(kSeed, n);
    const std::vector<std::uint64_t> pi = eval_all(c);
    ASSERT_TRUE(stats::is_permutation_of_iota(pi)) << "n=" << n;
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(pi[i], c.pi(i)) << "n=" << n << " i=" << i;
      ASSERT_EQ(c.pi_inverse(pi[i]), i) << "n=" << n << " i=" << i;
      ASSERT_EQ(c.pi(c.pi_inverse(i)), i) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PrpCipher, InverseRoundTripsSampledAtBillionScale) {
  // n = 10^9: no backend could hold pi, the cipher doesn't need to.
  const std::uint64_t n = 1'000'000'000;
  const prp::cipher c(kSeed, n);
  std::vector<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    const std::uint64_t i = (s * 0x9E3779B97F4A7C15ull) % n;  // spread probes
    const std::uint64_t y = c.pi(i);
    ASSERT_LT(y, n);
    ASSERT_EQ(c.pi_inverse(y), i) << "i=" << i;
    seen.push_back(y);
  }
  // Injective on the probe set (pigeonhole sanity at scale).
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(PrpCipher, CycleWalkRetriesHappenAndAreCounted) {
  // n = 1025 = 2^10 + 1: M = 2048, so ~half of all evaluations must walk;
  // the per-call stats and the obs counter both see it.
  const prp::cipher c(kSeed, 1025);
  prp::eval_stats st;
  std::vector<std::uint64_t> out(1025);
  c.eval_range(0, std::span<std::uint64_t>(out), &st);
  EXPECT_EQ(st.evals, 1025u);
  EXPECT_GT(st.walk_retries, 0u);
  EXPECT_GT(obs::get_counter("prp.evals").value(), 0u);
  EXPECT_GT(obs::get_counter("prp.cycle_walk_retries").value(), 0u);
  EXPECT_EQ(obs::get_gauge("prp.rounds").value(),
            static_cast<std::int64_t>(prp::cipher::kDefaultRounds));
}

TEST(PrpCipher, EvalManyMatchesPointwiseOnArbitraryIndices) {
  const std::uint64_t n = 100'003;
  const prp::cipher c(kSeed, n);
  std::vector<std::uint64_t> in;
  for (std::uint64_t s = 0; s < 1000; ++s) in.push_back((s * 7919) % n);
  std::vector<std::uint64_t> out(in.size());
  c.eval_many(in, std::span<std::uint64_t>(out));
  for (std::size_t j = 0; j < in.size(); ++j) {
    ASSERT_EQ(out[j], c.pi(in[j])) << "j=" << j;
  }
}

TEST(PrpCipher, RoundsOptionChangesThePermutation) {
  const std::uint64_t n = 1000;
  const prp::cipher deep(kSeed, n);
  prp::cipher_options shallow_opt;
  shallow_opt.rounds = 8;
  const prp::cipher shallow(kSeed, n, shallow_opt);
  EXPECT_EQ(shallow.rounds(), 8u);
  EXPECT_EQ(deep.rounds(), prp::cipher::kDefaultRounds);
  EXPECT_NE(eval_all(deep), eval_all(shallow));
  EXPECT_TRUE(stats::is_permutation_of_iota(eval_all(shallow)));
}

// --- shard views -------------------------------------------------------------

TEST(PrpShard, ShardsJointlyTilePiExactlyOnce) {
  // Ragged split (100003 prime, 7 shards): concatenating the shard views
  // in order IS eval_range(0, n), and the union is a permutation -- every
  // value appears exactly once across all shards.
  const std::uint64_t n = 100'003;
  const std::uint64_t S = 7;
  const prp::cipher c(kSeed, n);

  std::vector<std::uint64_t> assembled;
  std::uint64_t covered = 0;
  for (std::uint64_t k = 0; k < S; ++k) {
    const prp::shard_view sv = c.shard(k, S);
    EXPECT_EQ(sv.begin_index(), covered);
    covered = sv.end_index();
    for (const std::uint64_t y : sv) assembled.push_back(y);
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(assembled, eval_all(c));
  EXPECT_TRUE(stats::is_permutation_of_iota(assembled));
}

TEST(PrpShard, BatchedFillEqualsIteratorPath) {
  const std::uint64_t n = 10'000;
  const prp::cipher c(kSeed, n);
  const prp::shard_view sv = c.shard(2, 5);

  std::vector<std::uint64_t> via_iter(sv.begin(), sv.end());
  std::vector<std::uint64_t> via_fill(sv.size());
  sv.fill(0, std::span<std::uint64_t>(via_fill));
  EXPECT_EQ(via_fill, via_iter);

  // Offset fill reads an interior window of the same sequence.
  std::vector<std::uint64_t> window(10);
  sv.fill(5, std::span<std::uint64_t>(window));
  for (std::size_t j = 0; j < window.size(); ++j) {
    EXPECT_EQ(window[j], via_iter[5 + j]);
  }
}

TEST(PrpShard, BalancedBoundsCoverEveryShape) {
  for (const std::uint64_t n : {0ull, 1ull, 6ull, 7ull, 100ull}) {
    for (const std::uint64_t S : {1ull, 2ull, 3ull, 7ull}) {
      std::uint64_t covered = 0;
      std::uint64_t max_size = 0;
      std::uint64_t min_size = ~0ull;
      for (std::uint64_t k = 0; k < S; ++k) {
        const prp::shard_range r = prp::shard_bounds(n, k, S);
        EXPECT_EQ(r.lo, covered) << "n=" << n << " S=" << S << " k=" << k;
        covered = r.hi;
        max_size = std::max(max_size, r.size());
        min_size = std::min(min_size, r.size());
      }
      EXPECT_EQ(covered, n) << "n=" << n << " S=" << S;
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " S=" << S;
    }
  }
}

// --- SIMD / determinism ------------------------------------------------------

TEST(PrpCipher, BitIdenticalAcrossSimdPaths) {
  // The key schedule draws through philox4x64_batch; forcing the scalar
  // kernel (what CGP_SIMD=off does) must not move one bit of any
  // permutation.  n = 1025 exercises the cycle walk too.
  const std::uint64_t n = 1025;
  test_support::expect_bit_identical(
      2,
      [&](std::size_t variant) {
        if (variant == 0) {
          rng::set_simd_override(rng::simd_path::scalar);
        } else {
          rng::clear_simd_override();
        }
        const prp::cipher c(kSeed, n);
        std::vector<std::uint64_t> out = eval_all(c);
        rng::clear_simd_override();
        return out;
      },
      "prp cipher across SIMD paths");
}

void chain_words(std::uint64_t& h, std::span<const std::uint64_t> words) {
  for (const std::uint64_t w : words) {
    for (unsigned k = 0; k < 8; ++k) {
      h ^= (w >> (8 * k)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
}

// Every eval_range window and eval_many batch the digest below chains,
// with the walk accounting of the whole sweep.
std::uint64_t prp_sweep_digest(prp::eval_stats& st) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint64_t n : {2ull, 3ull, 64ull, 65ull, 1025ull, 4099ull}) {
    const prp::cipher c(kSeed ^ n, n);
    std::vector<std::uint64_t> out(n);
    c.eval_range(0, std::span<std::uint64_t>(out), &st);
    chain_words(h, out);
    // A window that starts off a lane boundary and ends short of the domain.
    const std::uint64_t lo = n / 3;
    c.eval_range(lo, std::span<std::uint64_t>(out).subspan(0, n - lo - n / 4), &st);
    chain_words(h, std::span<const std::uint64_t>(out).subspan(0, n - lo - n / 4));
  }
  // Wire-shard windows of a 10^9 domain (1 of 16,384 shards holds 61,035
  // or 61,036 items): at offset 0 and at an odd, lane-misaligned offset.
  constexpr std::uint64_t big = 1'000'000'000ull;
  const prp::cipher c(kSeed, big);
  std::vector<std::uint64_t> out(61'035);
  for (const std::uint64_t lo : {0ull, 305'181ull}) {
    c.eval_range(lo, std::span<std::uint64_t>(out), &st);
    chain_words(h, out);
  }
  // Scattered indices through eval_many, on a walking and a huge domain.
  for (const std::uint64_t n : {std::uint64_t{1025}, big}) {
    const prp::cipher d(kSeed + 1, n);
    std::vector<std::uint64_t> in(3'001);
    for (std::size_t j = 0; j < in.size(); ++j) in[j] = rng::mix64(j) % n;
    std::vector<std::uint64_t> img(in.size());
    d.eval_many(in, std::span<std::uint64_t>(img), &st);
    chain_words(h, img);
  }
  return h;
}

// Absolute output pin: BitIdenticalAcrossSimdPaths and the executor tests
// are relative (path A == path B, fill == raw cipher), so a change to the
// rounds or the walk that moved every path together would pass them.
// This digest, and the walk count beside it, must never change.
TEST(PrpCipher, OutputDigestIsPinned) {
  prp::eval_stats st;
  const std::uint64_t h = prp_sweep_digest(st);
  EXPECT_EQ(h, 0x040057509E536CC6ull) << "digest 0x" << std::hex << h;
  EXPECT_EQ(st.evals, 135'526u);
  EXPECT_EQ(st.walk_retries, 19'639u);
}

// Every round kernel the host can run (each path rng::simd_path_supported
// allows, forced through set_simd_override) against the scalar kernel and
// pointwise pi(): window lengths around the 64-lane block and the 8- and
// 4-lane vectors, at lane-aligned and misaligned offsets, on a power-of-two
// domain, a heavily walking one and a wire-shard-sized one.  The retry
// counts must agree too: batching the cycle-walk stragglers may neither
// skip nor double-count a walk.
TEST(PrpCipher, EveryKernelPathMatchesScalarAtEveryWindowLength) {
  const rng::simd_path paths[] = {rng::simd_path::scalar, rng::simd_path::avx2,
                                  rng::simd_path::neon, rng::simd_path::avx512};
  const std::size_t lengths[] = {1, 63, 64, 65, 127, 129};
  for (const std::uint64_t n : {std::uint64_t{256}, std::uint64_t{1025},
                                std::uint64_t{1'000'000'000}}) {
    const prp::cipher c(kSeed ^ n, n);
    for (const std::size_t len : lengths) {
      for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{37}}) {
        std::vector<std::uint64_t> in(len);
        for (std::size_t j = 0; j < len; ++j) in[j] = rng::mix64(j + lo) % n;
        std::vector<std::uint64_t> ref_range;
        std::vector<std::uint64_t> ref_many;
        prp::eval_stats ref_st;
        for (const rng::simd_path p : paths) {
          if (!rng::simd_path_supported(p)) continue;
          rng::set_simd_override(p);
          std::vector<std::uint64_t> range(len);
          std::vector<std::uint64_t> many(len);
          prp::eval_stats st;
          c.eval_range(lo, std::span<std::uint64_t>(range), &st);
          c.eval_many(in, std::span<std::uint64_t>(many), &st);
          rng::clear_simd_override();
          const std::string where = std::string(rng::simd_path_name(p)) +
                                    " n=" + std::to_string(n) + " len=" + std::to_string(len) +
                                    " lo=" + std::to_string(lo);
          if (p == rng::simd_path::scalar) {
            for (std::size_t j = 0; j < len; ++j) {
              ASSERT_EQ(range[j], c.pi(lo + j)) << where << " j=" << j;
              ASSERT_EQ(many[j], c.pi(in[j])) << where << " j=" << j;
            }
            ref_range = range;
            ref_many = many;
            ref_st = st;
            continue;
          }
          EXPECT_EQ(range, ref_range) << where;
          EXPECT_EQ(many, ref_many) << where;
          EXPECT_EQ(st.evals, ref_st.evals) << where;
          EXPECT_EQ(st.walk_retries, ref_st.walk_retries) << where;
        }
      }
    }
  }
}

// --- executor + planner integration ------------------------------------------

TEST(PrpBackend, ExecutorFillMatchesRawCipherAndShuffleGathers) {
  const std::uint64_t n = 4099;  // prime, walks
  cgp::context_options copt;
  copt.which = core::backend::prp;
  const cgp::context ctx(copt);

  // fill_random_permutation == the raw cipher's eval_range.
  const std::vector<std::uint64_t> direct = eval_all(prp::cipher(kSeed, n));
  std::vector<std::uint64_t> filled = ctx.random_permutation(n, kSeed);
  EXPECT_EQ(filled, direct);

  // Shuffling an iota span gathers through the same pi: identical output.
  std::vector<std::uint64_t> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  ctx.shuffle(std::span<std::uint64_t>(shuffled), kSeed);
  EXPECT_EQ(shuffled, direct);

  // And payloads follow positions: shuffling 16-byte records whose first
  // word is the index reproduces pi in that word.
  struct rec16 {
    std::uint64_t key;
    std::uint64_t tag;
  };
  std::vector<rec16> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, ~i};
  ctx.shuffle(std::span<rec16>(recs), kSeed);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(recs[i].key, direct[i]) << "i=" << i;
    ASSERT_EQ(recs[i].tag, ~direct[i]) << "i=" << i;
  }
}

TEST(PrpBackend, AutomaticWithSparseAccessPicksPrpAndAgreesBitForBit) {
  // A sparse-declared workload (0.1% of a 2^16 domain): the prp
  // candidate's cost is ~1000x under every materializing backend's, so
  // the planner must pick it -- and the output must equal the explicit
  // backend choice bit for bit (the planner can never change bytes).
  const std::uint64_t n = std::uint64_t{1} << 16;

  cgp::context_options auto_opt;
  auto_opt.engine.accessed_fraction = 0.001;
  const cgp::context via_auto(auto_opt);
  const std::vector<std::uint64_t> pi = via_auto.random_permutation(n, kSeed);

  const core::permutation_plan plan = via_auto.plan_for(n, 8);
  EXPECT_EQ(plan.chosen, core::backend::prp) << plan.explain();
  EXPECT_EQ(plan.accessed_fraction, 0.001);

  cgp::context_options explicit_opt;
  explicit_opt.which = core::backend::prp;
  EXPECT_EQ(pi, cgp::context(explicit_opt).random_permutation(n, kSeed));

  // Dense default: prp sits out, the plan is whatever it always was.
  const cgp::context dense;
  (void)dense.random_permutation(n, kSeed);
  EXPECT_NE(dense.plan_for(n, 8).chosen, core::backend::prp);
}

TEST(PrpBackend, ExplainPrintsWinConditionsAndCandidate) {
  core::workload w;
  w.n = std::uint64_t{1} << 20;
  w.accessed_fraction = 0.01;
  const core::permutation_plan plan = core::plan_permutation(w);
  const std::string text = plan.explain();
  EXPECT_NE(text.find("prp"), std::string::npos) << text;
  EXPECT_NE(text.find("prp wins when"), std::string::npos) << text;
  EXPECT_NE(text.find("accessed_fraction"), std::string::npos) << text;

  // Dense workloads state WHY prp sits out.
  core::workload dense;
  dense.n = std::uint64_t{1} << 20;
  const std::string dense_text = core::plan_permutation(dense).explain();
  EXPECT_NE(dense_text.find("dense access"), std::string::npos) << dense_text;
}

TEST(PrpBackend, FingerprintMixesPrpRate) {
  core::machine_profile a;
  core::machine_profile b = a;
  b.prp_eval_ns = a.prp_eval_ns * 2.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- service surface ---------------------------------------------------------

TEST(PrpService, ShardStreamReplaysAgainstLocalCipher) {
  constexpr std::uint64_t kSvcSeed = 0x5E12B1CE0009ull;
  svc::server_options sopt;
  sopt.seed = kSvcSeed;
  svc::server srv(sopt);

  const std::uint64_t n = 1'000'003;  // the cipher holds the DOMAIN
  const std::uint64_t S = 5;

  // Each shard job consumes one ordinal; shard k of job (client, ordinal)
  // replays as cipher(job_seed, n).shard(k, S) -- nothing materialized
  // server-side, so opening a shard of a 10^6 domain is instant.
  for (std::uint64_t k = 0; k < S; ++k) {
    svc::stream s = srv.submit_shard(/*client_id=*/7, n, k, S);
    const prp::shard_range r = prp::shard_bounds(n, k, S);
    EXPECT_EQ(s.size(), r.size());

    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> chunk(4096);
    while (std::size_t m = s.read(std::span<std::uint64_t>(chunk))) {
      got.insert(got.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(m));
    }

    const prp::cipher local(svc::job_seed(kSvcSeed, 7, s.ordinal()), n);
    std::vector<std::uint64_t> expected(r.size());
    local.eval_range(r.lo, std::span<std::uint64_t>(expected));
    EXPECT_EQ(got, expected) << "shard " << k;
    EXPECT_EQ(s.plan().chosen, core::backend::prp);
  }
}

TEST(PrpService, PrpPlannedStreamServesCipherContent) {
  // A server whose engine declares sparse streaming access: stream jobs
  // plan onto prp and serve cipher content with nothing materialized.
  constexpr std::uint64_t kSvcSeed = 0x5E12B1CE000Aull;
  svc::server_options sopt;
  sopt.seed = kSvcSeed;
  sopt.engine.accessed_fraction = 0.001;
  svc::server srv(sopt);

  const std::uint64_t n = std::uint64_t{1} << 18;
  svc::stream s = srv.submit_stream(/*client_id=*/3, n);
  std::vector<std::uint64_t> head(1000);
  ASSERT_EQ(s.read(std::span<std::uint64_t>(head)), head.size());
  EXPECT_EQ(s.plan().chosen, core::backend::prp);

  const prp::cipher local(svc::job_seed(kSvcSeed, 3, s.ordinal()), n);
  std::vector<std::uint64_t> expected(head.size());
  local.eval_range(0, std::span<std::uint64_t>(expected));
  EXPECT_EQ(head, expected);

  // seek + reread is exact (results are pure functions, not buffers).
  s.seek(100);
  std::vector<std::uint64_t> reread(50);
  ASSERT_EQ(s.read(std::span<std::uint64_t>(reread)), reread.size());
  for (std::size_t j = 0; j < reread.size(); ++j) {
    EXPECT_EQ(reread[j], expected[100 + j]);
  }
}

}  // namespace
