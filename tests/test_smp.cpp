// Tests for the native shared-memory execution engine (src/smp/): the
// thread pool substrate, the parallel hypergeometric split, exhaustive
// uniformity of the engine over S4/S5, bit-reproducibility across thread
// counts, and the smp executor behind cgp::context (core/executor.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/transport.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"
#include "smp/thread_pool.hpp"
#include "stats/chisq.hpp"
#include "stats/lehmer.hpp"
#include "support/perm_check.hpp"

namespace {

using namespace cgp;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsFutureValue) {
  smp::thread_pool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  smp::thread_pool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  smp::thread_pool pool(4);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  smp::thread_pool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  smp::thread_pool pool(1);  // a single worker: waiting inside it would hang
  auto f = pool.submit([&]() {
    std::atomic<std::size_t> covered{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) { covered += hi - lo; });
    return covered.load();
  });
  EXPECT_EQ(f.get(), 100u);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  smp::thread_pool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10, [](std::size_t, std::size_t) { throw std::invalid_argument("x"); }),
      std::invalid_argument);
}

// A partition of one part -- a one-item range, or any range on a
// one-worker pool -- runs whole on the calling thread instead of being
// handed to worker 0, and its exception reaches the caller.
TEST(ThreadPool, OnePartRangeRunsOnTheCaller) {
  const struct {
    unsigned workers;
    std::size_t begin, end;
  } cases[] = {{4, 7, 8}, {1, 3, 1000}};
  for (const auto& c : cases) {
    smp::thread_pool pool(c.workers);
    std::thread::id ran_on;
    std::size_t lo_seen = 0;
    std::size_t hi_seen = 0;
    int calls = 0;
    pool.parallel_for(c.begin, c.end, [&](std::size_t lo, std::size_t hi) {
      ran_on = std::this_thread::get_id();
      lo_seen = lo;
      hi_seen = hi;
      ++calls;
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "workers=" << c.workers;
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(lo_seen, c.begin);
    EXPECT_EQ(hi_seen, c.end);
    EXPECT_THROW(pool.parallel_for(c.begin, c.end,
                                   [](std::size_t, std::size_t) {
                                     throw std::invalid_argument("one part");
                                   }),
                 std::invalid_argument);
  }
}

// --- parallel split ----------------------------------------------------------

TEST(ParallelSplit, PreservesContentAndReturnsConsistentOffsets) {
  smp::thread_pool pool(3);
  constexpr std::size_t n = 10'000;
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  std::vector<std::uint64_t> scratch(n);
  smp::split_options opt;
  opt.fan_out = 16;
  const auto off = smp::parallel_split(&pool, std::span<std::uint64_t>(v),
                                       std::span<std::uint64_t>(scratch), /*seed=*/7,
                                       /*node=*/1, opt);
  ASSERT_EQ(off.size(), 17u);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), n);
  for (std::size_t j = 0; j + 1 < off.size(); ++j) EXPECT_LE(off[j], off[j + 1]);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));  // multiset preserved
}

TEST(ParallelSplit, SequentialAndPooledExecutionsAreBitIdentical) {
  constexpr std::size_t n = 4'096;
  std::vector<std::uint64_t> a(n);
  std::iota(a.begin(), a.end(), 0);
  std::vector<std::uint64_t> b = a;
  std::vector<std::uint64_t> scratch(n);
  smp::split_options opt;
  opt.fan_out = 8;
  const auto off_seq = smp::parallel_split<std::uint64_t>(nullptr, a, scratch, 11, 1, opt);
  smp::thread_pool pool(4);
  const auto off_par = smp::parallel_split<std::uint64_t>(&pool, b, scratch, 11, 1, opt);
  EXPECT_EQ(off_seq, off_par);
  EXPECT_EQ(a, b);
}

// --- engine: correctness and uniformity --------------------------------------

TEST(SmpEngine, PermutesContentWithDeepRecursion) {
  smp::engine_options opt;
  opt.threads = 4;
  opt.fan_out = 4;
  opt.cache_items = 64;  // force several recursion levels at n = 200k
  smp::engine eng(opt);
  auto pi = eng.random_permutation(200'000, /*seed=*/1);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

TEST(SmpEngine, SmallInputFallsBackToLeafShuffle) {
  smp::engine eng;  // default cache_items far above n
  auto pi = eng.random_permutation(100, 3);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
  std::vector<int> one{9};
  eng.shuffle(std::span<int>(one), 4);
  EXPECT_EQ(one[0], 9);
  std::vector<int> empty;
  eng.shuffle(std::span<int>(empty), 5);
}

// Shared exhaustive-uniformity harness (tests/support/perm_check.hpp) with
// every rep on a distinct seed: independent runs of the whole parallel
// pipeline.
stats::gof_result engine_uniformity_gof(const smp::engine_options& opt, unsigned k, int reps,
                                        std::uint64_t seed0) {
  smp::engine eng(opt);
  return test_support::uniformity_gof(
      [&](std::span<std::uint64_t> v, int rep) {
        eng.shuffle(v, seed0 + static_cast<std::uint64_t>(rep));
      },
      k, reps);
}

TEST(SmpEngine, UniformOverS5WithBinaryRecursion) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 2;     // binary splits
  opt.cache_items = 2; // recursion all the way down even for k = 5
  const auto res = engine_uniformity_gof(opt, 5, 120 * 100, 1000);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(SmpEngine, UniformOverS4WideFanOut) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 8;  // clamped to n = 4 buckets of one item each
  opt.cache_items = 2;
  const auto res = engine_uniformity_gof(opt, 4, 24 * 400, 2000);
  EXPECT_GT(res.p_value, 1e-9) << "chi2=" << res.statistic;
}

TEST(SmpEngine, SingleItemPositionUniformInLargeShuffle) {
  smp::engine_options opt;
  opt.threads = 2;
  opt.fan_out = 4;
  opt.cache_items = 8;
  smp::engine eng(opt);
  const auto res = test_support::position_uniformity_gof(
      [&](std::span<std::uint64_t> v, int rep) {
        eng.shuffle(v, 3000 + static_cast<std::uint64_t>(rep));
      },
      64, 16'000);
  EXPECT_GT(res.p_value, 1e-9);
}

// --- engine: reproducibility -------------------------------------------------

TEST(SmpEngine, BitReproducibleAcrossThreadCounts) {
  constexpr std::uint64_t n = 50'000;
  constexpr std::uint64_t seed = 0xDEC0DEull;
  const unsigned threads[] = {1u, 2u, 4u, 8u};
  test_support::expect_bit_identical(
      std::size(threads),
      [&](std::size_t i) {
        smp::engine_options opt;
        opt.fan_out = 8;
        opt.cache_items = 64;  // deep recursion so every code path is exercised
        opt.threads = threads[i];
        smp::engine eng(opt);
        return eng.random_permutation(n, seed);
      },
      "smp thread count");
}

TEST(SmpEngine, RepeatedCallsWithSameSeedAgree) {
  smp::engine_options opt;
  opt.threads = 4;
  opt.fan_out = 4;
  opt.cache_items = 256;
  smp::engine eng(opt);
  EXPECT_EQ(eng.random_permutation(10'000, 5), eng.random_permutation(10'000, 5));
}

TEST(SmpEngine, DifferentSeedsProduceDifferentPermutations) {
  smp::engine eng;
  EXPECT_NE(eng.random_permutation(1'000, 1), eng.random_permutation(1'000, 2));
}

// The scratch arena is shared state behind one engine: concurrent callers
// each lease their own buffer, outputs stay those of a serial run, and
// the arena keeps no more than one buffer per concurrent caller.
TEST(SmpEngine, ConcurrentCallersLeaseTheirOwnScratch) {
  const bool obs_was = obs::enabled();
  obs::set_enabled(true);
  const obs::gauge& gauge = obs::get_gauge("smp.scratch_bytes");
  const std::int64_t gauge_before = gauge.value();

  // Distinct sizes above the cache cutoff; the last scratch is above
  // glibc's 32 MiB mmap ceiling.
  constexpr std::size_t kSizes[] = {70'000, 200'000, 600'000, 4'200'000};
  constexpr std::size_t kCallers = std::size(kSizes);
  constexpr int kReps = 50;
  std::size_t bound = 0;
  for (const std::size_t n : kSizes) bound += n * sizeof(std::uint64_t);

  struct caller_run {
    std::vector<std::uint64_t> digests;
    std::size_t most_retained = 0;
  };
  // Caller t shuffles its own array kReps times on `eng`.
  const auto run = [&](smp::engine& eng, std::size_t t) {
    caller_run out;
    std::vector<std::uint64_t> v(kSizes[t]);
    std::iota(v.begin(), v.end(), 0);
    for (int r = 0; r < kReps; ++r) {
      eng.shuffle(std::span<std::uint64_t>(v), 1000 * t + static_cast<std::uint64_t>(r));
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (const std::uint64_t x : v) h = (h ^ x) * 0x100000001B3ull;
      out.digests.push_back(h);
      out.most_retained = std::max(out.most_retained, eng.scratch_bytes());
    }
    return out;
  };

  smp::engine_options opt;
  opt.threads = 2;
  smp::engine serial_eng(opt);
  std::vector<caller_run> serial;
  for (std::size_t t = 0; t < kCallers; ++t) serial.push_back(run(serial_eng, t));
  EXPECT_EQ(serial_eng.scratch_bytes(), kSizes[kCallers - 1] * sizeof(std::uint64_t))
      << "callers one after another share one buffer";

  // The callers start together.  One that first arrives after a larger
  // caller has finished a call may lease the larger buffer, and the arena
  // then keeps two of them (DESIGN.md section 3).
  smp::engine eng(opt);
  std::vector<caller_run> concurrent(kCallers);
  std::latch start(static_cast<std::ptrdiff_t>(kCallers));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = run(eng, t);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(concurrent[t].digests, serial[t].digests) << "caller " << t;
    EXPECT_LE(concurrent[t].most_retained, bound) << "caller " << t;
  }
  EXPECT_LE(eng.scratch_bytes(), bound);
  EXPECT_EQ(gauge.value() - gauge_before,
            static_cast<std::int64_t>(serial_eng.scratch_bytes() + eng.scratch_bytes()));
  obs::set_enabled(obs_was);
}

// --- backend dispatch --------------------------------------------------------

TEST(Backend, SmpDispatchMatchesDirectEngineOnSameSeed) {
  cgp::context_options copt;
  copt.which = core::backend::smp;
  copt.parallelism = 2;
  copt.engine.smp_engine.fan_out = 8;
  copt.engine.smp_engine.cache_items = 128;
  const auto via_dispatch = cgp::context(copt).random_permutation(20'000, 77);

  smp::engine_options eopt = copt.engine.smp_engine;
  eopt.threads = 2;
  smp::engine eng(eopt);
  EXPECT_EQ(via_dispatch, eng.random_permutation(20'000, 77));
}

TEST(Backend, SmpDispatchReusesProvidedEngine) {
  smp::engine_options eopt;
  eopt.threads = 2;
  eopt.cache_items = 64;
  smp::engine eng(eopt);
  cgp::context_options copt;
  copt.which = core::backend::smp;
  copt.engine.engine = &eng;
  EXPECT_EQ(cgp::context(copt).random_permutation(5'000, 123),
            eng.random_permutation(5'000, 123));
}

TEST(Backend, SequentialDispatchMatchesFisherYates) {
  cgp::context_options copt;
  copt.which = core::backend::sequential;
  const auto via_dispatch = cgp::context(copt).random_permutation(1'000, 1234);

  rng::philox4x64 e(1234, 0);
  std::vector<std::uint64_t> direct(1'000);
  seq::random_permutation(e, direct);
  EXPECT_EQ(via_dispatch, direct);
}

// FNV-1a over a byte range, chained into `h`.
void chain_digest(std::uint64_t& h, const unsigned char* bytes, std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) {
    h ^= bytes[k];
    h *= 0x100000001B3ull;
  }
}

// Shuffle n index-derived records of elem_bytes each through the executor
// the dispatch builds, once at an aligned and once at an odd address;
// both must agree byte for byte.  Chains the output into `h`.
void shuffle_and_chain(std::uint64_t& h, const core::backend_options& opt, std::uint64_t n,
                       std::uint32_t elem_bytes, std::uint64_t seed) {
  const std::size_t len = static_cast<std::size_t>(n) * elem_bytes;
  std::vector<std::uint64_t> aligned_store(len / 8 + 1);
  std::vector<std::uint64_t> odd_store(len / 8 + 2);
  auto* aligned = reinterpret_cast<unsigned char*>(aligned_store.data());
  auto* odd = reinterpret_cast<unsigned char*>(odd_store.data()) + 1;
  for (std::size_t k = 0; k < len; ++k) {
    aligned[k] = odd[k] = static_cast<unsigned char>(rng::mix64(k / elem_bytes) >> (8 * (k % 8)));
  }
  core::make_executor(core::resolve_plan(n, elem_bytes, opt), opt)
      ->shuffle_raw(aligned, n, elem_bytes, seed);
  core::make_executor(core::resolve_plan(n, elem_bytes, opt), opt)
      ->shuffle_raw(odd, n, elem_bytes, seed);
  ASSERT_EQ(std::memcmp(aligned, odd, len), 0) << "n=" << n << " elem_bytes=" << elem_bytes;
  chain_digest(h, aligned, len);
}

// Absolute output pins.  Every other bit-identity test is relative (smp ==
// cgm, em == sequential, automatic == explicit, SIMD path A == path B), so
// a change to a stream several backends share would move them together
// and still pass.  These digests chain every output byte of each backend
// over the typed, 3-byte fallback and >8-byte record paths, the cgm
// root-leaf gather (n = 500 <= cache_items at p = 3), the em deep leaves,
// and both hypergeometric samplers; they must never change.
TEST(Backend, OutputDigestsArePinnedAtAlignedAndOddAddresses) {
  comm::threaded_transport ranks(3);
  core::backend_options seq_opt;
  seq_opt.which = core::backend::sequential;
  core::backend_options smp_opt;
  smp_opt.which = core::backend::smp;
  smp_opt.parallelism = 3;
  smp_opt.smp_engine.cache_items = 512;
  core::backend_options cgm_opt;
  cgm_opt.which = core::backend::cgm;
  cgm_opt.transport = &ranks;
  cgm_opt.cgm_engine.engine.cache_items = 512;
  core::backend_options em_opt;
  em_opt.which = core::backend::em;
  em_opt.parallelism = 3;
  em_opt.em_engine.memory_items = 1024;
  em_opt.em_block_items = 64;

  const struct {
    const char* name;
    const core::backend_options* opt;
    std::uint64_t digest;
  } pins[] = {
      {"seq", &seq_opt, 0x03AB16F52E0702A8ull},
      {"smp", &smp_opt, 0xDB94DE8B05EC797Dull},
      {"cgm", &cgm_opt, 0xDAFBB1BB1DC66EA2ull},
      {"em", &em_opt, 0x76D7AE796E31F1A8ull},
  };
  for (const auto& pin : pins) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::uint64_t n : {std::uint64_t{500}, std::uint64_t{20'011}}) {
      for (const std::uint32_t elem_bytes : {1u, 3u, 8u, 12u, 16u, 24u}) {
        shuffle_and_chain(h, *pin.opt, n, elem_bytes, 0xD16E57ull ^ (n << 8) ^ elem_bytes);
      }
    }
    std::vector<std::uint64_t> pi(20'011);
    core::make_executor(core::resolve_plan(pi.size(), 8, *pin.opt), *pin.opt)
        ->fill_random_permutation(pi, 0xF111);
    for (const std::uint64_t v : pi) {
      unsigned char le[8];
      for (unsigned k = 0; k < 8; ++k) le[k] = static_cast<unsigned char>(v >> (8 * k));
      chain_digest(h, le, sizeof le);
    }
    if (pin.opt == &smp_opt) {
      // Default engine options: at 2^20 items the root matrix draws HRUA.
      core::backend_options big;
      big.which = core::backend::smp;
      big.parallelism = 3;
      shuffle_and_chain(h, big, std::uint64_t{1} << 20, 8, 0xB16);
    }
    EXPECT_EQ(h, pin.digest) << pin.name << " digest 0x" << std::hex << h;
  }
}

TEST(Backend, AllBackendsProduceValidPermutations) {
  for (const auto b : {core::backend::prp, core::backend::smp, core::backend::em,
                       core::backend::cgm, core::backend::sequential}) {
    cgp::context_options copt;
    copt.which = b;
    copt.parallelism = 2;
    copt.engine.em_block_items = 64;  // keep the device tiny for n = 997
    copt.engine.em_engine.memory_items = 256;  // force the out-of-core path
    cgp::context ctx(copt);
    const auto pi = ctx.random_permutation(997);  // prime: uneven blocks everywhere
    EXPECT_TRUE(stats::is_permutation_of_iota(pi)) << core::backend_name(b);
  }
}

TEST(Backend, NamesAreStable) {
  EXPECT_STREQ(core::backend_name(core::backend::cgm), "cgm");
  EXPECT_STREQ(core::backend_name(core::backend::smp), "smp");
  EXPECT_STREQ(core::backend_name(core::backend::em), "em");
  EXPECT_STREQ(core::backend_name(core::backend::sequential), "seq");
}

}  // namespace
