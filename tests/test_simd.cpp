// Tests for the SIMD keystream pass (rng/philox_batch.hpp) and the NUMA
// placement that rides with it.
//
// The load-bearing claim is lane-order independence: every kernel (scalar,
// AVX2, NEON) of philox4x64_batch writes the EXACT word sequence
// out[4i+j] = bijection(counter+i, key)[j], so the batched engine replays
// the scalar engine bit for bit and no backend's permutation can depend on
// which path ran.  The suite pins this at every layer: raw keystream,
// engine word streams, and whole-backend permutations across
// {scalar, vector} x batch sizes x {seq, smp, em, cgm, simulator}.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "cgm/machine.hpp"
#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "rng/stream.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/thread_pool.hpp"
#include "support/perm_check.hpp"

namespace {

using namespace cgp;

/// Restore env/detection dispatch on scope exit, whatever a test forced.
struct override_guard {
  ~override_guard() { rng::clear_simd_override(); }
};

/// All paths this host can actually run (scalar always; every supported
/// vector tier -- an AVX-512 host runs both the avx2 and avx512 kernels,
/// and the differential pins below cover each of them).
std::vector<rng::simd_path> runnable_paths() {
  std::vector<rng::simd_path> paths{rng::simd_path::scalar};
  for (const rng::simd_path p :
       {rng::simd_path::avx2, rng::simd_path::neon, rng::simd_path::avx512}) {
    if (rng::simd_path_supported(p)) paths.push_back(p);
  }
  return paths;
}

// ---------------------------------------------------------------------------
// Keystream pins

TEST(PhiloxBatch, MatchesRepeatedSingleCallBijection) {
  // philox4x64_batch vs nblocks separate bijection() calls -- the
  // ISSUE-mandated equality pin, on every runnable path and at batch sizes
  // spanning {1, 4, 8} plus remainders that exercise each kernel's tail.
  const auto key = rng::philox4x64::derive_key(0xA11CE, 7);
  for (const rng::simd_path path : runnable_paths()) {
    for (const std::uint64_t nblocks : {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 9ull, 12ull,
                                        16ull, 17ull, 24ull, 33ull}) {
      rng::philox4x64::block_type counter{0x123, 0, 0, 0};
      std::vector<std::uint64_t> got(4 * nblocks);
      rng::philox4x64_batch_on(path, counter, key, nblocks, got.data());
      for (std::uint64_t i = 0; i < nblocks; ++i) {
        const auto want = rng::philox4x64::bijection(counter, key);
        for (int j = 0; j < 4; ++j) {
          ASSERT_EQ(got[4 * i + j], want[static_cast<std::size_t>(j)])
              << "path=" << rng::simd_path_name(path) << " nblocks=" << nblocks << " block=" << i
              << " word=" << j;
        }
        for (auto& w : counter) {
          if (++w != 0) break;
        }
      }
    }
  }
}

TEST(PhiloxBatch, AllPathsBitIdentical) {
  const auto key = rng::philox4x64::derive_key(42, 0);
  // A counter straddling the 64-bit word boundary exercises the 256-bit
  // carry inside every kernel's lane setup.
  const rng::philox4x64::block_type counter{~std::uint64_t{0} - 2, 5, 0, 0};
  constexpr std::uint64_t kBlocks = 16;
  std::vector<std::uint64_t> reference(4 * kBlocks);
  rng::philox4x64_batch_on(rng::simd_path::scalar, counter, key, kBlocks, reference.data());
  for (const rng::simd_path path : runnable_paths()) {
    std::vector<std::uint64_t> got(4 * kBlocks);
    rng::philox4x64_batch_on(path, counter, key, kBlocks, got.data());
    EXPECT_EQ(got, reference) << "path=" << rng::simd_path_name(path);
  }
}

TEST(PhiloxBatch, UnsupportedPathRequestFallsBackToScalar) {
  // Asking for a kernel this host cannot run must still produce the
  // keystream (via the scalar fallback), never garbage or a crash.
  const auto key = rng::philox4x64::derive_key(1, 2);
  const rng::philox4x64::block_type counter{9, 0, 0, 0};
  std::vector<std::uint64_t> reference(8), got(8);
  rng::philox4x64_batch_on(rng::simd_path::scalar, counter, key, 2, reference.data());
  for (const rng::simd_path path :
       {rng::simd_path::avx2, rng::simd_path::neon, rng::simd_path::avx512}) {
    rng::philox4x64_batch_on(path, counter, key, 2, got.data());
    EXPECT_EQ(got, reference) << "path=" << rng::simd_path_name(path);
  }
}

TEST(BatchedPhilox, ReplaysScalarEngineWordForWord) {
  override_guard guard;
  for (const rng::simd_path path : runnable_paths()) {
    rng::set_simd_override(path);
    rng::philox4x64 scalar(0x5EED, 0xF00);
    rng::batched_philox batched(0x5EED, 0xF00);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(batched(), scalar()) << "path=" << rng::simd_path_name(path) << " word=" << i;
    }
  }
}

TEST(BatchedPhilox, SeekMatchesStreamEngineAt) {
  override_guard guard;
  for (const rng::simd_path path : runnable_paths()) {
    rng::set_simd_override(path);
    for (const std::uint64_t idx : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 31ull, 32ull, 33ull,
                                    100ull, 1000ull}) {
      auto reference = rng::stream_engine_at(0xABCD, 0x11, idx);
      rng::batched_philox batched(0xABCD, 0x11, idx);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(batched(), reference())
            << "path=" << rng::simd_path_name(path) << " idx=" << idx << " word=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch control

TEST(SimdDispatch, OverrideForcesScalarAndRestores) {
  override_guard guard;
  rng::set_simd_override(rng::simd_path::scalar);
  EXPECT_EQ(rng::active_simd_path(), rng::simd_path::scalar);
  rng::clear_simd_override();
  // Without an override, the path is whatever env/detection resolved at
  // process start; it must at least be a runnable one.
  const rng::simd_path active = rng::active_simd_path();
  EXPECT_TRUE(active == rng::simd_path::scalar || active == rng::detected_simd_path());
}

TEST(SimdDispatch, UnsupportedOverrideDegradesToScalar) {
  override_guard guard;
  // Request every vector path; the ones this host cannot execute must
  // degrade to scalar rather than dispatch into an illegal instruction.
  // (Supported is a SET, not just the detected best: an AVX-512 host also
  // honours an avx2 request.)
  for (const rng::simd_path p :
       {rng::simd_path::avx2, rng::simd_path::neon, rng::simd_path::avx512}) {
    rng::set_simd_override(p);
    const rng::simd_path active = rng::active_simd_path();
    if (rng::simd_path_supported(p)) {
      EXPECT_EQ(active, p);
    } else {
      EXPECT_EQ(active, rng::simd_path::scalar);
    }
  }
}

TEST(SimdDispatch, ActivePathIsSurfacedInObsGauge) {
  override_guard guard;
  rng::set_simd_override(rng::simd_path::scalar);
  EXPECT_EQ(obs::get_gauge("rng.simd_path").value(),
            static_cast<std::int64_t>(rng::simd_path::scalar));
  rng::clear_simd_override();
  EXPECT_EQ(obs::get_gauge("rng.simd_path").value(),
            static_cast<std::int64_t>(rng::active_simd_path()));
}

TEST(SimdDispatch, PlanExplainNamesTheActivePath) {
  override_guard guard;
  rng::set_simd_override(rng::simd_path::scalar);
  core::workload w;
  w.n = 1 << 20;
  const auto plan = core::plan_permutation(w, core::machine_profile::detect());
  EXPECT_NE(plan.explain().find("rng.simd_path=scalar"), std::string::npos);
}

TEST(SimdDispatch, ProfileFingerprintReKeysAcrossPaths) {
  override_guard guard;
  const core::machine_profile prof;
  rng::set_simd_override(rng::simd_path::scalar);
  const std::uint64_t fp_scalar = prof.fingerprint();
  EXPECT_EQ(fp_scalar, prof.fingerprint()) << "fingerprint must be stable under a fixed path";
  if (rng::detected_simd_path() != rng::simd_path::scalar) {
    rng::set_simd_override(rng::detected_simd_path());
    EXPECT_NE(prof.fingerprint(), fp_scalar)
        << "moving a profile between ISAs must re-key the plan cache";
  }
}

// ---------------------------------------------------------------------------
// Lane-order independence at the backend level: the same seed must yield
// the same permutation no matter which kernel generated the keystream.

TEST(SimdBackends, PermutationsBitIdenticalAcrossPaths) {
  override_guard guard;
  const std::uint64_t n = 1 << 12;
  const std::uint64_t seed = 0x51D7E57;
  for (const core::backend which :
       {core::backend::sequential, core::backend::smp, core::backend::em, core::backend::cgm}) {
    cgp::context_options copt;
    copt.which = which;
    const cgp::context ctx(copt);
    rng::set_simd_override(rng::simd_path::scalar);
    const auto scalar_pi = ctx.random_permutation(n, seed);
    EXPECT_TRUE(stats::is_permutation_of_iota(scalar_pi))
        << core::backend_name(which);
    for (const rng::simd_path path : runnable_paths()) {
      rng::set_simd_override(path);
      const auto pi = ctx.random_permutation(n, seed);
      EXPECT_EQ(pi, scalar_pi) << "backend=" << core::backend_name(which)
                               << " path=" << rng::simd_path_name(path);
    }
  }
  // The model-counting simulator, on a fresh 4-processor machine per run.
  const auto simulate = [&] {
    cgm::machine mach(4, seed);
    return core::random_permutation_global(mach, n);
  };
  rng::set_simd_override(rng::simd_path::scalar);
  const auto scalar_pi = simulate();
  EXPECT_TRUE(stats::is_permutation_of_iota(scalar_pi)) << "simulator";
  for (const rng::simd_path path : runnable_paths()) {
    rng::set_simd_override(path);
    EXPECT_EQ(simulate(), scalar_pi) << "simulator path=" << rng::simd_path_name(path);
  }
}

// ---------------------------------------------------------------------------
// Statistical quality of the batched path (S4/S5 exhaustive chi-square):
// replaying the same words in batches cannot change the law, but the pin
// keeps refactors honest.

TEST(SimdUniformity, BatchedEngineS4) {
  test_support::expect_uniform_over_sk(
      [](std::span<std::uint64_t> v, int rep) {
        rng::batched_philox e(0x54D, static_cast<std::uint64_t>(rep));
        seq::fisher_yates(e, v);
      },
      4, 24 * 250);
}

TEST(SimdUniformity, BatchedEngineS5) {
  test_support::expect_uniform_over_sk(
      [](std::span<std::uint64_t> v, int rep) {
        rng::batched_philox e(0x55D, static_cast<std::uint64_t>(rep));
        seq::fisher_yates(e, v);
      },
      5, 120 * 60);
}

// ---------------------------------------------------------------------------
// NUMA-aware pool: topology accessors are coherent and placement never
// perturbs results (chunk->worker affinity is a preference, not a
// dependency).

TEST(NumaPool, TopologyAccessorsAreCoherent) {
  smp::thread_pool pool(4);
  EXPECT_GE(pool.numa_node_count(), 1u);
  for (unsigned w = 0; w < pool.size(); ++w) {
    EXPECT_LT(pool.worker_node(w), pool.numa_node_count()) << "worker " << w;
  }
  // Contiguous grouping: node ids are non-decreasing over workers.
  for (unsigned w = 1; w < pool.size(); ++w) {
    EXPECT_LE(pool.worker_node(w - 1), pool.worker_node(w));
  }
}

TEST(NumaPool, ParallelForCoversRangeExactlyOnce) {
  smp::thread_pool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
