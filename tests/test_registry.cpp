// Tests for the process-wide registry (core/registry.hpp): first-touch
// exactly-once construction under concurrency (the hammer tests -- many
// client threads racing shared_engine / shared_transport / shared_pool on
// the same and different configurations must produce one instance per
// configuration), the shared machine-profile cache and its explicit
// recalibration, and the plan cache (hit accounting, answer equality with
// plan_permutation, fingerprint invalidation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "comm/transport.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "smp/engine.hpp"

namespace {

using namespace cgp;

// Engine configurations unlikely to be touched by any other test in this
// binary, so the registered-count delta below is exact.
smp::engine_options hammer_config(unsigned which) {
  smp::engine_options opt;
  opt.threads = 1 + which % 3;
  opt.fan_out = which % 2 == 0 ? 32 : 64;
  opt.cache_items = 12345 + 1000 * which;
  return opt;
}

TEST(RegistryHammer, ConcurrentSharedEngineCreatesExactlyOnePerConfig) {
  constexpr unsigned kThreads = 16;
  constexpr unsigned kConfigs = 3;
  constexpr unsigned kRounds = 50;

  const std::size_t before = core::registered_engine_count();

  // Every thread hammers every config repeatedly, all released together.
  std::atomic<unsigned> start{0};
  std::vector<std::vector<const smp::engine*>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &start, &seen] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      for (unsigned r = 0; r < kRounds; ++r) {
        for (unsigned c = 0; c < kConfigs; ++c) {
          seen[t].push_back(&core::shared_engine(hammer_config(c)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one engine per distinct configuration, identical across every
  // thread and round.
  std::set<const smp::engine*> distinct;
  for (const auto& v : seen) distinct.insert(v.begin(), v.end());
  EXPECT_EQ(distinct.size(), kConfigs);
  EXPECT_EQ(core::registered_engine_count(), before + kConfigs);

  // And the instance handed out later is still the same one.
  for (unsigned c = 0; c < kConfigs; ++c) {
    EXPECT_TRUE(distinct.count(&core::shared_engine(hammer_config(c))) == 1);
  }
}

TEST(RegistryHammer, ConcurrentSharedTransportCreatesExactlyOnePerRankCount) {
  constexpr unsigned kThreads = 12;
  std::atomic<unsigned> start{0};
  std::vector<std::vector<const comm::transport*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &start, &seen] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      for (unsigned r = 0; r < 20; ++r) {
        for (const std::uint32_t ranks : {1u, 2u, 3u}) {
          seen[t].push_back(&core::shared_transport(ranks));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<const comm::transport*> distinct;
  for (const auto& v : seen) distinct.insert(v.begin(), v.end());
  EXPECT_EQ(distinct.size(), 3u);
  // Rank counts are preserved: 0 normalizes to 1 and shares its instance.
  EXPECT_EQ(&core::shared_transport(0), &core::shared_transport(1));
}

TEST(RegistryHammer, ConcurrentSharedPoolIsOneInstance) {
  constexpr unsigned kThreads = 8;
  std::atomic<unsigned> start{0};
  std::vector<const smp::thread_pool*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &start, &seen] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      seen[t] = &core::shared_pool(2);
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(SharedProfile, CachedAndStableAcrossCalls) {
  const core::machine_profile a = core::shared_profile();
  const core::machine_profile b = core::shared_profile();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // The cache serves the detected defaults for the life of the process.
  EXPECT_EQ(a.threads, core::machine_profile::detect().threads);
}

TEST(SharedProfile, ConcurrentFirstTouchAgrees) {
  constexpr unsigned kThreads = 8;
  std::atomic<unsigned> start{0};
  std::vector<std::uint64_t> fp(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &start, &fp] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      fp[t] = core::shared_profile().fingerprint();
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(fp[t], fp[0]);
}

TEST(ProfileFingerprint, SensitiveToEveryCalibratedField) {
  const core::machine_profile base;
  auto perturbed = [&](auto mutate) {
    core::machine_profile p = base;
    mutate(p);
    return p.fingerprint();
  };
  const std::uint64_t fp = base.fingerprint();
  EXPECT_EQ(fp, core::machine_profile{}.fingerprint());  // deterministic
  EXPECT_NE(fp, perturbed([](auto& p) { p.threads += 1; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.cache_items *= 2; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.seq_ns_hit += 1e-9; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.seq_ns_miss += 1e-9; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.split_ns += 1e-9; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.em_ns_per_item_pass += 1e-9; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.comm_ranks = 4; }));
  EXPECT_NE(fp, perturbed([](auto& p) { p.comm_g_ns_per_word += 1e-9; }));
}

TEST(PlanCache, HitsSkipRecomputationAndAnswersMatch) {
  core::machine_profile prof;  // default-detected shape, any fixed profile works
  prof.threads = 4;
  core::workload w;
  w.n = 123457;
  w.element_bytes = 8;

  const std::size_t lookups0 = core::plan_cache_lookups();
  const std::size_t hits0 = core::plan_cache_hits();

  const core::permutation_plan direct = core::plan_permutation(w, prof);
  const core::permutation_plan first = core::cached_plan(w, prof);
  const core::permutation_plan second = core::cached_plan(w, prof);

  EXPECT_EQ(core::plan_cache_lookups(), lookups0 + 2);
  EXPECT_GE(core::plan_cache_hits(), hits0 + 1);

  // The cache never changes the answer.
  for (const auto* p : {&first, &second}) {
    EXPECT_EQ(p->chosen, direct.chosen);
    EXPECT_EQ(p->threads, direct.threads);
    EXPECT_EQ(p->split_levels, direct.split_levels);
    EXPECT_EQ(p->em_memory_items, direct.em_memory_items);
    EXPECT_EQ(p->em_block_items, direct.em_block_items);
    EXPECT_DOUBLE_EQ(p->predicted_seconds, direct.predicted_seconds);
  }
}

TEST(PlanCache, ProfileFingerprintInvalidates) {
  core::machine_profile prof;
  prof.threads = 4;
  core::workload w;
  w.n = 987653;

  (void)core::cached_plan(w, prof);
  const std::size_t hits_before = core::plan_cache_hits();

  // Same workload, recalibrated (different) profile: must MISS -- a
  // cached plan for the old machine model would be stale.
  core::machine_profile moved = prof;
  moved.seq_ns_miss *= 2.0;
  ASSERT_NE(moved.fingerprint(), prof.fingerprint());
  (void)core::cached_plan(w, moved);
  // The old key still hits.
  (void)core::cached_plan(w, prof);
  EXPECT_GE(core::plan_cache_hits(), hits_before + 1);
}

TEST(PlanCache, ConcurrentMissesOnOneShapeAgree) {
  constexpr unsigned kThreads = 8;
  core::machine_profile prof;
  prof.threads = 3;
  core::workload w;
  w.n = 5555557;  // a shape no other test uses

  std::atomic<unsigned> start{0};
  std::vector<core::permutation_plan> plans(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &start, &plans, &w, &prof] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      plans[t] = core::cached_plan(w, prof);
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].chosen, plans[0].chosen);
    EXPECT_DOUBLE_EQ(plans[t].predicted_seconds, plans[0].predicted_seconds);
  }
}

}  // namespace
