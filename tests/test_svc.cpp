// Tests for the concurrent permutation service (src/svc/):
//
//   * service determinism / interleaving invariance: N client threads x M
//     request shapes submitted in randomized order produce bit-identical
//     output to serial context::shuffle with the same (client_id,
//     ordinal) seed keying, under scheduler worker counts {1, 2, 4}, with
//     small jobs riding batches;
//   * whole, in-place, and chunked (stream) delivery, including the
//     device-backed stream of an out-of-core-planned job;
//   * admission control: a full bounded queue rejects (or blocks, per
//     policy) instead of growing without bound -- pinned at the scheduler
//     level with gated synthetic tasks and at the server level under a
//     flood (both also run under ASan in CI's sanitize job);
//   * batching mechanics (one pool dispatch per tick's batch) and the
//     plan cache on the server's dispatch path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/registry.hpp"
#include "stats/lehmer.hpp"
#include "svc/job.hpp"
#include "svc/scheduler.hpp"
#include "svc/server.hpp"
#include "svc/stream.hpp"

namespace {

using namespace cgp;

constexpr std::uint64_t kSeed = 0x5E12B1CE0001ull;

std::vector<std::uint64_t> iota_vec(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------------------------------------------------------------------------
// Seed keying

TEST(JobSeed, PureAndCollisionFreeOverSmallGrid) {
  EXPECT_EQ(svc::job_seed(kSeed, 3, 7), svc::job_seed(kSeed, 3, 7));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t c = 0; c < 16; ++c) {
    for (std::uint64_t k = 0; k < 16; ++k) seeds.push_back(svc::job_seed(kSeed, c, k));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Distinct server seeds decorrelate the whole grid.
  EXPECT_NE(svc::job_seed(kSeed, 0, 0), svc::job_seed(kSeed + 1, 0, 0));
}

// ---------------------------------------------------------------------------
// Determinism / interleaving invariance (the service's acceptance bar)

TEST(ServiceDeterminism, InterleavingWorkersAndBatchingInvariant) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  const std::vector<std::uint64_t> shapes = {1000, 30000, 100000};  // spans the cache cutoff

  // Serial reference: a bare context with the server's configuration,
  // driven by the same (client, ordinal) seed keying.
  cgp::context ctx;
  std::vector<std::vector<std::vector<std::uint64_t>>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    expected[c].resize(kPerClient);
    for (int k = 0; k < kPerClient; ++k) {
      auto v = iota_vec(shapes[static_cast<std::size_t>(k) % shapes.size()]);
      ctx.shuffle(std::span<std::uint64_t>(v),
                  svc::job_seed(kSeed, static_cast<std::uint64_t>(c),
                                static_cast<std::uint64_t>(k)));
      expected[c][k] = std::move(v);
    }
  }

  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    svc::server_options so;
    so.seed = kSeed;
    so.scheduler_workers = workers;
    svc::server srv(so);

    std::vector<std::vector<std::vector<std::uint64_t>>> buf(kClients);
    std::vector<std::vector<svc::future<void>>> futs(kClients);
    for (int c = 0; c < kClients; ++c) {
      buf[c].resize(kPerClient);
      futs[c].resize(kPerClient);
      for (int k = 0; k < kPerClient; ++k) {
        buf[c][k] = iota_vec(shapes[static_cast<std::size_t>(k) % shapes.size()]);
      }
    }

    // Each client submits ITS jobs in order from its own thread; the
    // cross-client interleaving is randomized with per-thread jitter.
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 jitter(static_cast<unsigned>(c + 131 * workers + 7));
        for (int k = 0; k < kPerClient; ++k) {
          for (unsigned y = jitter() % 4; y > 0; --y) std::this_thread::yield();
          futs[c][k] = srv.submit_shuffle(static_cast<std::uint64_t>(c),
                                          std::span<std::uint64_t>(buf[c][k]));
        }
      });
    }
    for (auto& t : clients) t.join();

    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < kPerClient; ++k) {
        ASSERT_NO_THROW(futs[c][k].get());
        EXPECT_EQ(buf[c][k], expected[c][k])
            << "client " << c << " ordinal " << k << " workers " << workers;
      }
    }
    const svc::server_stats st = srv.stats();
    EXPECT_EQ(st.done, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.sched.rejected, 0u);
  }
}

TEST(ServiceDeterminism, PermutationJobMatchesContextRandomPermutation) {
  svc::server_options so;
  so.seed = kSeed;
  svc::server srv(so);
  cgp::context ctx;

  for (const std::uint64_t n : {500ull, 200000ull}) {
    auto fut = srv.submit_permutation(/*client=*/9, n);
    const svc::permutation got = fut.get();
    ASSERT_TRUE(stats::is_permutation_of_iota(got));
    EXPECT_EQ(got, ctx.random_permutation(n, fut.seed()));
  }
}

// ---------------------------------------------------------------------------
// Delivery shapes

TEST(ServiceStream, ChunksReassembleTheWholePermutationAtAnyChunkSize) {
  svc::server_options so;
  so.seed = kSeed;
  svc::server srv(so);
  cgp::context ctx;

  const std::uint64_t n = 100000;
  svc::stream s = srv.submit_stream(/*client=*/1, n);
  EXPECT_EQ(s.size(), n);
  EXPECT_EQ(s.chunk_items(), svc::server::kStreamChunkItems);

  std::vector<std::uint64_t> assembled;
  assembled.reserve(n);
  while (auto chunk = s.next_chunk()) {
    assembled.insert(assembled.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(s.consumed(), n);
  EXPECT_EQ(assembled, ctx.random_permutation(n, s.seed()));

  // Chunk boundaries are invisible: re-read with a pathological chunk
  // size and compare.
  s.seek(0);
  std::vector<std::uint64_t> reread;
  std::vector<std::uint64_t> tiny(977);
  while (std::size_t got = s.read(std::span<std::uint64_t>(tiny))) {
    reread.insert(reread.end(), tiny.begin(), tiny.begin() + static_cast<std::ptrdiff_t>(got));
  }
  EXPECT_EQ(reread, assembled);
}

TEST(ServiceStream, OutOfCorePlannedStreamStaysOnDeviceAndMatchesContext) {
  // A budget far below n * 8 forces the planner out of core; the stream
  // then keeps the permutation on the em device and serves accounted
  // range reads.
  svc::server_options so;
  so.seed = kSeed;
  so.memory_budget_bytes = 100 * 1024;
  svc::server srv(so);

  const std::uint64_t n = 50000;
  svc::stream s = srv.submit_stream(/*client=*/2, n);

  std::vector<std::uint64_t> assembled;
  while (auto chunk = s.next_chunk()) {
    assembled.insert(assembled.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(s.plan().chosen, core::backend::em);
  ASSERT_TRUE(stats::is_permutation_of_iota(assembled));

  cgp::context_options co;
  co.memory_budget_bytes = so.memory_budget_bytes;
  cgp::context ctx(co);
  EXPECT_EQ(assembled, ctx.random_permutation(n, s.seed()));
}

TEST(ServiceFutures, DefaultInvalidAndWholeDeliveryMovesOut) {
  svc::future<svc::permutation> empty;
  EXPECT_FALSE(empty.valid());

  svc::server srv;
  auto fut = srv.submit_permutation(0, 1000);
  EXPECT_TRUE(fut.valid());
  EXPECT_EQ(fut.wait(), svc::job_status::done);
  const svc::permutation pi = fut.get();
  EXPECT_EQ(pi.size(), 1000u);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

// ---------------------------------------------------------------------------
// Admission control / backpressure

// Scheduler-level pin with gated tasks: fully deterministic.
TEST(Backpressure, RejectPolicyBoundsTheQueueAndRefusesOverflow) {
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> ran{0};

  const auto gated = [&] {
    std::unique_lock<std::mutex> lock(gate_m);
    gate_cv.wait(lock, [&] { return gate_open; });
    ran.fetch_add(1);
  };
  const auto counted = [&] { ran.fetch_add(1); };

  svc::scheduler_options so;
  so.workers = 1;
  so.queue_capacity = 2;
  so.policy = svc::admission::reject;
  svc::scheduler sched(core::shared_pool(1), so);

  // The worker takes the gated task and blocks inside it; the queue is
  // then exactly the bounded buffer.
  ASSERT_TRUE(sched.submit({false, gated}));
  while (sched.stats().submitted == 0) std::this_thread::yield();
  // Give the worker a moment to pop the gate task off the queue.
  while (true) {
    const auto st = sched.stats();
    if (st.submitted == 1 && st.max_queue_depth >= 1) break;
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    if (sched.submit({true, counted})) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_LE(accepted, 2 + 1);  // capacity, +1 if the worker popped early
  EXPECT_GE(rejected, 7);

  {
    const std::lock_guard<std::mutex> lock(gate_m);
    gate_open = true;
  }
  gate_cv.notify_all();
  sched.close();

  EXPECT_EQ(ran.load(), 1 + accepted);  // every admitted task ran, none leaked
  const auto st = sched.stats();
  EXPECT_LE(st.max_queue_depth, so.queue_capacity);
  EXPECT_GE(st.rejected, static_cast<std::uint64_t>(rejected));
}

TEST(Backpressure, BlockPolicyStallsTheSubmitterInsteadOfGrowing) {
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> ran{0};

  const auto gated = [&] {
    std::unique_lock<std::mutex> lock(gate_m);
    gate_cv.wait(lock, [&] { return gate_open; });
    ran.fetch_add(1);
  };
  const auto counted = [&] { ran.fetch_add(1); };

  svc::scheduler_options so;
  so.workers = 1;
  so.queue_capacity = 2;
  so.policy = svc::admission::block;
  svc::scheduler sched(core::shared_pool(1), so);

  ASSERT_TRUE(sched.submit({false, gated}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Flood from a helper thread: it must BLOCK (not fail, not grow the
  // queue past capacity) until the gate opens.
  constexpr int kFlood = 8;
  std::atomic<int> accepted{0};
  std::thread flooder([&] {
    for (int i = 0; i < kFlood; ++i) {
      if (sched.submit({true, counted})) accepted.fetch_add(1);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The flooder cannot have pushed more than capacity (+1 in flight).
  EXPECT_LE(accepted.load(), static_cast<int>(so.queue_capacity) + 1);

  {
    const std::lock_guard<std::mutex> lock(gate_m);
    gate_open = true;
  }
  gate_cv.notify_all();
  flooder.join();
  sched.close();

  EXPECT_EQ(accepted.load(), kFlood);  // block policy never drops work
  EXPECT_EQ(ran.load(), 1 + kFlood);
  const auto st = sched.stats();
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_LE(st.max_queue_depth, so.queue_capacity);
}

// Server-level flood: rejected futures surface the status, accepted jobs
// all complete, queue memory stays bounded.
TEST(Backpressure, ServerRejectsOverflowAndCompletesTheRest) {
  svc::server_options so;
  so.seed = kSeed;
  so.queue_capacity = 4;
  so.policy = svc::admission::reject;
  svc::server srv(so);

  constexpr int kFlood = 64;
  const std::uint64_t n = 200000;
  std::vector<std::vector<std::uint64_t>> bufs(kFlood);
  std::vector<svc::future<void>> futs(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    bufs[i] = iota_vec(n);
    futs[i] = srv.submit_shuffle(/*client=*/0, std::span<std::uint64_t>(bufs[i]));
  }
  srv.close();

  int done = 0;
  int rejected = 0;
  for (int i = 0; i < kFlood; ++i) {
    const svc::job_status st = futs[i].wait();
    if (st == svc::job_status::done) {
      ++done;
      EXPECT_TRUE(stats::is_permutation_of_iota(bufs[i]));
    } else {
      ASSERT_EQ(st, svc::job_status::rejected);
      ++rejected;
      EXPECT_THROW(futs[i].get(), std::runtime_error);
      EXPECT_EQ(bufs[i], iota_vec(n));  // rejected job never touched the buffer
    }
  }
  EXPECT_EQ(done + rejected, kFlood);
  EXPECT_GT(rejected, 0) << "flood never filled the queue -- raise kFlood";
  const auto st = srv.stats();
  EXPECT_EQ(st.done, static_cast<std::uint64_t>(done));
  EXPECT_EQ(st.sched.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_LE(st.sched.max_queue_depth, so.queue_capacity);

  // Rejected submissions still consumed their ordinals: the LAST future's
  // ordinal equals kFlood - 1 regardless of how many were dropped.
  EXPECT_EQ(futs[kFlood - 1].ordinal(), static_cast<std::uint64_t>(kFlood - 1));
  // And accepted jobs replay against a bare context by (client, ordinal).
  cgp::context ctx;
  for (int i = 0; i < kFlood; ++i) {
    if (futs[i].status() != svc::job_status::done) continue;
    auto v = iota_vec(n);
    ctx.shuffle(std::span<std::uint64_t>(v), svc::job_seed(kSeed, 0, futs[i].ordinal()));
    EXPECT_EQ(bufs[i], v);
    break;  // one replay suffices
  }
}

TEST(AdmissionAfterClose, SubmissionsAreRejected) {
  svc::server srv;
  srv.close();
  auto fut = srv.submit_permutation(0, 100);
  EXPECT_EQ(fut.status(), svc::job_status::rejected);
}

// ---------------------------------------------------------------------------
// Batching mechanics + plan cache

TEST(Batching, QueuedSmallJobsRideOneDispatch) {
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> ran{0};

  svc::scheduler_options so;
  so.workers = 1;
  so.queue_capacity = 64;
  svc::scheduler sched(core::shared_pool(1), so);

  ASSERT_TRUE(sched.submit({false, [&] {
                              std::unique_lock<std::mutex> lock(gate_m);
                              gate_cv.wait(lock, [&] { return gate_open; });
                            }}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sched.submit({true, [&] { ran.fetch_add(1); }}));
  }
  {
    const std::lock_guard<std::mutex> lock(gate_m);
    gate_open = true;
  }
  gate_cv.notify_all();
  sched.close();

  EXPECT_EQ(ran.load(), 10);
  const auto st = sched.stats();
  EXPECT_GE(st.batches, 1u);
  EXPECT_GE(st.batched_jobs, 2u);
}

TEST(Batching, HeadLargeJobIsNotStarvedBySmallJobsBehindIt) {
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::mutex order_m;
  std::vector<int> order;

  svc::scheduler_options so;
  so.workers = 1;
  so.queue_capacity = 64;
  svc::scheduler sched(core::shared_pool(1), so);

  // Occupy the worker, then queue a LARGE job with small jobs behind it.
  ASSERT_TRUE(sched.submit({true, [&] {
                              std::unique_lock<std::mutex> lock(gate_m);
                              gate_cv.wait(lock, [&] { return gate_open; });
                            }}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(sched.submit({false, [&] {
                              const std::lock_guard<std::mutex> lock(order_m);
                              order.push_back(-1);  // the large job
                            }}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sched.submit({true, [&, i] {
                                const std::lock_guard<std::mutex> lock(order_m);
                                order.push_back(i);
                              }}));
  }
  {
    const std::lock_guard<std::mutex> lock(gate_m);
    gate_open = true;
  }
  gate_cv.notify_all();
  sched.close();

  // The tick always services the queue head: the large job ran FIRST,
  // before any batch of the small jobs submitted behind it.
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order.front(), -1);
}

// ---------------------------------------------------------------------------
// Metrics scoping + counter reconciliation (the ISSUE 7 bugfix sweep)

TEST(MetricsScoping, TwoServersDoNotPolluteEachOthersSnapshots) {
  // metrics_snapshot() used to read the PROCESS-wIDE registry histograms,
  // so any server's snapshot showed every server's jobs.  The curated
  // sections are per-instance now: an idle server reports zeros no matter
  // how busy its neighbours are.
  svc::server_options so;
  so.seed = kSeed;
  svc::server busy(so);
  svc::server idle(so);

  for (int i = 0; i < 5; ++i) (void)busy.submit_permutation(0, 2000).get();

  EXPECT_EQ(busy.job_latency_histogram().count(), 5u);
  EXPECT_EQ(idle.job_latency_histogram().count(), 0u);
  EXPECT_EQ(idle.batch_size_histogram().count(), 0u);

  const std::string ij = idle.metrics_snapshot();
  EXPECT_NE(ij.find("\"done\": 0"), std::string::npos);
  EXPECT_NE(ij.find("\"job_latency\": {\"count\": 0"), std::string::npos);
  EXPECT_NE(ij.find("\"batch_size\": {\"count\": 0"), std::string::npos);
  // The deliberately process-wide sections say so.
  EXPECT_NE(ij.find("\"plan_cache\": {\"scope\": \"process\""), std::string::npos);

  // And the scoping is symmetric: the idle server's first job lands in
  // ITS histogram only.
  (void)idle.submit_permutation(1, 2000).get();
  EXPECT_EQ(idle.job_latency_histogram().count(), 1u);
  EXPECT_EQ(busy.job_latency_histogram().count(), 5u);
  const std::string bj = busy.metrics_snapshot();
  EXPECT_NE(bj.find("\"done\": 5"), std::string::npos);
  EXPECT_NE(bj.find("\"job_latency\": {\"count\": 5"), std::string::npos);
}

TEST(CounterReconciliation, EveryOutcomeIsCountedExactlyOnce) {
  // Flood a tiny queue so the submission burst splits into accepted and
  // rejected, then reconcile every ledger: admissions vs terminal
  // outcomes vs handle statuses vs the latency histogram.  A job counted
  // twice (or a rejected job leaking into submitted/done) breaks one of
  // these equalities.
  svc::server_options so;
  so.seed = kSeed;
  so.scheduler_workers = 2;
  so.queue_capacity = 4;
  so.policy = svc::admission::reject;
  svc::server srv(so);

  constexpr int kJobs = 64;
  std::vector<svc::future<svc::permutation>> futs;
  futs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) futs.push_back(srv.submit_permutation(0, 20'000));
  std::uint64_t done = 0, rejected = 0, failed = 0;
  for (auto& f : futs) {
    switch (f.wait()) {
      case svc::job_status::done: ++done; break;
      case svc::job_status::rejected: ++rejected; break;
      case svc::job_status::failed: ++failed; break;
      default: FAIL() << "non-terminal status after wait()";
    }
  }
  srv.close();

  const svc::server_stats st = srv.stats();
  // Admission splits the burst exactly in two...
  EXPECT_EQ(st.sched.submitted + st.sched.rejected, static_cast<std::uint64_t>(kJobs));
  // ...every admitted job reached exactly one terminal status...
  EXPECT_EQ(st.sched.submitted, st.done + st.failed);
  // ...the handles saw the same ledger the counters recorded...
  EXPECT_EQ(st.done, done);
  EXPECT_EQ(st.sched.rejected, rejected);
  EXPECT_EQ(st.failed, failed);
  // ...and the latency histogram recorded each done job exactly once.
  EXPECT_EQ(srv.job_latency_histogram().count(), st.done);
  EXPECT_GT(done, 0u);
  EXPECT_GT(rejected, 0u) << "queue never filled -- raise kJobs";
}

TEST(PlanCache, RepeatedRequestShapesHitTheCache) {
  svc::server_options so;
  so.seed = kSeed;
  svc::server srv(so);

  // Prime the shape (and let the job finish) so the later lookups cannot
  // race each other into parallel misses.
  (void)srv.submit_permutation(0, 30000).get();
  const std::size_t hits0 = core::plan_cache_hits();
  std::vector<svc::future<svc::permutation>> futs;
  for (int i = 0; i < 7; ++i) futs.push_back(srv.submit_permutation(0, 30000));
  for (auto& f : futs) (void)f.get();
  EXPECT_GE(core::plan_cache_hits(), hits0 + 7);
}

}  // namespace
