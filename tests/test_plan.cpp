// Tests for the plan/executor core: planner regime boundaries
// (tiny -> sequential, RAM-resident mid -> smp, over-budget -> em),
// bit-for-bit agreement of backend::automatic with the explicitly
// selected backend, automatic plans resolving through the plan cache,
// the em fan-out rule, a context planning under an injected profile, the
// streaming apply layer's bulk I/O and O(M) residency contract, and the
// process-wide engine registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/apply.hpp"
#include "core/context.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "stats/lehmer.hpp"

namespace {

using namespace cgp;

// A fixed synthetic profile: 8 threads, cache-resident Fisher-Yates at
// 2 ns/item degrading to 10 ns/item past 32 MiB, cheap streaming splits.
// Pinning the profile makes the regime assertions machine-independent.
core::machine_profile test_profile() {
  core::machine_profile prof;
  prof.threads = 8;
  prof.cache_items = 65536;
  prof.hit_bytes = std::uint64_t{1} << 18;
  prof.miss_bytes = std::uint64_t{1} << 25;
  prof.seq_ns_hit = 2.0;
  prof.seq_ns_miss = 10.0;
  prof.split_ns = 2.0;
  prof.level_overhead_ns = 3.0e4;
  prof.dispatch_overhead_ns = 5.0e4;
  prof.em_ns_per_item_pass = 25.0;
  return prof;
}

// --- planner regimes ---------------------------------------------------------

TEST(Planner, TinyInputsChooseSequential) {
  for (const std::uint64_t n : {2ull, 100ull, 1000ull, 65536ull}) {
    core::workload w;
    w.n = n;
    const auto plan = core::plan_permutation(w, test_profile());
    EXPECT_EQ(plan.chosen, core::backend::sequential) << "n=" << n;
    EXPECT_EQ(plan.threads, 1u);
  }
}

TEST(Planner, RamResidentMidSizesChooseSmp) {
  for (const std::uint64_t n : {1'000'000ull, 10'000'000ull, 100'000'000ull}) {
    core::workload w;
    w.n = n;
    const auto plan = core::plan_permutation(w, test_profile());
    EXPECT_EQ(plan.chosen, core::backend::smp) << "n=" << n;
    EXPECT_EQ(plan.threads, 8u);
    EXPECT_GE(plan.split_levels, 1u);
  }
}

TEST(Planner, BudgetBelowInputForcesEm) {
  core::workload w;
  w.n = 1'000'000;
  w.element_bytes = 8;
  w.memory_budget_bytes = w.n * 8 / 4;  // a quarter of the input
  const auto plan = core::plan_permutation(w, test_profile());
  EXPECT_EQ(plan.chosen, core::backend::em);
  // The RAM candidates must be marked infeasible, not merely slower.
  for (const auto& c : plan.candidates) {
    if (c.which != core::backend::em) {
      EXPECT_FALSE(c.feasible);
    }
  }
  // Geometry respects the budget and the engine's M >= 4B contract.
  EXPECT_LE(plan.em_memory_items * 8, w.memory_budget_bytes);
  EXPECT_GE(plan.em_memory_items, 4ull * plan.em_block_items);
  EXPECT_GE(plan.em_fan_out, 2u);
  EXPECT_EQ(plan.em_fan_out & (plan.em_fan_out - 1), 0u) << "fan-out must be a power of two";
  EXPECT_GE(plan.em_levels, 1u);
}

TEST(Planner, RepetitionsAmortizeDispatchOverhead) {
  // Just past the leaf cutoff the one-shot smp estimate carries the full
  // dispatch overhead; a repeated workload amortizes it away, so the
  // repeated prediction must be strictly cheaper (and never flips to a
  // slower backend).
  core::workload once;
  once.n = 200'000;
  core::workload often = once;
  often.repetitions = 10'000;
  const auto prof = test_profile();
  const auto p1 = core::plan_permutation(once, prof);
  const auto pn = core::plan_permutation(often, prof);
  ASSERT_EQ(p1.chosen, core::backend::smp);
  ASSERT_EQ(pn.chosen, core::backend::smp);
  EXPECT_LT(pn.predicted_seconds, p1.predicted_seconds);
}

TEST(Planner, ExplainNamesTheChoiceAndEveryCandidate) {
  core::workload w;
  w.n = 1'000'000;
  const auto plan = core::plan_permutation(w, test_profile());
  const std::string text = plan.explain();
  EXPECT_NE(text.find("backend=smp"), std::string::npos) << text;
  EXPECT_NE(text.find("seq:"), std::string::npos);
  EXPECT_NE(text.find("smp:"), std::string::npos);
  EXPECT_NE(text.find("em:"), std::string::npos);
  EXPECT_NE(text.find("<- chosen"), std::string::npos);
  EXPECT_FALSE(plan.phases.empty());
}

// --- automatic == explicit, bit for bit --------------------------------------

// A context that plans `automatic` under the fixed test profile.
cgp::context_options automatic_under(const core::machine_profile& prof) {
  cgp::context_options copt;
  copt.engine.profile = &prof;
  return copt;
}

// A context on one explicit backend.
cgp::context_options explicit_backend(core::backend which) {
  cgp::context_options copt;
  copt.which = which;
  return copt;
}

TEST(BackendAutomatic, MatchesSequentialAtTinyN) {
  const auto prof = test_profile();
  const cgp::context via_auto(automatic_under(prof));
  const cgp::context via_seq(explicit_backend(core::backend::sequential));

  const auto pi = via_auto.random_permutation(4096, 41);
  EXPECT_EQ(via_auto.plan_for(4096, 8).chosen, core::backend::sequential);
  EXPECT_EQ(pi, via_seq.random_permutation(4096, 41));

  std::vector<std::uint32_t> via_auto_payload(4096);
  std::iota(via_auto_payload.begin(), via_auto_payload.end(), 7u);
  std::vector<std::uint32_t> via_seq_payload = via_auto_payload;
  (void)via_auto.shuffle(std::span<std::uint32_t>(via_auto_payload), 41);
  (void)via_seq.shuffle(std::span<std::uint32_t>(via_seq_payload), 41);
  EXPECT_EQ(via_auto_payload, via_seq_payload);
}

TEST(BackendAutomatic, MatchesSmpAtMidN) {
  const auto prof = test_profile();
  const cgp::context via_auto(automatic_under(prof));
  const cgp::context via_smp(explicit_backend(core::backend::smp));

  const auto pi = via_auto.random_permutation(1'000'000, 42);
  EXPECT_EQ(via_auto.plan_for(1'000'000, 8).chosen, core::backend::smp);
  EXPECT_EQ(pi, via_smp.random_permutation(1'000'000, 42));
}

TEST(BackendAutomatic, MatchesEmUnderBudget) {
  const auto prof = test_profile();
  cgp::context_options auto_opt = automatic_under(prof);
  auto_opt.memory_budget_bytes = 64 * 1024;  // << n * 8
  const cgp::context via_auto(auto_opt);

  const auto pi = via_auto.random_permutation(100'000, 43);
  const core::permutation_plan plan = via_auto.plan_for(100'000, 8);
  ASSERT_EQ(plan.chosen, core::backend::em);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));

  // Explicit em with the plan's geometry must reproduce it bit for bit.
  cgp::context_options em_opt = explicit_backend(core::backend::em);
  em_opt.engine.em_engine.memory_items = plan.em_memory_items;
  em_opt.engine.em_block_items = plan.em_block_items;
  EXPECT_EQ(pi, cgp::context(em_opt).random_permutation(100'000, 43));
}

TEST(BackendAutomatic, ExplicitBackendPlansMirrorTheirOptions) {
  cgp::context_options copt = explicit_backend(core::backend::em);
  copt.engine.em_engine.memory_items = 512;
  copt.engine.em_block_items = 32;
  const cgp::context ctx(copt);
  std::vector<std::uint64_t> v(10'000);
  const core::permutation_plan plan = ctx.shuffle(std::span<std::uint64_t>(v), 45);
  EXPECT_EQ(plan.chosen, core::backend::em);
  EXPECT_EQ(plan.em_memory_items, 512u);
  EXPECT_EQ(plan.em_block_items, 32u);
}

TEST(BackendAutomatic, ResolvesThroughThePlanCache) {
  const auto prof = test_profile();
  const cgp::context ctx(automatic_under(prof));
  std::vector<std::uint64_t> v(4099);
  std::iota(v.begin(), v.end(), 0);

  const std::size_t lookups0 = core::plan_cache_lookups();
  const std::size_t hits0 = core::plan_cache_hits();
  (void)ctx.shuffle(std::span<std::uint64_t>(v), 44);
  (void)ctx.shuffle(std::span<std::uint64_t>(v), 44);
  EXPECT_EQ(core::plan_cache_lookups(), lookups0 + 2);
  EXPECT_GE(core::plan_cache_hits(), hits0 + 1);
}

TEST(BackendAutomatic, BackendNameCoversAuto) {
  EXPECT_STREQ(core::backend_name(core::backend::automatic), "auto");
}

TEST(Planner, AdaptiveFanOutPinsTheEmTree) {
  // The one fan-out rule the em engine builds its tree with and the
  // planner predicts it with: M/B - 2 (at least 2), floored to a power of
  // two in [2, 256].
  struct row {
    std::uint64_t m;
    std::uint32_t b;
    std::uint32_t fan;
  };
  const row rows[] = {
      {4, 1, 2},                            // M/B - 2 = 2: the smallest tree
      {5, 1, 2},                            // 3 floors to 2
      {6, 1, 4},                            // 4
      {10, 1, 8},                           // 8
      {1024, 64, 8},                        // 14 floors to 8
      {std::uint64_t{1} << 16, 4096, 8},    // the default M at B = 4096
      {257 * 16, 16, 128},                  // 255 floors to 128
      {258 * 16, 16, 256},                  // 256
      {std::uint64_t{1} << 21, 4096, 256},  // 510 caps at 256
      {std::uint64_t{1} << 30, 16, 256},    // caps at 256
  };
  for (const row& r : rows) {
    EXPECT_EQ(em::adaptive_fan_out(r.m, r.b), r.fan) << "M=" << r.m << " B=" << r.b;
  }
}

// --- the context facade --------------------------------------------------------

TEST(Context, InjectedProfileTakesPrecedence) {
  // engine.profile replaces the shared detected profile, so a context
  // plans exactly under the injected one.
  const auto prof = test_profile();
  const cgp::context ctx(automatic_under(prof));
  EXPECT_EQ(ctx.profile().fingerprint(), prof.fingerprint());
  EXPECT_EQ(ctx.plan_for(1'000'000, 8).chosen, core::backend::smp);
}

// --- streaming apply layer ---------------------------------------------------

TEST(ApplyStreamed, FillIotaUsesBulkAccountedWrites) {
  em::block_device dev(10'000, 64);
  core::fill_iota_streamed(dev, 10'000, 1024);
  for (std::uint64_t i = 0; i < 10'000; ++i) ASSERT_EQ(dev.peek(i), i);
  const auto st = dev.stats();
  EXPECT_GE(st.block_writes, 10'000 / 64);  // every word moved is accounted
  EXPECT_LE(st.transfers(), 2 * (10'000 / 64 + 2 * (10'000 / 1024 + 1)));
}

TEST(ApplyStreamed, PackedRoundTripPreservesNarrowRecords) {
  std::vector<std::uint16_t> src(5000);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint16_t>(i * 13);
  em::block_device dev(src.size(), 32);
  core::write_records_streamed(dev, reinterpret_cast<const unsigned char*>(src.data()),
                               src.size(), 2, 256);
  std::vector<std::uint16_t> dst(src.size());
  core::read_records_streamed(dev, reinterpret_cast<unsigned char*>(dst.data()), dst.size(), 2,
                              256);
  EXPECT_EQ(src, dst);
  EXPECT_GT(dev.stats().block_reads, 0u);
  EXPECT_GT(dev.stats().block_writes, 0u);
}

TEST(EmApply, PayloadShuffleEqualsGatherThroughIndexPermutation) {
  // The packed path's correctness argument: shuffling the payload on the
  // device is the same map as gathering through the index permutation the
  // same seed produces.
  cgp::context_options copt = explicit_backend(core::backend::em);
  copt.engine.em_block_items = 32;
  copt.engine.em_engine.memory_items = 512;  // n >> M
  const cgp::context ctx(copt);

  std::vector<std::uint64_t> payload(20'000);
  for (std::uint64_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::vector<std::uint64_t> shuffled = payload;
  (void)ctx.shuffle(std::span<std::uint64_t>(shuffled), 777);

  const auto pi = ctx.random_permutation(payload.size(), 777);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    ASSERT_EQ(shuffled[i], payload[static_cast<std::size_t>(pi[i])]) << "i=" << i;
  }
}

TEST(EmApply, WideRecordsGatherStreamedOffDevice) {
  struct wide {
    std::uint64_t key;
    std::uint64_t tag;
    std::uint64_t extra;
  };
  static_assert(sizeof(wide) == 24);
  cgp::context_options copt = explicit_backend(core::backend::em);
  copt.engine.em_block_items = 32;
  copt.engine.em_engine.memory_items = 512;
  const cgp::context ctx(copt);

  std::vector<wide> payload(10'000);
  for (std::uint64_t i = 0; i < payload.size(); ++i) payload[i] = {i, i * 7, ~i};
  std::vector<wide> shuffled = payload;
  (void)ctx.shuffle(std::span<wide>(shuffled), 778);

  const auto pi = ctx.random_permutation(payload.size(), 778);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const wide& expect = payload[static_cast<std::size_t>(pi[i])];
    ASSERT_EQ(shuffled[i].key, expect.key);
    ASSERT_EQ(shuffled[i].tag, expect.tag);
    ASSERT_EQ(shuffled[i].extra, expect.extra);
  }
}

TEST(EmApply, ReportCountsSetupAndReadbackTransfers) {
  // The old poke/peek path moved the identity on and the result off the
  // device with ZERO accounted transfers; the streaming layer must count
  // at least one write per block of fill and one read per block of
  // readback on top of the engine's own traffic.
  const std::uint64_t n = 20'000;
  const std::uint32_t b = 32;
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.em_block_items = b;
  opt.em_engine.memory_items = 512;
  const auto cfg = core::resolve_em_config(core::resolve_plan(n, 8, opt), opt);
  em::async_report report;
  std::vector<std::uint64_t> pi(n);
  core::em_executor(cfg.aopt, cfg.block_items, *cfg.pool, &report)
      .fill_random_permutation(pi, 779);
  EXPECT_GE(report.block_transfers, 2ull * (n / b)) << "fill + readback must be visible";
  EXPECT_GE(report.levels, 1u);
}

// --- engine registry ---------------------------------------------------------

TEST(Registry, SameConfigurationSharesOneEngine) {
  smp::engine_options opt;
  opt.threads = 2;
  smp::engine& a = core::shared_engine(opt);
  smp::engine& b = core::shared_engine(opt);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.threads(), 2u);
}

TEST(Registry, DistinctConfigurationsGetDistinctEngines) {
  smp::engine_options two;
  two.threads = 2;
  smp::engine_options three;
  three.threads = 3;
  EXPECT_NE(&core::shared_engine(two), &core::shared_engine(three));
}

TEST(Registry, SharedPoolIsTheSharedEnginesPool) {
  smp::engine_options opt;
  opt.threads = 2;
  EXPECT_EQ(&core::shared_pool(2), &core::shared_engine(opt).pool());
}

TEST(Registry, RepeatedDispatchDoesNotGrowTheRegistry) {
  cgp::context_options copt = explicit_backend(core::backend::smp);
  copt.parallelism = 2;
  cgp::context ctx(copt);
  (void)ctx.random_permutation(100);
  const std::size_t count = core::registered_engine_count();
  for (int i = 0; i < 5; ++i) (void)ctx.random_permutation(100);
  EXPECT_EQ(core::registered_engine_count(), count);
}

}  // namespace
