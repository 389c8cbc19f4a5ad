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
#include "core/backend.hpp"
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

TEST(BackendAutomatic, MatchesSequentialAtTinyN) {
  const auto prof = test_profile();
  core::backend_options auto_opt;
  auto_opt.which = core::backend::automatic;
  auto_opt.profile = &prof;
  auto_opt.seed = 41;
  core::permutation_plan plan;
  auto_opt.plan_out = &plan;

  core::backend_options seq_opt;
  seq_opt.which = core::backend::sequential;
  seq_opt.seed = 41;

  const auto via_auto = core::random_permutation(4096, auto_opt);
  EXPECT_EQ(plan.chosen, core::backend::sequential);
  EXPECT_EQ(via_auto, core::random_permutation(4096, seq_opt));

  std::vector<std::uint32_t> via_auto_payload(4096);
  std::iota(via_auto_payload.begin(), via_auto_payload.end(), 7u);
  std::vector<std::uint32_t> via_seq_payload = via_auto_payload;
  (void)core::shuffle(std::span<std::uint32_t>(via_auto_payload), auto_opt);
  (void)core::shuffle(std::span<std::uint32_t>(via_seq_payload), seq_opt);
  EXPECT_EQ(via_auto_payload, via_seq_payload);
}

TEST(BackendAutomatic, MatchesSmpAtMidN) {
  const auto prof = test_profile();
  core::backend_options auto_opt;
  auto_opt.which = core::backend::automatic;
  auto_opt.profile = &prof;
  auto_opt.seed = 42;
  core::permutation_plan plan;
  auto_opt.plan_out = &plan;

  core::backend_options smp_opt;
  smp_opt.which = core::backend::smp;
  smp_opt.seed = 42;

  const auto via_auto = core::random_permutation(1'000'000, auto_opt);
  EXPECT_EQ(plan.chosen, core::backend::smp);
  EXPECT_EQ(via_auto, core::random_permutation(1'000'000, smp_opt));
}

TEST(BackendAutomatic, MatchesEmUnderBudget) {
  const auto prof = test_profile();
  core::backend_options auto_opt;
  auto_opt.which = core::backend::automatic;
  auto_opt.profile = &prof;
  auto_opt.seed = 43;
  auto_opt.memory_budget_bytes = 64 * 1024;  // << n * 8
  core::permutation_plan plan;
  auto_opt.plan_out = &plan;

  const auto via_auto = core::random_permutation(100'000, auto_opt);
  ASSERT_EQ(plan.chosen, core::backend::em);
  EXPECT_TRUE(stats::is_permutation_of_iota(via_auto));

  // Explicit em with the plan's geometry must reproduce it bit for bit.
  core::backend_options em_opt;
  em_opt.which = core::backend::em;
  em_opt.seed = 43;
  em_opt.em_engine.memory_items = plan.em_memory_items;
  em_opt.em_block_items = plan.em_block_items;
  EXPECT_EQ(via_auto, core::random_permutation(100'000, em_opt));
}

TEST(BackendAutomatic, PlanOutPopulatedForExplicitBackends) {
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.em_engine.memory_items = 512;
  opt.em_block_items = 32;
  core::permutation_plan plan;
  opt.plan_out = &plan;
  (void)core::random_permutation(10'000, opt);
  EXPECT_EQ(plan.chosen, core::backend::em);
  EXPECT_EQ(plan.em_memory_items, 512u);
  EXPECT_EQ(plan.em_block_items, 32u);
}

TEST(BackendAutomatic, ResolvesThroughThePlanCache) {
  const auto prof = test_profile();
  core::backend_options opt;
  opt.which = core::backend::automatic;
  opt.profile = &prof;
  opt.seed = 44;
  std::vector<std::uint64_t> v(4099);
  std::iota(v.begin(), v.end(), 0);

  const std::size_t lookups0 = core::plan_cache_lookups();
  const std::size_t hits0 = core::plan_cache_hits();
  (void)core::shuffle(std::span<std::uint64_t>(v), opt);
  (void)core::shuffle(std::span<std::uint64_t>(v), opt);
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
  // engine.profile wins over calibrate and the shared profile, so a
  // context plans exactly like core::shuffle under the same profile.
  const auto prof = test_profile();
  cgp::context_options copt;
  copt.calibrate = true;
  copt.engine.profile = &prof;
  const cgp::context ctx(copt);
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
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.seed = 777;
  opt.em_block_items = 32;
  opt.em_engine.memory_items = 512;  // n >> M

  std::vector<std::uint64_t> payload(20'000);
  for (std::uint64_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::vector<std::uint64_t> shuffled = payload;
  (void)core::shuffle(std::span<std::uint64_t>(shuffled), opt);

  const auto pi = core::random_permutation(payload.size(), opt);
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
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.seed = 778;
  opt.em_block_items = 32;
  opt.em_engine.memory_items = 512;

  std::vector<wide> payload(10'000);
  for (std::uint64_t i = 0; i < payload.size(); ++i) payload[i] = {i, i * 7, ~i};
  std::vector<wide> shuffled = payload;
  (void)core::shuffle(std::span<wide>(shuffled), opt);

  const auto pi = core::random_permutation(payload.size(), opt);
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
  opt.seed = 779;
  opt.em_block_items = b;
  opt.em_engine.memory_items = 512;
  em::async_report report;
  opt.em_report_out = &report;
  (void)core::random_permutation(n, opt);
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
  core::backend_options opt;
  opt.which = core::backend::smp;
  opt.parallelism = 2;
  (void)core::random_permutation(100, opt);
  const std::size_t count = core::registered_engine_count();
  for (int i = 0; i < 5; ++i) (void)core::random_permutation(100, opt);
  EXPECT_EQ(core::registered_engine_count(), count);
}

}  // namespace
