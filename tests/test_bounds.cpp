// Count ratchets at the entry point: what one cgp::context::shuffle on
// backend::cgm puts on a socket transport's wire, the page faults of a
// warm one on backend::cgm over sockets and on backend::smp and of a
// one-level em permutation build, the bytes an em stream's device holds,
// the random words per hypergeometric draw of the engines' split plan, and
// the block transfers of backend::em's permutation fill and 8-byte shuffle.
// Every wire count is a pure function of (seed, n, p, engine options), so
// each is pinned at the value the engine reaches today: a change that
// moves more bytes per item, cuts more frames, posts more messages or adds
// a superstep fails here.  Lower the
// pins when the engine gets leaner (sending runs instead of (pos, value)
// pairs halves the bytes).  No clock is read.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "comm/socket_transport.hpp"
#include "core/context.hpp"
#include "core/executor.hpp"
#include "core/sample_matrix.hpp"
#include "em/async_shuffle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/counting.hpp"
#include "rng/philox.hpp"
#include "smp/engine.hpp"
#include "smp/parallel_split.hpp"
#include "smp/thread_pool.hpp"
#include "support/perm_check.hpp"
#include "svc/server.hpp"

namespace {

using namespace cgp;

struct wire_pin {
  std::uint32_t p;
  std::uint64_t wire_bytes;  ///< framed bytes of one shuffle
  std::uint64_t frames;
  std::uint64_t messages;
};

TEST(EntryPointBounds, CgmShuffleOverSocketStaysWithinItsWireCounts) {
  obs::set_enabled(true);   // comm.exchanges counts supersteps
  obs::set_tracing(false);  // a traced frame carries 24 more bytes
  static obs::counter& exchanges = obs::get_counter("comm.exchanges");
  constexpr std::uint64_t n = 300'007;
  // 7.9893 / 11.0002 / 12.0055 / 14.0035 B/item: (pos, value) pairs
  // cost twice Theorem 1's (p-1)/p * 8 B/item.
  constexpr wire_pin kPins[] = {
      {2, 2'396'848, 8, 6},
      {3, 3'300'128, 26, 14},
      {4, 3'601'728, 48, 24},
      {8, 4'201'152, 224, 80},
  };
  for (const wire_pin& pin : kPins) {
    comm::socket_transport sock(pin.p);
    context_options copt;
    copt.which = core::backend::cgm;
    copt.parallelism = pin.p;
    copt.seed = 99;
    copt.engine.transport = &sock;
    cgp::context ctx(copt);
    std::vector<std::uint64_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    (void)ctx.shuffle(std::span<std::uint64_t>(v));  // warm: the pins count the second call

    const comm::wire_counters before = sock.wire();
    const std::uint64_t x0 = exchanges.value();
    (void)ctx.shuffle(std::span<std::uint64_t>(v));
    comm::wire_counters w = sock.wire();
    w -= before;
    const std::uint64_t supersteps = (exchanges.value() - x0) / pin.p;

    EXPECT_TRUE(stats::is_permutation_of_iota(v)) << "p=" << pin.p;
    EXPECT_LE(w.wire_bytes, pin.wire_bytes)
        << "p=" << pin.p << ": " << static_cast<double>(w.wire_bytes) / n << " B/item";
    EXPECT_LE(w.frames, pin.frames) << "p=" << pin.p;
    EXPECT_LE(w.messages, pin.messages) << "p=" << pin.p;
    // One distributed split level, then one gather and one scatter.
    EXPECT_EQ(supersteps, 3u) << "p=" << pin.p;
  }
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// A warm smp shuffle reuses the scratch its engine kept from the first
// call.  5,000,000 u64 need 40 MB of scratch, above glibc's 32 MiB mmap
// ceiling: allocated per call, every one of its 9,766 pages faults in
// again.  A fault count is a count, not a clock.
TEST(EntryPointBounds, WarmSmpShuffleFaultsInNoScratch) {
  constexpr std::size_t n = 5'000'000;
  constexpr long kScratchPages = (n * sizeof(std::uint64_t) + 4095) / 4096;
  constexpr long kMaxFaults = 500;
  context_options copt;
  copt.which = core::backend::smp;
  copt.seed = 5;
  cgp::context ctx(copt);
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  (void)ctx.shuffle(std::span<std::uint64_t>(v));  // warm: the first call faults the scratch in

  const long before = minor_faults();
  (void)ctx.shuffle(std::span<std::uint64_t>(v));
  const long faults = minor_faults() - before;

  EXPECT_TRUE(stats::is_permutation_of_iota(v));
  EXPECT_LE(faults, kMaxFaults) << "a fresh scratch per call faults " << kScratchPages
                                << " pages";
}

// A warm cgm shuffle over sockets stages and receives its (pos, value)
// records in buffers kept from the first call, in each socket endpoint's
// pool (comm::endpoint::buffers).  At n = 1,000,003 and p = 4 each rank
// stages and receives about 1 MB per peer.  With a pool that keeps
// nothing, glibc maps those buffers anew or trims them between calls, and
// the second call faulted 1,744-3,605 pages; with the buffers kept it
// faults 7-9 (ASan+UBSan 87-90, TSan 73-89).  A fault count is a count,
// not a clock.
TEST(EntryPointBounds, WarmCgmShuffleOverSocketMapsNoMessageBuffers) {
  constexpr std::uint64_t n = 1'000'003;
  constexpr long kMaxFaults = 500;
  comm::socket_transport sock(4);
  context_options copt;
  copt.which = core::backend::cgm;
  copt.parallelism = 4;
  copt.seed = 17;
  copt.engine.transport = &sock;
  cgp::context ctx(copt);
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  (void)ctx.shuffle(std::span<std::uint64_t>(v));  // warm: the first call allocates the buffers

  const long before = minor_faults();
  (void)ctx.shuffle(std::span<std::uint64_t>(v));
  const long faults = minor_faults() - before;

  EXPECT_TRUE(stats::is_permutation_of_iota(v));
  EXPECT_LE(faults, kMaxFaults);
}

// A one-level em permutation writes its level-0 buckets in place: no level
// reads one device and writes another, so no scratch device is made and
// the build touches one device, which stores its values (all below 2^23)
// in 4 bytes each.  2^23 items with M = 2 Mi and B = 4,096 build one level
// of K = 256 buckets of ~2^15 items.  The bound is a multiple of the
// faults one fresh zero-filled 2^23-word buffer (64 MiB, above glibc's
// 32 MiB mmap ceiling, so every call maps fresh pages) takes in this
// process, so sanitizer shadow pages count on both sides: the device is
// half such a buffer, and the slack above 0.5 covers the 8.4 MB scatter
// stage and the leaf buffers.  An 8-byte device faulted in 1.00-1.13
// buffers, and one with a scratch device 2.1 (plain build).  A fault count
// is a count, not a clock.
TEST(EntryPointBounds, OneLevelEmPermutationFaultsInOneDevice) {
  // With transparent hugepages "always", both 64 MiB buffers fault in
  // 2 MiB pages (~32 faults each), and a few small-page faults elsewhere
  // would decide the ratio: there is nothing to compare.
  std::string thp;
  std::getline(std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled"), thp);
  if (thp.find("[always]") != std::string::npos) GTEST_SKIP() << "THP is " << thp;
  constexpr std::uint64_t n = std::uint64_t{1} << 23;
  smp::thread_pool pool(4);
  core::em_exec_config cfg;
  cfg.aopt.memory_items = std::uint64_t{1} << 21;
  cfg.block_items = 4096;
  cfg.pool = &pool;
  em::async_report rep;
  (void)core::em_shuffled_identity_device(n, 0x1E7, cfg);  // warm: stacks, arenas, thresholds

  const long f0 = minor_faults();
  {
    std::vector<std::uint64_t> one(n);
    asm volatile("" : : "g"(one.data()) : "memory");  // the zero fill must happen
  }
  const long one_buffer = minor_faults() - f0;
  const long f1 = minor_faults();
  {
    const auto dev = core::em_shuffled_identity_device(n, 0x1E7, cfg, &rep);
  }
  const long faults = minor_faults() - f1;

  EXPECT_EQ(rep.levels, 1u);
  EXPECT_LE(static_cast<double>(faults), 0.75 * static_cast<double>(one_buffer))
      << faults << " faults; one fresh " << n << "-word buffer faults " << one_buffer;
}

// What a wire stream's job holds: a budgeted server serves a 3,000,000-item
// stream from an em device that stays alive until the stream is dropped.
// Its values are below 2^32, so it holds its block-rounded capacity at 4
// bytes per item (12,009,472 bytes at B = 4,096; 8 bytes per item held
// twice that), read from the em.device_bytes gauge while the stream lives,
// and it gives them back when the stream goes.  Bytes, not a clock.
TEST(EntryPointBounds, EmStreamDeviceHoldsFourBytesPerItem) {
  obs::set_enabled(true);
  const obs::gauge& held = obs::get_gauge("em.device_bytes");
  constexpr std::uint64_t n = 3'000'000;
  svc::server_options sopt;
  sopt.memory_budget_bytes = std::uint64_t{16} << 20;  // 24 MB of u64 does not fit
  svc::server srv(sopt);
  const std::int64_t before = held.value();
  {
    svc::stream st = srv.submit_stream(1, n);
    ASSERT_EQ(st.wait(), svc::job_status::done);
    ASSERT_EQ(st.plan().chosen, core::backend::em);
    const std::uint64_t b = st.plan().em_block_items;
    EXPECT_EQ(held.value() - before, static_cast<std::int64_t>((n + b - 1) / b * b * 4))
        << "B = " << b;
    EXPECT_GE(held.peak(), held.value());
  }
  EXPECT_EQ(held.value(), before);
}

// Hypergeometric words per draw at the engines' default law: the split
// plan of n = 6,000,000 items at K = 16 samples its 16 x 16 matrix with
// matrix_hyp_call_count(16, 16) = 225 univariate draws.  Counted through
// rng::counting_engine over eight seeds, the words per draw must stay under
// the paper's 1.5 and at today's ratio plus a small epsilon (lower the pin
// when a sampler gets leaner).  Counts only, no clock.
TEST(EntryPointBounds, HypergeometricWordsPerDrawStayUnderThePapersBound) {
  constexpr std::uint64_t n = 6'000'000;
  constexpr double kPin = 2446.0 / 1800.0;  // 1.3589 words per draw today
  const smp::split_options sopt;  // the engines' default law
  std::uint64_t words = 0;
  std::uint64_t draws = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const smp::split_plan plan = smp::make_split_plan(n, seed, smp::kShuffleRoot, sopt);
    rng::counting_engine<rng::philox4x64> counted(
        smp::detail::node_engine(seed, smp::kShuffleRoot, smp::detail::kMatrixSalt));
    const core::comm_matrix a =
        core::sample_matrix_rowwise(counted, plan.margins, plan.margins, sopt.sampling);
    for (std::uint32_t i = 0; i < plan.k; ++i) {
      for (std::uint32_t j = 0; j < plan.k; ++j) {
        ASSERT_EQ(a(i, j), plan.a(i, j)) << "the counted matrix is the plan's, seed " << seed;
      }
    }
    words += counted.count();
    draws += core::matrix_hyp_call_count(plan.k, plan.k);
  }
  const double per_draw = static_cast<double>(words) / static_cast<double>(draws);
  EXPECT_EQ(draws, 8u * 225u);
  EXPECT_LE(per_draw, kPin + 0.005) << words << " words for " << draws << " draws";
  EXPECT_LT(per_draw, 1.5);
}

// The em backend's block transfers at its two entry points, at a fixed
// geometry and a fixed pool size (chunking, and with it the count of
// boundary read-modify-writes, depends on the pool).  For a seed, n, M, B
// and pool every count is deterministic.  A permutation fill builds its
// device without writing the identity or reading it back, so it pays 2,345
// transfers fewer than the 8-byte shuffle, whose payload must go on and
// come back: 1,173 for the identity fill and 1,172 for level 0's reads.
TEST(EntryPointBounds, EmFillAndShuffleStayWithinTheirTransferCounts) {
  constexpr std::uint64_t n = 300'007;
  core::backend_options opt;
  opt.which = core::backend::em;
  opt.parallelism = 2;
  opt.em_engine.memory_items = 16'384;
  opt.em_block_items = 256;
  // The executor make_executor builds for these options, plus a report.
  const auto cfg = core::resolve_em_config(core::resolve_plan(n, 8, opt), opt);
  em::async_report rep;
  core::em_executor em(cfg.aopt, cfg.block_items, *cfg.pool, &rep);
  std::vector<std::uint64_t> v(n);

  em.fill_random_permutation(v, 0xB0D);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
  EXPECT_LE(rep.block_transfers, 5'195u);  // 7,540 with the identity filled and read back
  EXPECT_EQ(rep.levels, 1u);

  std::iota(v.begin(), v.end(), 0);
  em.shuffle_raw(v.data(), n, 8, 0xB0D);
  EXPECT_TRUE(stats::is_permutation_of_iota(v));
  EXPECT_LE(rep.block_transfers, 7'540u);  // unchanged: the payload is no identity
  EXPECT_EQ(rep.levels, 1u);
}

}  // namespace
