// Tests of the benchmark's own code: the percentile and sample-count rule,
// self time from nested spans, the quiet-slice figures, the output
// validators, and the communication accounting (per shuffle, zero at p = 1,
// and exactly the split plan's cross-rank volume at a bucket-aligned p = 4).
//
//   perfbench_selftest      exit 0 iff every check passes
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "accounting.hpp"
#include "comm/socket_transport.hpp"
#include "core/context.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

void test_percentiles() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  expect(quantile(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(quantile(v, 0.99) == 99.0, "nearest-rank p99 of 1..100 is 99");
  expect(quantile(v, 1.0) == 100.0, "p100 is the maximum");
  expect(quantile({}, 0.5) == 0.0, "empty sample reads 0");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  std::vector<double> w(999, 1.0);
  expect(!tail_quantile(w, 0.99).has_value(), "p99 withheld below 10 samples beyond");
  w.push_back(2.0);
  expect(tail_quantile(w, 0.99).value_or(-1.0) == 1.0, "p99 reported at 1000 samples");
  expect(tail_quantile({3.0}, 0.5, 0).value_or(-1.0) == 3.0, "a median needs one sample");
  expect(!tail_quantile({}, 0.5, 0).has_value(), "no quantile of an empty sample");
}

void test_self_time() {
  // parent [0,10] with children [1,3], [2,5] (overlapping) and [8,12]
  // (clipped to the parent); a grandchild [2,2.5] under [1,3].
  std::vector<span_record> s = {
      {"parent", 1, 0, 7, 0.0, 10.0}, {"a", 2, 1, 7, 1.0, 3.0}, {"b", 3, 1, 7, 2.0, 5.0},
      {"c", 4, 1, 7, 8.0, 12.0},      {"g", 5, 2, 7, 2.0, 2.5},
  };
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 4.0), "parent self time excludes the union of its children");
  expect(near(self[1], 1.5), "child self time excludes its own child");
  expect(near(self[2], 3.0) && near(self[3], 4.0) && near(self[4], 0.5), "leaf spans keep all");
  const auto by = self_time_by_name(s);
  expect(near(by.at("parent"), 4.0), "self time by name");

  span_log log;
  std::uint64_t outer_id = 0;
  {
    const scoped_span outer(&log, "outer", 1);
    outer_id = outer.id();
    const scoped_span inner(&log, "inner", 1);
    std::thread([&] { const scoped_span task(&log, "task", 1, outer_id); }).join();
  }
  const scoped_span inert(nullptr, "inert");
  const auto spans = log.spans();
  bool nested = spans.size() == 3;
  for (const auto& r : spans) {
    if (r.name == "inner" || r.name == "task") nested = nested && r.parent == outer_id;
    if (r.name == "outer") nested = nested && r.parent == 0;
  }
  expect(nested, "scoped spans nest on a thread and take explicit parents across threads");
  expect(inert.id() == 0, "a span without a log records nothing");
}

void test_quiet_share() {
  // Four slices; the two with the least steal (1 and 2) are taken.
  const std::vector<host_guard::slice> sl = {
      {0.0, 0.5, 1.0, 0.30}, {0.5, 1.0, 2.0, 0.00}, {1.0, 1.5, 3.0, 0.10}, {1.5, 2.0, 4.0, 0.20}};
  const std::vector<request_record> rs = {
      {0.25, 0.75, 100, 0, 0.0},  // half in slice 0, half in slice 1; midpoint in 1
      {1.1, 1.2, 10, 1, 0.25},    // inside slice 2, with 0.25 s of validation
      {1.6, 1.9, 1000, 0, 0.5},   // inside slice 3, not taken
  };
  const quiet_figures q = quiet_share(sl, rs, 2);
  expect(q.slices == 2 && near(q.wall_s, 1.0) && near(q.steal_frac, 0.05),
         "the quieter half of the slices is taken");
  expect(near(q.items, 60.0) && near(q.requests, 1.5) && near(q.busy_s, 0.35),
         "items, requests and request time count pro rata inside the taken slices");
  expect(near(q.cpu_s, 4.75), "CPU of the taken slices, less the validation inside them");
  expect(q.latency_s[0].size() == 1 && near(q.latency_s[0][0], 0.5) && q.latency_s[1].size() == 1,
         "a latency counts where its request's midpoint falls");
  expect(quiet_share(sl, rs, 2, 1.0).slices == 4 && quiet_share({}, rs, 2).slices == 0,
         "share 1 takes every slice; no slices, no figures");

  const std::vector<request_record> untraced = {{0.0, 1.0, 100, 0, 0.0}, {1.0, 2.0, 100, 0, 0.0}};
  const std::vector<request_record> traced = {{2.0, 3.1, 100, 0, 0.0}, {3.1, 3.2, 7, 1, 0.0}};
  expect(near(trace_overhead(untraced, traced, 2), 0.1, 1e-9),
         "trace overhead prices the untraced requests at the traced per-type rates");
  expect(latencies(traced, 1).size() == 1 && near(latencies(traced, 1)[0], 0.1, 1e-9),
         "latencies of one request type");
}

void test_validators() {
  std::vector<std::uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 0);
  const hashes h0 = hash_values(v);
  std::swap(v[3], v[700]);
  const hashes h1 = hash_values(v);
  expect(h0.multiset == h1.multiset && h0.order != h1.order, "hashes: same multiset, new order");
  in_place_check check(h0);
  expect(!in_place_check(h0).next(h0), "an in-place shuffle that keeps the order is caught");
  expect(check.next(h1) && !check.next(h1), "each in-place shuffle must change the order");
  expect(!check.next(std::nullopt), "a torn record fails the in-place check");
  expect(is_permutation_of_iota(v), "a shuffled iota is a permutation");
  v[5] = v[6];
  expect(hash_values(v).multiset != h0.multiset && !is_permutation_of_iota(v),
         "a duplicated value is caught");
  std::vector<rec16> r = {make_rec16(1), make_rec16(0)};
  expect(hash_records(r).has_value(), "intact records pass");
  r[0].tag ^= 1;
  expect(!hash_records(r).has_value(), "a torn record is caught");
}

/// Items the first distributed split level of `n` items moves between
/// ranks, predicted from the replicated split plan: item slots of chunk c
/// that land in bucket j cross ranks iff c's and j's positions have
/// different owners.  Exact when chunks and buckets each sit inside one
/// rank block (n a multiple of p * fan_out).
std::uint64_t predicted_cross_items(std::uint64_t n, std::uint32_t p,
                                                         std::uint64_t seed,
                                                         const cgp::smp::split_options& sopt) {
  const cgp::smp::split_plan plan = cgp::smp::make_split_plan(n, seed, cgp::smp::kShuffleRoot, sopt);
  std::uint64_t cross = 0;
  for (std::uint32_t c = 0; c < plan.k; ++c) {
    const std::uint32_t src = cgp::balanced_block_owner(n, p, cgp::balanced_block_offset(n, plan.k, c));
    for (std::uint32_t j = 0; j < plan.k; ++j) {
      const std::uint32_t dst = cgp::balanced_block_owner(n, p, plan.bucket_off[j]);
      if (src != dst) cross += plan.a(c, j);
    }
  }
  return cross;
}

cgp::cgm::distributed_options engine_law() { return {}; }

std::vector<std::uint64_t> iota_of(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

void test_accounting() {
  const std::uint64_t n = 300'007;
  cgp::comm::socket_transport sock(4);

  // Per shuffle, never cumulative: three shuffles each report ~12 B/item,
  // and their per-shuffle differences add up to the transport's total.
  const cgp::comm::wire_counters before = sock.wire();
  std::uint64_t sum = 0;
  bool per_shuffle = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<std::uint64_t> v = iota_of(n);
    const shuffle_account a = decorated_shuffle(sock, std::span<std::uint64_t>(v), seed, engine_law());
    const double b = static_cast<double>(a.wire.wire_bytes) / static_cast<double>(n);
    per_shuffle = per_shuffle && b > 11.5 && b < 12.5;
    sum += a.wire.wire_bytes;
  }
  cgp::comm::wire_counters total = sock.wire();
  total -= before;
  expect(per_shuffle, "each shuffle's wire bytes per item are its own (~12 B), not the sum");
  expect(sum == total.wire_bytes, "per-shuffle wire differences add up to the total");

  // Decorated == the entry point on the same transport.
  cgp::context_options co;
  co.which = cgp::core::backend::cgm;
  co.engine.transport = &sock;
  const cgp::context ctx(co);
  std::vector<std::uint64_t> ref = iota_of(n);
  (void)ctx.shuffle(std::span<std::uint64_t>(ref), 99);
  std::vector<std::uint64_t> dec = iota_of(n);
  (void)decorated_shuffle(sock, std::span<std::uint64_t>(dec), 99, engine_law());
  expect(dec == ref, "decorated distributed_shuffle == context::shuffle (cgm)");

  // p = 1: nothing crosses a rank boundary, nothing crosses a wire.
  cgp::comm::loopback_transport loop;
  std::vector<std::uint64_t> l = iota_of(n);
  const shuffle_account la = decorated_shuffle(loop, std::span<std::uint64_t>(l), 99, engine_law());
  expect(la.move_bytes() == 0 && la.gather_bytes() == 0 && la.wire.wire_bytes == 0,
         "loopback at p = 1 sends 0 bytes");
  expect(l == ref, "loopback output == socket output (rank-count independence)");
  cgp::comm::socket_transport one(1);
  std::vector<std::uint64_t> o = iota_of(n);
  const shuffle_account oa = decorated_shuffle(one, std::span<std::uint64_t>(o), 99, engine_law());
  expect(oa.wire.wire_bytes == 0 && oa.move_bytes() == 0, "a 1-rank socket transport sends 0 bytes");

  // p = 4 at n = 2^20: chunks and buckets align with rank blocks, so one
  // move superstep carries exactly the split plan's cross-rank items as
  // 16-byte (pos, value) records, and no gather superstep runs.
  const std::uint64_t n2 = std::uint64_t{1} << 20;
  std::vector<std::uint64_t> a2 = iota_of(n2);
  const shuffle_account pa = decorated_shuffle(sock, std::span<std::uint64_t>(a2), 5, engine_law());
  cgp::smp::split_options sopt;
  const std::uint64_t cross = predicted_cross_items(n2, 4, 5, sopt);
  expect(pa.move_bytes() == 16 * cross, "p = 4, n = 2^20: move bytes == 16 x predicted cross items");
  expect(pa.supersteps() == 1 && pa.gather_bytes() == 0, "p = 4, n = 2^20: one superstep, no gather");
  const double expected = 0.75 * static_cast<double>(n2) * 16.0;
  expect(std::fabs(static_cast<double>(pa.move_bytes()) / expected - 1.0) < 0.01,
         "p = 4, n = 2^20: move bytes within 1% of (p-1)/p * n * 16");
  expect(std::fabs(pa.h_relation_ratio() - 2.0) < 0.02, "h-relation ratio ~2 for (pos, value) pairs");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_quiet_share();
  test_validators();
  test_accounting();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
