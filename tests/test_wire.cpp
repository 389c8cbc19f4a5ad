// Tests for the binary RPC front end (src/svc/wire.hpp): determinism
// over the wire -- a remote job's output is the same pure function of
// (server_seed, client_id, ordinal) a local submission gets, replayable
// against a bare context -- plus framing round-trips (empty / large
// bodies), remote streams, metrics over the wire, concurrent client
// connections, handler threads released as connections close, and the
// error surface (rejection after close, malformed requests).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/net.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prp/cipher.hpp"
#include "support/perm_check.hpp"
#include "svc/job.hpp"
#include "svc/wire.hpp"

namespace {

using namespace cgp;

constexpr std::uint64_t kSeed = 0x5E12B1CE0007ull;

svc::wire_server_options seeded_options() {
  svc::wire_server_options wopt;
  wopt.svc.seed = kSeed;
  return wopt;
}

// --- determinism over the wire (the acceptance bar) --------------------------

TEST(WireRpc, PermutationOverWireEqualsBareContextReplay) {
  svc::wire_server ws(seeded_options());
  ASSERT_NE(ws.port(), 0) << "ephemeral bind must resolve to a real port";
  svc::wire_client cl("127.0.0.1", ws.port());

  const std::uint64_t n = 100'000;
  std::uint64_t ordinal = 99;
  const svc::permutation pi = cl.fetch_permutation(/*client_id=*/7, n, &ordinal);
  EXPECT_EQ(ordinal, 0u);
  ASSERT_EQ(pi.size(), n);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));

  // The wire adds nothing to the randomness: replaying the job's
  // (server_seed, client_id, ordinal) triple on a bare context gives the
  // identical permutation, bit for bit.
  cgp::context ctx;
  EXPECT_EQ(pi, ctx.random_permutation(n, svc::job_seed(kSeed, 7, ordinal)));

  // Ordinals advance per client across request kinds, exactly as local
  // submissions would.
  std::uint64_t second = 99;
  const svc::permutation pi2 = cl.fetch_permutation(7, n, &second);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(pi2, ctx.random_permutation(n, svc::job_seed(kSeed, 7, 1)));
  EXPECT_NE(pi2, pi);
}

TEST(WireRpc, ShuffleRoundTripsRecordsAndReplays) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  const std::uint64_t n = 30'000;
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);

  std::uint64_t ordinal = 99;
  cl.shuffle(/*client_id=*/3, std::span<std::uint64_t>(v), &ordinal);
  EXPECT_EQ(ordinal, 0u);

  std::vector<std::uint64_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  cgp::context ctx;
  ctx.shuffle(std::span<std::uint64_t>(expected), svc::job_seed(kSeed, 3, ordinal));
  EXPECT_EQ(v, expected);
}

TEST(WireRpc, ShuffleCarriesWideRecordsBothWays) {
  // 24-byte records: the payload crosses the wire twice (request body,
  // shuffled response body) and must come back value-identical, only
  // reordered by the job's permutation.
  struct rec24 {
    std::uint64_t key;
    std::uint64_t a;
    std::uint64_t b;
    bool operator==(const rec24&) const = default;
  };
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  const std::uint64_t n = 5'000;
  std::vector<rec24> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, i * 31, ~i};
  std::vector<rec24> expected = recs;

  std::uint64_t ordinal = 99;
  cl.shuffle(/*client_id=*/5, std::span<rec24>(recs), &ordinal);

  cgp::context ctx;
  ctx.shuffle(std::span<rec24>(expected), svc::job_seed(kSeed, 5, ordinal));
  ASSERT_EQ(recs.size(), expected.size());
  EXPECT_EQ(recs, expected);
}

// --- remote streams ----------------------------------------------------------

TEST(WireRpc, RemoteStreamAssemblesTheWholePermutation) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  const std::uint64_t n = 70'001;  // odd: the last pull is a short chunk
  svc::remote_stream s = cl.open_stream(/*client_id=*/11, n);
  EXPECT_EQ(s.size(), n);

  std::vector<std::uint64_t> assembled;
  std::vector<std::uint64_t> chunk(8192);
  for (;;) {
    const std::size_t got = s.read(std::span<std::uint64_t>(chunk));
    if (got == 0) break;
    assembled.insert(assembled.end(), chunk.begin(),
                     chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
  s.close();  // idempotent
  s.close();

  ASSERT_EQ(assembled.size(), n);
  cgp::context ctx;
  EXPECT_EQ(assembled, ctx.random_permutation(n, svc::job_seed(kSeed, 11, s.ordinal())));
}

TEST(WireRpc, ShardStreamOverWireEqualsLocalCipherReplay) {
  // The wire twin of server::submit_shard: open_shard pulls the window
  // pi[lo..hi) of a cipher-backed permutation with nothing materialized
  // server-side, and the whole shard replays locally as
  // prp::cipher(job_seed(seed, client, ordinal), n).shard(k, S).
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  const std::uint64_t n = 1'000'003;  // prime domain: the cycle walk is live
  const std::uint64_t S = 3;
  std::vector<std::uint64_t> assembled;

  for (std::uint64_t k = 0; k < S; ++k) {
    svc::remote_stream s = cl.open_shard(/*client_id=*/13, n, k, S);
    const prp::shard_range r = prp::shard_bounds(n, k, S);
    EXPECT_EQ(s.size(), r.size());

    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> chunk(8192);
    while (const std::size_t m = s.read(std::span<std::uint64_t>(chunk))) {
      got.insert(got.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(m));
    }
    s.close();

    // Each shard job consumed its own ordinal (k-th submission of client
    // 13) and replays against a LOCAL cipher -- the wire added nothing.
    EXPECT_EQ(s.ordinal(), k);
    const prp::cipher local(svc::job_seed(kSeed, 13, s.ordinal()), n);
    std::vector<std::uint64_t> expected(r.size());
    local.eval_range(r.lo, std::span<std::uint64_t>(expected));
    EXPECT_EQ(got, expected) << "shard " << k;
    assembled.insert(assembled.end(), got.begin(), got.end());
  }

  // One job's shards would tile pi exactly once; shards of DIFFERENT
  // ordinals (as here) are windows of different permutations, so the
  // concatenation need not be one -- but each window is still in-range.
  ASSERT_EQ(assembled.size(), n);
  for (const std::uint64_t y : assembled) ASSERT_LT(y, n);
}

TEST(WireRpc, ShardOpenValidatesGeometry) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  // shard >= num_shards is malformed -- client-side validation throws
  // before any bytes move.
  EXPECT_THROW((void)cl.open_shard(1, 100, /*shard=*/5, /*num_shards=*/5),
               std::runtime_error);
  EXPECT_THROW((void)cl.open_shard(1, 100, /*shard=*/0, /*num_shards=*/0),
               std::runtime_error);

  // The connection stays usable.
  svc::remote_stream s = cl.open_shard(1, 100, 0, 2);
  EXPECT_EQ(s.size(), 50u);
  std::vector<std::uint64_t> out(50);
  EXPECT_EQ(s.read(std::span<std::uint64_t>(out)), 50u);
  s.close();
}

// --- concurrent connections --------------------------------------------------

TEST(WireRpc, ConcurrentClientsStayIndependentAndDeterministic) {
  svc::wire_server ws(seeded_options());

  constexpr int kClients = 4;
  constexpr std::uint64_t n = 20'000;
  std::vector<svc::permutation> got(kClients);
  std::vector<std::uint64_t> ords(kClients, 99);

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      svc::wire_client cl("127.0.0.1", ws.port());
      got[static_cast<std::size_t>(c)] = cl.fetch_permutation(
          static_cast<std::uint64_t>(c), n, &ords[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();

  cgp::context ctx;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ords[static_cast<std::size_t>(c)], 0u);
    EXPECT_EQ(got[static_cast<std::size_t>(c)],
              ctx.random_permutation(
                  n, svc::job_seed(kSeed, static_cast<std::uint64_t>(c), 0)))
        << "client " << c;
  }
}

// --- metrics over the wire ---------------------------------------------------

TEST(WireRpc, MetricsSnapshotTravelsAsJson) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  (void)cl.fetch_permutation(1, 1000);
  const std::string json = cl.metrics_snapshot();

  // Shape, not schema: the curated fields and the process-scope marker.
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"job_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"scope\": \"process\""), std::string::npos);
  EXPECT_NE(json.find("\"done\": 1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- error surface -----------------------------------------------------------

TEST(WireRpc, RejectedSubmissionSurfacesAsRuntimeError) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());
  ws.service().close();  // admission now rejects everything

  try {
    (void)cl.fetch_permutation(1, 1000);
    FAIL() << "expected a rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
  }
}

TEST(WireRpc, MalformedShuffleGeometryIsABadRequest) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());

  // elem_bytes = 0 can't describe any record layout; the server must
  // refuse it without touching the scheduler -- and the connection stays
  // usable afterwards.
  std::uint64_t dummy[4] = {0, 1, 2, 3};
  try {
    cl.shuffle_raw(1, dummy, 4, /*elem_bytes=*/0);
    FAIL() << "expected a bad-request error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad request"), std::string::npos);
  }
  const svc::permutation pi = cl.fetch_permutation(1, 100);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

// --- telemetry over the wire -------------------------------------------------

TEST(WireRpc, TelemetryOpcodesServeBothForms) {
  obs::set_enabled(true);
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());
  (void)cl.fetch_permutation(21, 1000);

  // Form 0: the whole process's Prometheus text exposition, including the
  // per-tenant series this very request just created.
  const std::string prom = cl.telemetry(svc::wire_client::telemetry_form::prometheus);
  EXPECT_NE(prom.find("# TYPE cgp_svc_jobs_done_total counter"), std::string::npos);
  EXPECT_NE(prom.find("cgp_svc_jobs_done_by_client_total{client_id=\"21\"}"),
            std::string::npos);

  // Form 1: the sampler's JSON ring (the server owns a running sampler by
  // default; the pull itself forces a fresh sample, so the ring is never
  // empty here).
  const std::string ring = cl.telemetry(svc::wire_client::telemetry_form::json_ring);
  EXPECT_NE(ring.find("\"series\""), std::string::npos);
  EXPECT_NE(ring.find("\"samples\""), std::string::npos);
  EXPECT_NE(ring.find("\"wall_epoch_ns\""), std::string::npos);
  EXPECT_EQ(std::count(ring.begin(), ring.end(), '{'),
            std::count(ring.begin(), ring.end(), '}'));
}

TEST(WireRpc, TelemetryRingServesEmptyWhenSamplerDisabled) {
  svc::wire_server_options wopt = seeded_options();
  wopt.telemetry_period_ms = 0;  // no sampler
  svc::wire_server ws(wopt);
  EXPECT_EQ(ws.telemetry_sampler(), nullptr);
  svc::wire_client cl("127.0.0.1", ws.port());
  const std::string ring = cl.telemetry(svc::wire_client::telemetry_form::json_ring);
  EXPECT_NE(ring.find("\"series\""), std::string::npos);  // valid, just empty
}

TEST(WireRpc, SnapshotSeparatesConcurrentTenants) {
  svc::wire_server ws(seeded_options());
  // Two tenants on their own connections, concurrently.
  std::thread a([&] {
    svc::wire_client cl("127.0.0.1", ws.port());
    for (int i = 0; i < 4; ++i) (void)cl.fetch_permutation(31, 4096);
  });
  std::thread b([&] {
    svc::wire_client cl("127.0.0.1", ws.port());
    for (int i = 0; i < 3; ++i) (void)cl.fetch_permutation(32, 4096);
  });
  a.join();
  b.join();
  const std::string js = svc::wire_client("127.0.0.1", ws.port()).metrics_snapshot();
  // Each tenant's section carries its own counts and latency percentiles.
  const std::size_t t31 = js.find("\"31\"");
  const std::size_t t32 = js.find("\"32\"");
  ASSERT_NE(t31, std::string::npos);
  ASSERT_NE(t32, std::string::npos);
  EXPECT_NE(js.find("\"done\": 4", t31), std::string::npos);
  EXPECT_NE(js.find("\"done\": 3", t32), std::string::npos);
  EXPECT_NE(js.find("\"p99_ns\""), std::string::npos);
}

// --- distributed tracing over the wire ---------------------------------------

TEST(WireRpc, RemoteJobStitchesIntoOneTrace) {
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::clear_trace();
  obs::set_current_trace({});

  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());
  (void)cl.fetch_permutation(41, 50'000);
  // The server closes its wire.permutation span after the response is on
  // the wire; stop() joins the handler, so the span is in the ring before
  // tracing goes off.
  ws.stop();

  obs::set_tracing(false);

  // One trace: the client's wire.call span minted a trace_id, the request
  // carried it, and the server's handling span, the service job, and the
  // executor all joined it.  (Client and server share this process here;
  // examples/wire_server.cpp serve/client modes pin the same stitching
  // across two real processes in CI.)
  std::uint64_t call_trace = 0;
  std::uint64_t call_span = 0;
  for (const obs::trace_event& e : obs::trace_snapshot()) {
    if (std::string(e.name) == "wire.call") {
      call_trace = e.trace_id;
      call_span = e.span_id;
    }
  }
  ASSERT_NE(call_trace, 0u) << "client span must mint a trace";

  bool server_span = false;
  bool svc_job = false;
  bool exec_span = false;
  for (const obs::trace_event& e : obs::trace_snapshot()) {
    if (e.trace_id != call_trace) continue;
    const std::string name = e.name;
    if (name == "wire.permutation") {
      server_span = true;
      // The server's handling span parents under the client's call span:
      // the context crossed the wire.
      EXPECT_EQ(e.parent_id, call_span);
    }
    if (name == "svc.job") svc_job = true;
    if (name == "fisher-yates" || name == "shuffle" || name == "split" ||
        name == "fill") {
      exec_span = true;
    }
  }
  EXPECT_TRUE(server_span) << "wire.permutation missing from the stitched trace";
  EXPECT_TRUE(svc_job) << "svc.job missing from the stitched trace";
  EXPECT_TRUE(exec_span) << "executor spans missing from the stitched trace";
}

TEST(WireRpc, UntracedClientsSendNoTraceAndNothingBreaks) {
  obs::set_enabled(true);
  obs::set_tracing(false);
  obs::set_current_trace({});
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());
  // flags stay 0 on the wire (old-client behavior); everything still works.
  const svc::permutation pi = cl.fetch_permutation(1, 10'000);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

// A "Vm...:" field of /proc/self/status in MiB (0 when absent).
double status_mib(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == field) {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(WireServer, ClosedConnectionsReleaseTheirHandlerThreads) {
  // Every handler thread maps an 8 MiB stack until it is joined.  The
  // acceptor reaps finished handlers, so 500 short sessions must leave
  // the address space about where it started, not ~4 GiB larger.
  svc::wire_server ws(seeded_options());
  const auto session = [&] {
    svc::wire_client cl("127.0.0.1", ws.port());
    EXPECT_EQ(cl.fetch_permutation(1, 16).size(), 16u);
  };
  for (int i = 0; i < 20; ++i) session();  // warm the allocator and stack caches
  const double before = status_mib("VmSize:");
  ASSERT_GT(before, 0.0) << "no VmSize in /proc/self/status";
  for (int i = 0; i < 500; ++i) session();
  const double grown = status_mib("VmSize:") - before;
  EXPECT_LT(grown, 256.0) << "VmSize grew " << grown << " MiB over 500 sessions";
}

TEST(WireServer, BodiesTheOpcodeCannotCarryAllocateNothing) {
  // A header may declare up to 2 GiB of body.  The server allocates only
  // a body its opcode can carry and drains any other through a fixed
  // buffer, so eight clients that send nothing but such a header cost it
  // no memory, and a ninth is still served.
  struct raw_header {  // the request header's wire layout
    std::uint32_t magic = 0x52504743u;
    std::uint32_t opcode = 0;
    std::uint64_t a = 1;
    std::uint64_t b = 100;
    std::uint32_t c = 0;
    std::uint32_t flags = 0;
    std::uint64_t body_bytes = std::uint64_t{1} << 31;
  };
  static_assert(sizeof(raw_header) == 40);
  svc::wire_server ws(seeded_options());
  {
    svc::wire_client warm("127.0.0.1", ws.port());
    EXPECT_EQ(warm.fetch_permutation(1, 16).size(), 16u);
  }
  const double rss0 = status_mib("VmRSS:");
  const double vm0 = status_mib("VmSize:");
  ASSERT_GT(rss0, 0.0) << "no VmRSS in /proc/self/status";

  std::vector<comm::net::socket_fd> idle;
  for (int i = 0; i < 8; ++i) {
    raw_header h;
    h.opcode = i % 3 == 0 ? 1 : i % 3 == 1 ? 7 : 2;  // permutation, shard_open, shuffle_raw
    h.c = h.opcode == 2 ? 8 : 0;                      // 100 x 8 bytes != 2 GiB
    idle.push_back(comm::net::connect_tcp("127.0.0.1", ws.port()));
    ASSERT_TRUE(comm::net::write_all(idle.back().get(), &h, sizeof(h)));
  }
  svc::wire_client cl("127.0.0.1", ws.port());
  EXPECT_TRUE(stats::is_permutation_of_iota(cl.fetch_permutation(1, 1000)));

  // Watch for half a second: a handler that allocated the declared body
  // would be growing the address space (and, zero-filling, the RSS) now.
  double rss_peak = rss0;
  double vm_peak = vm0;
  for (int i = 0; i < 25; ++i) {
    rss_peak = std::max(rss_peak, status_mib("VmRSS:"));
    vm_peak = std::max(vm_peak, status_mib("VmSize:"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LT(rss_peak - rss0, 64.0) << "RSS grew " << rss_peak - rss0 << " MiB";
  // Nine handler threads map their stacks and malloc arenas (well under
  // 1.5 GiB); one 2 GiB body would not fit.
  EXPECT_LT(vm_peak - vm0, 1536.0) << "VmSize grew " << vm_peak - vm0 << " MiB";
}

// The client reads a pull's body straight into the caller's span and a
// permutation's into the vector it returns, so a response whose size does
// not match its request must be refused before any of its bytes is read.
// A scripted server answers one connection: a 4-item permutation with 5
// items, then a good one; a stream open; pulls of 4 items that claim 5
// items, or 3 items with 4 items' bytes, then a good pull; a failed status
// with a body, then a good pull.  Every bad answer throws and leaves the
// caller's buffer untouched, and every good one after it still parses:
// the refused bodies were drained, so the connection stays in step.
TEST(WireClient, MismatchedResponsesAreRefusedBeforeTheyLand) {
  struct raw_response {  // the response header's wire layout
    std::uint32_t magic = 0x41504743u;
    std::uint32_t status = 0;
    std::uint64_t a = 0;
    std::uint64_t body_bytes = 0;
  };
  static_assert(sizeof(raw_response) == 24);
  struct scripted {
    std::uint32_t status;
    std::uint64_t a;
    std::vector<std::uint64_t> body;
  };
  const std::vector<scripted> script = {
      {0, 0, {0, 1, 2, 3, 4}},  // permutation of 4: 5 items
      {0, 9, {3, 1, 0, 2}},     // permutation of 4
      {0, 1, {0}},              // stream open: id 1, ordinal 0
      {0, 5, {1, 2, 3, 4, 5}},  // pull of 4: claims 5
      {0, 3, {1, 2, 3, 4}},     // pull of 4: claims 3, sends 4
      {0, 2, {7, 9}},           // pull of 4: 2 items
      {2, 0, {8}},              // failed, with a body
      {0, 1, {11}},             // pull of 4: 1 item
  };
  comm::net::listener lis = comm::net::listen_tcp("127.0.0.1", 0);
  // Joined on every way out: a client that throws early closes its
  // socket first, and the server's next read then fails.
  const std::jthread server([&] {
    const comm::net::socket_fd fd = comm::net::accept_tcp(lis.fd.get());
    ASSERT_TRUE(fd.valid());
    comm::net::set_nodelay(fd.get());
    for (const scripted& r : script) {
      std::array<std::byte, 40> req;  // every scripted request has no body
      ASSERT_TRUE(comm::net::read_exact(fd.get(), req.data(), req.size()));
      raw_response h;
      h.status = r.status;
      h.a = r.a;
      h.body_bytes = r.body.size() * sizeof(std::uint64_t);
      ASSERT_TRUE(comm::net::write_all(fd.get(), &h, sizeof(h)));
      ASSERT_TRUE(comm::net::write_all(fd.get(), r.body.data(), h.body_bytes));
    }
  });
  svc::wire_client cl("127.0.0.1", lis.port);
  EXPECT_THROW((void)cl.fetch_permutation(1, 4), std::runtime_error);
  std::uint64_t ordinal = 0;
  EXPECT_EQ(cl.fetch_permutation(1, 4, &ordinal), (std::vector<std::uint64_t>{3, 1, 0, 2}));
  EXPECT_EQ(ordinal, 9u);

  svc::remote_stream rs = cl.open_stream(1, 100);
  constexpr std::uint64_t kUntouched = 0xABABABABABABABABull;
  std::vector<std::uint64_t> buf(6, kUntouched);
  const std::span<std::uint64_t> out = std::span(buf).first(4);
  EXPECT_THROW((void)rs.read(out), std::runtime_error);
  EXPECT_THROW((void)rs.read(out), std::runtime_error);
  EXPECT_EQ(buf, std::vector<std::uint64_t>(6, kUntouched));
  EXPECT_EQ(rs.read(out), 2u);
  EXPECT_EQ(buf, (std::vector<std::uint64_t>{7, 9, kUntouched, kUntouched, kUntouched,
                                             kUntouched}));
  EXPECT_THROW((void)rs.read(out), std::runtime_error);
  EXPECT_EQ(buf[2], kUntouched);
  EXPECT_EQ(rs.read(out), 1u);
  EXPECT_EQ(buf[0], 11u);
}

TEST(WireRpc, ZeroLengthJobsRoundTrip) {
  svc::wire_server ws(seeded_options());
  svc::wire_client cl("127.0.0.1", ws.port());
  const svc::permutation pi = cl.fetch_permutation(1, 0);
  EXPECT_TRUE(pi.empty());
  std::vector<std::uint64_t> none;
  cl.shuffle(1, std::span<std::uint64_t>(none));  // empty body both ways
}

}  // namespace
