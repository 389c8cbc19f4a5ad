// examples/wire_server.cpp -- the permutation service over the wire.
//
// Default mode (no arguments): spins up a svc::wire_server on an
// ephemeral localhost port, connects svc::wire_clients to it, and walks
// the whole RPC surface: permutation fetch, in-place record shuffle
// (payload crosses the wire both ways), chunked pulls from a remote
// stream, the metrics snapshot, and the telemetry documents -- then
// verifies the determinism contract survives the network: every remote
// result is replayed bit-for-bit from (server_seed, client_id, ordinal)
// on a bare local context.  Exits nonzero on any mismatch, so CI can run
// it as a smoke test.  Artifacts: WIRE_METRICS.json, WIRE_TELEMETRY.prom,
// WIRE_TELEMETRY_RING.json.
//
// Two-process modes (the distributed-tracing harness; run both under
// CGP_TRACE=<file> to get two dumps that stitch into ONE trace):
//
//   ./wire_server serve <portfile>   start a server, write its port to
//                                    <portfile>, exit cleanly once at
//                                    least one job finished and the last
//                                    client disconnected (so the atexit
//                                    trace dump fires)
//   ./wire_server client <port>      connect to a serve-mode process,
//                                    run one traced remote job, verify
//                                    the replay, fetch the telemetry
//                                    documents into
//                                    WIRE_CLIENT_TELEMETRY.prom and
//                                    WIRE_CLIENT_TELEMETRY_RING.json, exit
//
// Build: part of the default CMake build.  Run: ./wire_server
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "obs/trace.hpp"
#include "svc/wire.hpp"

namespace {

// Both processes of the two-process harness must agree on the server
// seed: the client replays remote results against a bare local context.
constexpr std::uint64_t kSeed = 0xFEED5EED;

int failures = 0;
void check(bool ok, const char* what) {
  std::cout << (ok ? "  ok: " : "  MISMATCH: ") << what << "\n";
  if (!ok) ++failures;
}

cgp::svc::wire_server_options make_server_options() {
  cgp::svc::wire_server_options wopt;
  wopt.svc.seed = kSeed;
  wopt.svc.scheduler_workers = 2;
  return wopt;
}

/// serve mode: park until one remote job completed AND every client has
/// disconnected, then stop -- a clean exit, so the CGP_TRACE atexit dump
/// runs with the full server-side trace in the ring.
int run_serve(const char* portfile) {
  cgp::svc::wire_server ws(make_server_options());
  {
    // Write-then-rename so the client never reads a half-written port.
    const std::string tmp = std::string(portfile) + ".tmp";
    std::ofstream(tmp) << ws.port() << "\n";
    if (std::rename(tmp.c_str(), portfile) != 0) {
      std::cerr << "serve: cannot write portfile " << portfile << "\n";
      return 1;
    }
  }
  std::cout << "serve: listening on 127.0.0.1:" << ws.port() << "\n";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const auto st = ws.service().stats();
    if (st.done >= 1 && ws.connections() == 0) break;
    if (std::chrono::steady_clock::now() > deadline) {
      std::cerr << "serve: timed out waiting for a client\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ws.stop();
  std::cout << "serve: done (" << ws.service().stats().done << " job(s) served)\n";
  return 0;
}

/// client mode: one traced remote job against a serve-mode process.
int run_client(std::uint16_t port) {
  cgp::svc::wire_client cl("127.0.0.1", port);
  {
    // The root span of the distributed trace: its context rides every
    // wire.call below it, so the server's spans join this trace_id.
    const cgp::obs::span root("example.remote_job", "wire");
    std::uint64_t ordinal = 0;
    const cgp::svc::permutation pi = cl.fetch_permutation(/*client_id=*/7, 50'000, &ordinal);
    cgp::context oracle;
    check(pi == oracle.random_permutation(50'000, cgp::svc::job_seed(kSeed, 7, ordinal)),
          "remote permutation == bare-context replay");
  }
  // Its own file names: the default mode's documents stay for validation.
  std::ofstream("WIRE_CLIENT_TELEMETRY.prom")
      << cl.telemetry(cgp::svc::wire_client::telemetry_form::prometheus);
  std::ofstream("WIRE_CLIENT_TELEMETRY_RING.json")
      << cl.telemetry(cgp::svc::wire_client::telemetry_form::json_ring);
  std::cout << "client: wrote WIRE_CLIENT_TELEMETRY.prom and WIRE_CLIENT_TELEMETRY_RING.json\n";
  return failures == 0 ? 0 : 1;
}

int run_demo() {
  using namespace cgp;

  // --- a server on an ephemeral port ----------------------------------
  const svc::wire_server_options wopt = make_server_options();
  svc::wire_server ws(wopt);
  std::cout << "wire_server listening on " << wopt.address << ":" << ws.port() << "\n";

  // A bare context configured like the server: the replay oracle.  The
  // wire adds nothing to the randomness -- every remote result below is
  // a pure function of (server_seed, client_id, ordinal).
  cgp::context oracle;
  const auto replay_seed = [&](std::uint64_t client, std::uint64_t ordinal) {
    return svc::job_seed(wopt.svc.seed, client, ordinal);
  };

  // --- whole permutation over the wire --------------------------------
  svc::wire_client alice("127.0.0.1", ws.port());
  std::uint64_t ordinal = 0;
  const svc::permutation pi = alice.fetch_permutation(/*client_id=*/1, /*n=*/100'000, &ordinal);
  std::cout << "client 1 fetched a permutation of 100000 (ordinal " << ordinal
            << "): pi[0] = " << pi[0] << "\n";
  check(pi == oracle.random_permutation(100'000, replay_seed(1, ordinal)),
        "remote permutation == bare-context replay");

  // --- in-place shuffle: records travel both ways ---------------------
  std::vector<std::uint64_t> deck(52);
  std::iota(deck.begin(), deck.end(), 0);
  alice.shuffle(/*client_id=*/1, std::span<std::uint64_t>(deck), &ordinal);
  std::cout << "client 1's deck came back shuffled: " << deck[0] << ", " << deck[1] << ", "
            << deck[2] << ", ... (ordinal " << ordinal << ")\n";
  std::vector<std::uint64_t> deck_replay(52);
  std::iota(deck_replay.begin(), deck_replay.end(), 0);
  oracle.shuffle(std::span<std::uint64_t>(deck_replay), replay_seed(1, ordinal));
  check(deck == deck_replay, "remote shuffle == bare-context replay");

  // --- a second client on its own connection --------------------------
  svc::wire_client bob("127.0.0.1", ws.port());
  const svc::permutation bp = bob.fetch_permutation(/*client_id=*/2, /*n=*/10'000, &ordinal);
  check(bp == oracle.random_permutation(10'000, replay_seed(2, ordinal)),
        "second client starts at its own ordinal 0");

  // --- chunked pulls from a remote stream -----------------------------
  svc::remote_stream rs = bob.open_stream(/*client_id=*/2, /*n=*/300'000);
  std::vector<std::uint64_t> assembled;
  std::vector<std::uint64_t> chunk(65'536);
  std::uint64_t pulls = 0;
  while (const std::size_t got = rs.read(std::span<std::uint64_t>(chunk))) {
    assembled.insert(assembled.end(), chunk.begin(),
                     chunk.begin() + static_cast<std::ptrdiff_t>(got));
    ++pulls;
  }
  rs.close();
  std::cout << "client 2 streamed " << assembled.size() << " items in " << pulls
            << " pulls\n";
  check(assembled == oracle.random_permutation(300'000, replay_seed(2, rs.ordinal())),
        "remote stream == bare-context replay");

  // --- metrics over the wire ------------------------------------------
  const std::string metrics = alice.metrics_snapshot();
  std::ofstream("WIRE_METRICS.json") << metrics << "\n";
  std::cout << "wrote the remote metrics snapshot to WIRE_METRICS.json ("
            << metrics.size() << " bytes)\n";
  check(metrics.find("\"done\"") != std::string::npos &&
            metrics.find("\"queue_depth\"") != std::string::npos,
        "metrics snapshot carries the service counters");
  check(metrics.find("\"tenants\"") != std::string::npos &&
            metrics.find("\"1\"") != std::string::npos &&
            metrics.find("\"2\"") != std::string::npos,
        "metrics snapshot carries both tenants");

  // --- telemetry over the wire ----------------------------------------
  const std::string prom = alice.telemetry(svc::wire_client::telemetry_form::prometheus);
  std::ofstream("WIRE_TELEMETRY.prom") << prom;
  std::cout << "wrote the Prometheus exposition to WIRE_TELEMETRY.prom (" << prom.size()
            << " bytes)\n";
  check(prom.find("# TYPE cgp_svc_jobs_done_total counter") != std::string::npos,
        "exposition carries the service counters");
  check(prom.find("client_id=\"1\"") != std::string::npos,
        "exposition carries per-tenant series");
  const std::string ring = alice.telemetry(svc::wire_client::telemetry_form::json_ring);
  std::ofstream("WIRE_TELEMETRY_RING.json") << ring << "\n";
  std::cout << "wrote the sampler ring to WIRE_TELEMETRY_RING.json (" << ring.size()
            << " bytes)\n";
  check(ring.find("\"series\"") != std::string::npos &&
            ring.find("\"samples\"") != std::string::npos,
        "ring document carries series and samples");

  if (failures != 0) {
    std::cerr << failures << " wire round trip(s) failed to replay\n";
    return 1;
  }
  std::cout << "all wire round trips replayed bit-for-bit\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "serve") return run_serve(argv[2]);
  if (argc == 3 && std::string(argv[1]) == "client") {
    return run_client(static_cast<std::uint16_t>(std::atoi(argv[2])));
  }
  if (argc != 1) {
    std::cerr << "usage: " << argv[0] << " [serve <portfile> | client <port>]\n";
    return 2;
  }
  return run_demo();
}
