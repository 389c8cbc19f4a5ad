// E16 -- transport sweep: the distributed CGM engine over the threaded
// mailbox transport vs the shared-memory engine at equal core counts.
//
// Both engines execute the SAME permutation law (identical split plans,
// label streams, and leaf engines -- tests/test_transport.cpp pins the
// outputs bit-for-bit equal); what differs is the data movement: smp
// streams buckets through shared memory, while cgm pays the BSP terms --
// (pos, value) pairs through rank mailboxes (g) plus exchange barriers
// (L).  Sweeping the rank count p at equal parallelism therefore
// isolates exactly the communication overhead the planner's (p, g, L)
// cgm candidate must model, and the per-p ratio is the
// communication-vs-shared-memory crossover evidence: on one host the
// transport can only lose, by the factor this bench measures; a real
// cluster transport wins once p ranks bring memory and cores one host
// lacks.
//
// The socket transport joins the sweep with one row per p (same engine,
// but the pairs now cross real TCP connections on localhost), and a
// second section measures its per-destination aggregator: a burst of
// tiny sends with aggregation on vs off (aggregation_bytes = 0 is the
// frame-per-send baseline), reporting the wire-frame coalescing factor.
//
// Output: a table on stdout plus BENCH_cgm.json (one record per
// (transport, p) plus one "aggregation" record: measured cgm/smp
// seconds, ratios, the planner's predicted cgm seconds for a profile
// describing p ranks, the socket rows' wire traffic per shuffle, and the
// aggregator's frame counts).
//
// Usage: e16_transport [mode] [json_path]   mode: full (default) | small
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cgm/distributed.hpp"
#include "comm/socket_transport.hpp"
#include "comm/transport.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "smp/engine.hpp"
#include "stats/lehmer.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace cgp;

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_cgm.json";
  const bool small = mode == "small";
  const std::uint64_t n = small ? 300'000 : 4'000'000;
  const int reps = small ? 3 : 5;

  std::cout << "E16: threaded-transport cgm shuffle vs smp engine, equal core counts\n"
            << "n = " << n << " u64 items, best of " << reps << "\n\n";

  std::vector<std::uint64_t> v(n);
  table t({"p", "T_thr [ms]", "T_sock [ms]", "T_smp [ms]", "sock/thr", "T_cgm planned [ms]"});
  std::vector<json_record> out;

  for (const std::uint32_t p : {1u, 2u, 4u, 8u}) {
    // The distributed engine over p mailbox ranks.
    comm::threaded_transport tr(p);
    cgm::distributed_options dopt;
    const double t_cgm = best_of(reps, [&](std::uint64_t r) {
      std::iota(v.begin(), v.end(), 0);
      cgm::transport_shuffle(tr, std::span<std::uint64_t>(v), 0xE16 + r, dopt);
    });
    if (!stats::is_permutation_of_iota(v)) {
      std::cerr << "INVALID permutation from transport cgm at p=" << p << "\n";
      return 1;
    }

    // The same engine over p TCP ranks on localhost (the socket/threaded
    // gap is the price of real framing + kernel round trips).
    comm::socket_transport str(p);
    const comm::wire_counters before = str.wire();
    const double t_sock = best_of(reps, [&](std::uint64_t r) {
      std::iota(v.begin(), v.end(), 0);
      cgm::transport_shuffle(str, std::span<std::uint64_t>(v), 0xE16 + r, dopt);
    });
    comm::wire_counters wc = str.wire();  // the timed reps' traffic, per shuffle below
    wc -= before;
    if (!stats::is_permutation_of_iota(v)) {
      std::cerr << "INVALID permutation from socket cgm at p=" << p << "\n";
      return 1;
    }

    // The shared-memory engine at the same parallelism (shared warm pool).
    smp::engine_options eopt;
    eopt.threads = p;
    smp::engine& eng = core::shared_engine(eopt);
    const double t_smp = best_of(reps, [&](std::uint64_t r) {
      std::iota(v.begin(), v.end(), 0);
      eng.shuffle(std::span<std::uint64_t>(v), 0xE16 + r);
    });
    if (!stats::is_permutation_of_iota(v)) {
      std::cerr << "INVALID permutation from smp engine at p=" << p << "\n";
      return 1;
    }

    // What the planner would predict for a profile describing p ranks
    // (the (p, g, L) candidate this bench exists to ground).
    core::machine_profile prof = core::machine_profile::detect();
    prof.comm_ranks = p;
    core::workload w;
    w.n = n;
    double planned_cgm = std::numeric_limits<double>::infinity();
    for (const auto& c : core::plan_permutation(w, prof).candidates) {
      if (c.which == core::backend::cgm && c.feasible) planned_cgm = c.seconds;
    }

    const auto ms = [](double s) {
      return std::isinf(s) ? std::string("-") : fmt(s * 1e3, 3);
    };
    t.add_row({fmt_count(p), ms(t_cgm), ms(t_sock), ms(t_smp), fmt(t_sock / t_cgm, 2),
               ms(planned_cgm)});

    json_record rec;
    rec.add("bench", "e16_transport")
        .add("mode", mode)
        .add("transport", tr.name())
        .add("p", static_cast<std::uint64_t>(p))
        .add("n", n)
        .add("cgm_seconds", t_cgm)
        .add("smp_seconds", t_smp)
        .add("cgm_over_smp", t_cgm / t_smp);
    if (!std::isinf(planned_cgm)) rec.add("planned_cgm_seconds", planned_cgm);
    out.push_back(std::move(rec));

    const auto per_shuffle = [&](std::uint64_t total) {
      return static_cast<double>(total) / static_cast<double>(reps);
    };
    json_record srec;
    srec.add("bench", "e16_transport")
        .add("mode", mode)
        .add("transport", str.name())
        .add("p", static_cast<std::uint64_t>(p))
        .add("n", n)
        .add("cgm_seconds", t_sock)
        .add("smp_seconds", t_smp)
        .add("cgm_over_smp", t_sock / t_smp)
        .add("socket_over_threaded", t_sock / t_cgm)
        .add("wire_messages_per_shuffle", per_shuffle(wc.messages))
        .add("wire_frames_per_shuffle", per_shuffle(wc.frames))
        .add("wire_bytes_per_shuffle", per_shuffle(wc.wire_bytes))
        .add("wire_bytes_per_item", per_shuffle(wc.wire_bytes) / static_cast<double>(n));
    if (!std::isinf(planned_cgm)) srec.add("planned_cgm_seconds", planned_cgm);
    out.push_back(std::move(srec));
  }
  t.print(std::cout);
  std::cout << "\ncgm/smp > 1 on one host is the transport's communication tax\n"
            << "(pairs through mailboxes + exchange barriers); the planner's\n"
            << "(p, g, L) terms model exactly this gap.  sock/thr is the extra\n"
            << "price of real TCP framing over in-process mailboxes.\n";

  // --- the aggregator's reason to exist: tiny sends vs wire frames -----------
  //
  // A burst of 16-byte sends to every peer, with the per-destination
  // aggregator on (default threshold) and off (aggregation_bytes = 0,
  // one frame per send).  Identical logical traffic; the coalescing
  // factor is frames_off / frames_on (CI asserts >= 4; the burst shape
  // makes it ~burst_size).
  {
    constexpr std::uint32_t kRanks = 4;
    constexpr std::uint32_t kSteps = 4;
    constexpr std::uint32_t kBurst = 256;
    const auto wire_with = [&](std::size_t agg_bytes) {
      comm::socket_options sopt;
      sopt.aggregation_bytes = agg_bytes;
      comm::socket_transport str(kRanks, sopt);
      stopwatch sw;
      str.run([&](comm::endpoint& ep) {
        const std::uint64_t x = ep.rank();
        for (std::uint32_t s = 0; s < kSteps; ++s) {
          for (std::uint32_t i = 0; i < kBurst; ++i) {
            for (std::uint32_t d = 0; d < ep.size(); ++d) {
              if (d != ep.rank()) ep.send_span(d, i, std::span<const std::uint64_t>(&x, 1));
            }
          }
          (void)ep.exchange();
        }
      });
      return std::pair<comm::wire_counters, double>(str.wire(), sw.seconds());
    };
    const auto [on, t_on] = wire_with(comm::socket_options{}.aggregation_bytes);
    const auto [off, t_off] = wire_with(0);
    const double coalescing =
        on.frames == 0 ? 0.0 : static_cast<double>(off.frames) / static_cast<double>(on.frames);

    std::cout << "\naggregation (p=" << kRanks << ", " << kBurst << " tiny sends/peer/step, "
              << kSteps << " steps): " << off.frames << " frames off -> " << on.frames
              << " frames on (x" << fmt(coalescing, 1) << " coalescing), "
              << fmt(t_off * 1e3, 2) << " ms -> " << fmt(t_on * 1e3, 2) << " ms\n";

    json_record arec;
    arec.add("bench", "e16_transport")
        .add("mode", mode)
        .add("section", "aggregation")
        .add("transport", "socket")
        .add("p", static_cast<std::uint64_t>(kRanks))
        .add("messages", on.messages)
        .add("frames_aggregated", on.frames)
        .add("frames_frame_per_send", off.frames)
        .add("coalescing_factor", coalescing)
        .add("seconds_aggregated", t_on)
        .add("seconds_frame_per_send", t_off);
    out.push_back(std::move(arec));
  }

  if (write_json_records(json_path, out)) {
    std::cout << "\nwrote " << out.size() << " records to " << json_path << "\n";
  }
  return 0;
}
