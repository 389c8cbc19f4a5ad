// dist_socket -- the paper's algorithm.  One caller thread runs a
// cgp::context with backend::cgm over an injected comm::socket_transport of
// p = 4 ranks.  Most of the time goes to shuffles of n = 1,000,003 u64: n is
// not a power of two, so buckets straddle rank blocks and the gather and
// scatter supersteps run (at n = 2^k they align and hide).  Eight of every
// nine requests are 10,007-item shuffles: below the cache cutoff, so the
// engine gathers them to one rank, runs a single leaf and scatters them
// back -- two supersteps whose latency dominates.  They take about a
// seventh of the time and give the small request type the >= 1,000 samples
// its p99 needs.  The time goes to cgm routing and comm framing and
// exchange; svc, em and prp are bypassed.
#include <array>
#include <numeric>
#include <vector>

#include "accounting.hpp"
#include "comm/socket_transport.hpp"
#include "core/context.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = cgp::core;

constexpr std::uint32_t kRanks = 4;

enum req_type : int { kSmallReq, kLargeReq, kTypes };
constexpr std::array<std::uint64_t, kTypes> kItems = {10'007, 1'000'003};
constexpr std::array<const char*, kTypes> kName = {"small", "large"};
/// Requests of each type per block of the caller's mix.
constexpr std::array<int, kTypes> kPerBlock = {8, 1};

struct phase_stats {
  std::vector<request_record> records;
  std::uint64_t invalid = 0;
  std::vector<double> wire_bytes_per_item;  ///< large shuffles, one per shuffle
  std::vector<double> frames;
  std::vector<double> messages;
};

/// The caller's arrays, their invariants, and the seeded request order.
class caller {
 public:
  explicit caller(std::uint64_t seed) : seed_(seed), order_(sub_seed(seed, 1), 0) {
    for (int t = 0; t < kTypes; ++t) {
      data_[t].resize(kItems[t]);
      std::iota(data_[t].begin(), data_[t].end(), 0);
      check_[t] = in_place_check(hash_values(data_[t]));
    }
  }

  /// Blocks of one large and eight small requests, in seeded order.
  req_type next_type() {
    if (at_ == block_.size()) {
      block_ = seeded_block(kPerBlock, order_);
      at_ = 0;
    }
    return static_cast<req_type>(block_[at_++]);
  }

  [[nodiscard]] std::uint64_t request_seed(std::uint64_t k) const {
    return sub_seed(seed_, 1'000'000 + k);
  }

  bool validate(int t) { return check_[t].next(hash_values(data_[t])); }

  void request(const cgp::context& ctx, cgp::comm::transport& tr, phase_stats& st,
               span_log* log) {
    const req_type t = next_type();
    const std::uint64_t k = calls_++;
    const cgp::comm::wire_counters before = tr.wire();
    const double t0 = now_s();
    {
      const scoped_span sp(log, t == kLargeReq ? "cgm.shuffle.large" : "cgm.shuffle.small", k + 1);
      (void)ctx.shuffle(std::span<std::uint64_t>(data_[t]), request_seed(k));
    }
    const double t1 = now_s();
    cgp::comm::wire_counters d = tr.wire();
    d -= before;
    const double c0 = thread_cpu_s();
    if (!validate(t)) ++st.invalid;
    st.records.push_back({t0, t1, kItems[t], t, thread_cpu_s() - c0});
    if (t == kLargeReq) {
      st.wire_bytes_per_item.push_back(static_cast<double>(d.wire_bytes) /
                                       static_cast<double>(kItems[t]));
      st.frames.push_back(static_cast<double>(d.frames));
      st.messages.push_back(static_cast<double>(d.messages));
    }
    if (sampling_ && sampled_[t].size() < 3) sampled_[t].push_back(request_seed(k));
  }

  std::array<std::vector<std::uint64_t>, kTypes> data_;
  std::array<std::vector<std::uint64_t>, kTypes> sampled_;  ///< replay seeds
  bool sampling_ = false;  ///< record replay seeds (the traced phase)

 private:
  std::uint64_t seed_;
  cgp::rng::philox4x64 order_;
  std::vector<int> block_;
  std::size_t at_ = 0;
  std::array<in_place_check, kTypes> check_;
  std::uint64_t calls_ = 0;
};

/// With a span log, every other request is traced and lands in st[1].
std::array<phase_stats, 2> run_phase(caller& c, const cgp::context& ctx,
                                     cgp::comm::transport& tr, double seconds, span_log* log) {
  std::array<phase_stats, 2> st;
  const double t0 = now_s();
  for (std::uint64_t k = 0; now_s() - t0 < seconds; ++k) {
    const bool traced = log != nullptr && k % 2 == 1;
    c.request(ctx, tr, st[traced ? 1 : 0], traced ? log : nullptr);
  }
  return st;
}

/// The shared-memory backend each request type must equal at the same seed:
/// backend::smp at the same n and p above the cache cutoff; below it the
/// distributed engine runs one leaf on backend::sequential's stream (see
/// cgm/distributed.hpp).
constexpr std::array<core::backend, kTypes> kReference = {core::backend::sequential,
                                                          core::backend::smp};
constexpr std::array<const char*, kTypes> kReferenceSpan = {"core.shuffle.sequential",
                                                            "core.shuffle.smp"};

/// The traced replay: each sampled request through a decorated
/// cgm::distributed_shuffle on the same transport and through its
/// reference backend; both must equal ctx.shuffle bit for bit.
void replay(caller& c, const cgp::context& ctx, cgp::comm::transport& tr, report& rep,
            span_log* log) {
  std::uint64_t request = 3'000'000'000;
  std::vector<double> over_smp;
  for (int t = 0; t < kTypes; ++t) {
    cgp::context_options ro;
    ro.which = kReference[t];
    ro.parallelism = kRanks;
    const cgp::context ref_ctx(ro);
    bool same_dec = true;
    bool same_ref = true;
    bool known_tags = true;
    std::vector<double> exchange_ms, compute_ms, imbalance, move_b, gather_b, h_ratio, steps;
    for (const std::uint64_t seed : c.sampled_[t]) {
      ++request;
      const scoped_span req(log, "replay.request", request);
      const std::vector<std::uint64_t>& in = c.data_[t];
      std::vector<std::uint64_t> ref = in;
      double cgm_s = 0.0;
      {
        const scoped_span sp(log, "core.shuffle.cgm", request);
        const double t0 = now_s();
        (void)ctx.shuffle(std::span<std::uint64_t>(ref), seed);
        cgm_s = now_s() - t0;
      }
      std::vector<std::uint64_t> dec = in;
      const shuffle_account acc = decorated_shuffle(tr, std::span<std::uint64_t>(dec), seed,
                                                    ctx.execution_options(seed).cgm_engine,
                                                    log, request);
      same_dec = same_dec && dec == ref;
      known_tags = known_tags && !acc.other_tags();
      std::vector<std::uint64_t> refv = in;
      double ref_s = 0.0;
      {
        const scoped_span sp(log, kReferenceSpan[t], request);
        const double t0 = now_s();
        (void)ref_ctx.shuffle(std::span<std::uint64_t>(refv), seed);
        ref_s = now_s() - t0;
      }
      same_ref = same_ref && refv == ref;
      const auto [cmax, cmean] = acc.compute_s();
      const double n = static_cast<double>(acc.n);
      exchange_ms.push_back(acc.max_exchange_s() * 1e3);
      compute_ms.push_back(cmax * 1e3);
      imbalance.push_back(cmean > 0.0 ? cmax / cmean : 0.0);
      move_b.push_back(static_cast<double>(acc.move_bytes()) / n);
      gather_b.push_back(static_cast<double>(acc.gather_bytes()) / n);
      h_ratio.push_back(acc.h_relation_ratio());
      steps.push_back(static_cast<double>(acc.supersteps()));
      if (kReference[t] == core::backend::smp) over_smp.push_back(cgm_s / ref_s);
    }
    const std::string tag = kName[t];
    const auto samples = static_cast<std::uint64_t>(c.sampled_[t].size());
    rep.check("replay.sampled." + tag, samples > 0);
    rep.check("replay.decorated_vs_ctx_shuffle." + tag, same_dec);
    rep.check("replay.reference_vs_ctx_shuffle." + tag, same_ref,
              core::backend_name(kReference[t]));
    rep.check("accounting.known_tags." + tag, known_tags);
    // The large shuffle is the headline; the small one is reported beside it.
    const std::string sfx = t == kLargeReq ? "" : ".small";
    rep.metric("comm.exchange_ms" + sfx, median(exchange_ms), "ms", samples);
    rep.metric("comm.supersteps" + sfx, median(steps), "count", samples);
    rep.metric("cgm.rank_compute_ms" + sfx, median(compute_ms), "ms", samples);
    rep.metric("cgm.rank_imbalance" + sfx, median(imbalance), "ratio", samples);
    rep.metric("cgm.move_bytes_per_item" + sfx, median(move_b), "B", samples);
    rep.metric("cgm.gather_bytes_per_item" + sfx, median(gather_b), "B", samples);
    rep.metric("cgm.h_relation_ratio" + sfx, median(h_ratio), "ratio", samples);
  }
  rep.metric("cgm.over_smp", median(over_smp), "ratio", over_smp.size());
  rep.metric("core.plan_us",
             median_seconds(101, [&] {
               (void)core::resolve_plan(kItems[kLargeReq], 8, ctx.execution_options(1));
             }) * 1e6,
             "us", 101);
}

}  // namespace

int run_dist_socket(const run_config& cfg, report& rep) {
  caller c(cfg.seed);  // input generation: not part of setup

  cgp::context_options copt;
  copt.which = core::backend::cgm;
  copt.seed = sub_seed(cfg.seed, 0);
  host_warmup(cfg.host_warmup_seconds);
  const double t0 = now_s();
  cgp::comm::socket_transport sock(kRanks);
  std::vector<double> transport_s = {now_s() - t0};
  copt.engine.transport = &sock;
  const cgp::context ctx(copt);
  for (int t = 0; t < kTypes; ++t) {
    (void)ctx.shuffle(std::span<std::uint64_t>(c.data_[t]), sub_seed(cfg.seed, 100 + t));
  }
  report_setup(rep, now_s() - t0);
  for (int t = 0; t < kTypes; ++t) rep.check(std::string("setup.valid.") + kName[t], c.validate(t));
  if (cfg.setup_only) return 0;
  host_info(rep);
  const core::permutation_plan plan = ctx.plan_for(kItems[kLargeReq], 8);
  rep.info("plan.large", plan_text(plan) + " transport=socket");

  (void)run_phase(c, ctx, sock, cfg.warmup_seconds, nullptr);
  host_guard guard;
  guard.before();
  span_log log;
  c.sampling_ = cfg.trace;
  const std::array<phase_stats, 2> phases =
      run_phase(c, ctx, sock, cfg.seconds, cfg.trace ? &log : nullptr);
  guard.after();
  const phase_stats& st = phases[0];
  const phase_stats& tr = phases[1];

  std::vector<request_record> all = st.records;
  all.insert(all.end(), tr.records.begin(), tr.records.end());
  const quiet_figures q = quiet_share(guard.slices(), all, kTypes);
  report_rates(rep, q, true);
  report_latency(rep, "small_p50_ms", q.latency_s[kSmallReq], 0.5);
  report_latency(rep, "small_p99_ms", latencies(st.records, kSmallReq), 0.99);
  report_latency(rep, "large_p50_ms", q.latency_s[kLargeReq], 0.5);
  rep.metric("wire_bytes_per_item", median(st.wire_bytes_per_item), "B",
             st.wire_bytes_per_item.size());
  guard.report_to(rep);
  const std::uint64_t attempted = all.size();
  const std::uint64_t failed = st.invalid + tr.invalid;
  rep.check("outputs.valid", failed == 0, std::to_string(failed) + " invalid");
  rep.metric("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
             attempted);

  if (cfg.trace) {
    rep.metric("obs.trace_overhead_frac", trace_overhead(st.records, tr.records, kTypes), "ratio",
               tr.records.size());
    for (int i = 0; i < 4; ++i) {  // more transport set-ups, for a median
      const double s0 = now_s();
      const cgp::comm::socket_transport extra(kRanks);
      transport_s.push_back(now_s() - s0);
    }
    rep.metric("comm.setup_ms", median(transport_s) * 1e3, "ms", transport_s.size());
    rep.metric("comm.wire_bytes_per_item", median(st.wire_bytes_per_item), "B",
               st.wire_bytes_per_item.size());
    rep.metric("comm.frames_per_shuffle", median(st.frames), "count", st.frames.size());
    rep.metric("comm.messages_per_shuffle", median(st.messages), "count", st.messages.size());
    replay(c, ctx, sock, rep, &log);
    seq_yardstick(sub_seed(cfg.seed, 6), rep, &log);
    hyp_yardstick(sub_seed(cfg.seed, 7), rep, &log);
    report_bypassed(rep, local_mix_only_metrics());
    report_bypassed(rep, wire_only_metrics());
    dump_spans(log, cfg.trace_out, rep);
  }
  rep.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  rep.requests(attempted, failed);
  return 0;
}

}  // namespace perfbench
