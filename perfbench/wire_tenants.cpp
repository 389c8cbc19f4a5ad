// wire_tenants -- the service as remote tenants see it.  An in-process
// svc::wire_server with defaults (except a 16 MiB per-job memory budget and
// the workload seed as server seed) and four blocking wire_client
// connections, closed loop, each reconnecting after 16 requests:
//
//   * three light tenants, mostly 4,096-item permutation fetches, plus
//     in-place shuffles of 4,096 16-byte records, 50,000-item fetches and
//     1-of-16,384 shard pulls of a 10^9-item domain;
//   * one heavy tenant streaming 3,000,000-item permutations in 64 Ki
//     pulls -- over the budget, so em serves it from a device.
//
// The time goes to svc scheduling and batching, wire framing and the
// per-connection threads, em and prp, with core/seq running many tiny jobs.
// Light latency percentiles are taken within the 4,096-item fetch type.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <thread>

#include "core/executor.hpp"
#include "core/registry.hpp"
#include "layers.hpp"
#include "prp/cipher.hpp"
#include "rng/uniform.hpp"
#include "svc/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = cgp::core;
namespace svc = cgp::svc;

constexpr std::uint64_t kBudgetBytes = std::uint64_t{16} << 20;
constexpr std::uint64_t kShardDomain = 1'000'000'000;
constexpr std::uint64_t kShards = 16'384;
constexpr std::uint64_t kHeavyItems = 3'000'000;
constexpr std::uint64_t kPullItems = 64 * 1024;
constexpr std::uint64_t kRecords = 4096;
constexpr int kSessionRequests = 16;
constexpr int kTenants = 4;  // three light, the last one heavy

enum req_type : int { kFetch4k, kShuffle16, kFetch50k, kShard, kStream, kTypes };

struct type_info {
  const char* name;
  std::uint64_t n;  ///< items a request delivers (shard: the window)
  std::uint32_t elem_bytes;
};

constexpr std::array<type_info, kTypes> kType = {{
    {"fetch4k", 4096, 8},
    {"shuffle16", kRecords, 16},
    {"fetch50k", 50'000, 8},
    {"shard", cgp::prp::shard_bounds(kShardDomain, 0, kShards).size(), 8},
    {"stream", kHeavyItems, 8},
}};

/// Requests of each type per block of a light tenant's mix.
constexpr std::array<int, kTypes> kLightBlock = {17, 1, 1, 1, 0};

/// Client id of tenant t: setup and warm-up use one set of ids, the timed
/// phase another, so the server's per-tenant histograms cover exactly the
/// timed phase.
std::uint64_t client_id(int tenant, bool timed) { return 1 + tenant + (timed ? 10 : 0); }

/// One request kept for the traced replay: its job address and the bytes
/// the wire delivered.
struct sample {
  req_type type = kFetch4k;
  std::uint64_t client = 0;
  std::uint64_t ordinal = 0;
  std::uint64_t shard = 0;
  std::vector<std::uint64_t> out;
  std::vector<rec16> in16;
  std::vector<rec16> out16;
};

struct tenant_stats {
  std::vector<request_record> records;  ///< valid requests; type = req_type
  std::vector<double> connect_s;
  std::uint64_t requests = 0;  ///< attempted
  std::uint64_t failed = 0;
  std::uint64_t sessions = 0;
  std::vector<sample> samples;
};

/// A window of distinct values below `domain`.
bool valid_window(std::vector<std::uint64_t> v, std::uint64_t domain) {
  std::sort(v.begin(), v.end());
  return (v.empty() || v.back() < domain) && std::adjacent_find(v.begin(), v.end()) == v.end();
}

/// One closed-loop tenant: a client connection, re-opened every 16
/// requests, issuing the tenant's seeded request mix until `deadline`.
class tenant {
 public:
  tenant(int index, std::uint16_t port, std::uint64_t seed, bool timed)
      : index_(index), port_(port), client_(client_id(index, timed)), order_(seed, 0) {
    recs_.resize(kRecords);
    for (std::uint64_t i = 0; i < kRecords; ++i) recs_[i] = make_rec16(i);
    recs_check_ = in_place_check(hash_records(recs_).value());
  }

  [[nodiscard]] bool heavy() const { return index_ == kTenants - 1; }

  /// A light tenant works through blocks of its mix, each in seeded order,
  /// so its composition does not drift between runs.
  [[nodiscard]] req_type next_type() {
    if (heavy()) return kStream;
    if (at_ == block_.size()) {
      block_ = seeded_block(kLightBlock, order_);
      at_ = 0;
    }
    return static_cast<req_type>(block_[at_++]);
  }

  /// Runs requests until `deadline`; with a span log every other request
  /// is traced and lands in st[1] (and may be kept for the replay).
  void run(double deadline, span_log* log, std::array<tenant_stats, 2>& st) {
    for (std::uint64_t k = 0; now_s() < deadline; ++k) {
      const bool traced = log != nullptr && k % 2 == 1;
      const req_type t = next_type();
      (void)request(t, st[traced ? 1 : 0], traced ? log : nullptr);
    }
  }

  /// One request of type t; false when it failed or its output was wrong.
  bool request(req_type t, tenant_stats& st, span_log* log) {
    ++st.requests;
    try {
      if (!cl_ || in_session_ == kSessionRequests) {
        cl_.reset();
        const scoped_span sp(log, "wire.connect", 0);
        const double t0 = now_s();
        cl_.emplace("127.0.0.1", port_);
        st.connect_s.push_back(now_s() - t0);
        in_session_ = 0;
        ++st.sessions;
      }
      ++in_session_;
      const bool ok = issue(t, st, log);
      if (!ok) ++st.failed;
      return ok;
    } catch (const std::exception&) {
      ++st.failed;
      cl_.reset();
      return false;
    }
  }

 private:
  bool issue(req_type t, tenant_stats& st, span_log* log) {
    sample smp;
    smp.type = t;
    smp.client = client_;
    const bool keep = log != nullptr && kept_[t] < (t == kStream ? 2 : 3);
    const scoped_span sp(log, kType[t].name,
                         (static_cast<std::uint64_t>(index_ + 1) << 32) | ++requests_);
    double t0 = 0.0;
    double t1 = 0.0;
    std::uint64_t items = 0;
    bool valid = false;
    double c0 = 0.0;
    switch (t) {
      case kFetch4k:
      case kFetch50k: {
        t0 = now_s();
        smp.out = cl_->fetch_permutation(client_, kType[t].n, &smp.ordinal);
        t1 = now_s();
        c0 = thread_cpu_s();
        valid = smp.out.size() == kType[t].n && is_permutation_of_iota(smp.out);
        items = kType[t].n;
        break;
      }
      case kShuffle16: {
        if (keep) smp.in16 = recs_;
        t0 = now_s();
        cl_->shuffle(client_, std::span<rec16>(recs_), &smp.ordinal);
        t1 = now_s();
        c0 = thread_cpu_s();
        valid = recs_check_.next(hash_records(recs_));
        if (keep) smp.out16 = recs_;
        items = kRecords;
        break;
      }
      case kShard:
      case kStream: {
        const std::uint64_t n = t == kShard ? kShardDomain : kHeavyItems;
        smp.shard = t == kShard ? cgp::rng::uniform_below(order_, kShards) : 0;
        t0 = now_s();
        svc::remote_stream rs = t == kShard ? cl_->open_shard(client_, n, smp.shard, kShards)
                                            : cl_->open_stream(client_, n);
        smp.out.resize(rs.size());
        std::uint64_t got = 0;
        while (got < rs.size()) {
          const std::size_t take =
              static_cast<std::size_t>(std::min<std::uint64_t>(kPullItems, rs.size() - got));
          const std::size_t r = rs.read(std::span<std::uint64_t>(smp.out).subspan(got, take));
          if (r == 0) break;
          got += r;
        }
        t1 = now_s();
        rs.close();
        c0 = thread_cpu_s();
        smp.ordinal = rs.ordinal();
        valid = got == rs.size() && (t == kShard ? valid_window(smp.out, kShardDomain)
                                                 : is_permutation_of_iota(smp.out));
        items = got;
        break;
      }
      default:
        break;
    }
    if (!valid) return false;
    st.records.push_back({t0, t1, items, t, thread_cpu_s() - c0});
    if (keep) {
      ++kept_[t];
      st.samples.push_back(std::move(smp));
    }
    return true;
  }

  int index_;
  std::uint16_t port_;
  std::optional<svc::wire_client> cl_;
  std::uint64_t client_;
  cgp::rng::philox4x64 order_;
  std::vector<int> block_;
  std::size_t at_ = 0;
  int in_session_ = 0;
  std::uint64_t requests_ = 0;
  std::array<int, kTypes> kept_{};
  std::vector<rec16> recs_;
  in_place_check recs_check_;
};

svc::wire_server_options server_options(std::uint64_t seed) {
  svc::wire_server_options wo;
  wo.svc.memory_budget_bytes = kBudgetBytes;
  wo.svc.seed = sub_seed(seed, 0);
  return wo;
}

/// Runs every tenant on its own thread until `seconds` have passed; st[0]
/// collects untraced requests, st[1] traced ones.
std::array<tenant_stats, 2> run_tenants(std::vector<tenant>& ts, double seconds, span_log* log) {
  std::vector<std::array<tenant_stats, 2>> per(ts.size());
  // Threads hold references into `ts` and `per`: neither may reallocate.
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    threads.emplace_back([&, i] { ts[i].run(t0 + seconds, log, per[i]); });
  }
  for (auto& t : threads) t.join();
  std::array<tenant_stats, 2> all;
  for (auto& p : per) {
    for (int h = 0; h < 2; ++h) {
      all[h].records.insert(all[h].records.end(), p[h].records.begin(), p[h].records.end());
      all[h].connect_s.insert(all[h].connect_s.end(), p[h].connect_s.begin(), p[h].connect_s.end());
      all[h].requests += p[h].requests;
      all[h].failed += p[h].failed;
      all[h].sessions += p[h].sessions;
      for (auto& s : p[h].samples) all[h].samples.push_back(std::move(s));
    }
  }
  return all;
}

core::workload workload_of(std::uint64_t n, std::uint32_t elem_bytes) {
  core::workload w;
  w.n = n;
  w.element_bytes = elem_bytes;
  w.memory_budget_bytes = kBudgetBytes;
  return w;
}

/// Re-executes the kept requests through core's executor, em and prp under
/// job_seed(server_seed, client, ordinal); every result must equal the
/// bytes the wire delivered.
void replay(svc::wire_server& srv, const std::vector<sample>& samples, report& rep,
            span_log* log, double& fetch4k_exec_s) {
  const svc::server& server = srv.service();
  const cgp::context& ctx = server.ctx();
  std::array<bool, kTypes> same;
  same.fill(true);
  std::array<int, kTypes> seen{};
  std::vector<double> fetch4k_s;
  std::vector<double> em_s;
  std::vector<double> prp_s;
  double em_transfers = 0.0;
  std::uint32_t em_levels = 0;
  cgp::prp::eval_stats prp_stats;
  std::uint64_t request = 2'000'000'000;
  for (const sample& s : samples) {
    ++seen[s.type];
    const std::uint64_t seed = svc::job_seed(server.options().seed, s.client, s.ordinal);
    const core::backend_options o = ctx.execution_options(seed);
    const core::permutation_plan plan =
        core::cached_plan(workload_of(kType[s.type].n, kType[s.type].elem_bytes), *o.profile);
    const scoped_span req(log, "replay.request", ++request);
    switch (s.type) {
      case kFetch4k:
      case kFetch50k: {
        std::vector<std::uint64_t> out(kType[s.type].n);
        const scoped_span sp(log, "core.executor.fill_random_permutation", request);
        const double t0 = now_s();
        core::make_executor(plan, o)->fill_random_permutation(out, seed);
        if (s.type == kFetch4k) fetch4k_s.push_back(now_s() - t0);
        same[s.type] = same[s.type] && out == s.out;
        break;
      }
      case kShuffle16: {
        std::vector<rec16> out = s.in16;
        const scoped_span sp(log, "core.executor.shuffle_raw", request);
        core::make_executor(plan, o)->shuffle_raw(out.data(), out.size(), sizeof(rec16), seed);
        same[s.type] = same[s.type] && out == s.out16;
        break;
      }
      case kShard: {
        const cgp::prp::cipher c(seed, kShardDomain, o.prp_engine);
        const cgp::prp::shard_range r = cgp::prp::shard_bounds(kShardDomain, s.shard, kShards);
        std::vector<std::uint64_t> out(r.size());
        const scoped_span sp(log, "prp.cipher.eval_range", request);
        const double t0 = now_s();
        c.eval_range(r.lo, out, &prp_stats);
        prp_s.push_back((now_s() - t0) / static_cast<double>(r.size()));
        same[s.type] = same[s.type] && out == s.out;
        break;
      }
      case kStream: {
        cgp::em::async_report er;
        std::unique_ptr<cgp::em::block_device> dev;
        {
          const scoped_span sp(log, "core.em_shuffled_identity_device", request);
          const double t0 = now_s();
          dev = core::em_shuffled_identity_device(kHeavyItems, seed,
                                                  core::resolve_em_config(plan, o), &er);
          em_s.push_back((now_s() - t0) / static_cast<double>(kHeavyItems));
        }
        std::vector<std::uint64_t> out(kHeavyItems);
        dev->read_items(0, out);
        same[s.type] = same[s.type] && out == s.out;
        em_transfers = static_cast<double>(er.block_transfers) / static_cast<double>(kHeavyItems);
        em_levels = er.levels;
        break;
      }
      default:
        break;
    }
  }
  for (int t = 0; t < kTypes; ++t) {
    rep.check(std::string("replay.") + kType[t].name + "_vs_wire", same[t] && seen[t] > 0,
              std::to_string(seen[t]) + " sampled");
  }
  fetch4k_exec_s = median(fetch4k_s);
  rep.metric("core.exec_ns_per_item.fetch4k", fetch4k_exec_s * 1e9 / kType[kFetch4k].n, "ns",
             fetch4k_s.size());
  rep.metric("em.ns_per_item", median(em_s) * 1e9, "ns", em_s.size());
  rep.metric("em.transfers_per_item", em_transfers, "count", em_s.size());
  rep.metric("em.levels", em_levels, "count", em_s.size());
  rep.metric("prp.eval_ns", median(prp_s) * 1e9, "ns", prp_s.size());
  rep.metric("prp.walk_retries_per_eval",
             prp_stats.evals == 0 ? 0.0
                                  : static_cast<double>(prp_stats.walk_retries) /
                                        static_cast<double>(prp_stats.evals),
             "ratio", prp_stats.evals);
}

/// Light tenants' server-side job latency quantile, from the server's
/// per-tenant histograms (median over the three light tenants), in ms.
std::pair<double, std::uint64_t> light_job_quantile(const svc::server& server, double q) {
  std::vector<double> per;
  std::uint64_t count = 0;
  std::uint64_t min_count = ~std::uint64_t{0};
  for (const auto& [label, h] : server.tenant_latency_histograms().entries()) {
    for (int t = 0; t + 1 < kTenants; ++t) {
      if (label != client_id(t, true)) continue;
      per.push_back(static_cast<double>(h->quantile(q)) * 1e-6);
      count += h->count();
      min_count = std::min<std::uint64_t>(min_count, h->count());
    }
  }
  if (per.size() != kTenants - 1 || min_count == 0 || samples_beyond(min_count, q) < (q > 0.5 ? 10u : 0u)) {
    return {0.0, 0};
  }
  return {median(per), count};
}

}  // namespace

int run_wire_tenants(const run_config& cfg, report& rep) {
  std::optional<svc::wire_server> srv;
  host_warmup(cfg.host_warmup_seconds);
  {
    const double t0 = now_s();
    srv.emplace(server_options(cfg.seed));
    tenant light(0, srv->port(), sub_seed(cfg.seed, 300), false);
    tenant heavy(kTenants - 1, srv->port(), sub_seed(cfg.seed, 301), false);
    tenant_stats st;
    bool ok = true;
    for (int t = 0; t < kTypes; ++t) {
      ok = (t == kStream ? heavy : light).request(static_cast<req_type>(t), st, nullptr) && ok;
    }
    report_setup(rep, now_s() - t0);
    rep.check("setup.requests", ok);
  }
  if (cfg.setup_only) return 0;
  host_info(rep);
  const svc::server& server = srv->service();
  for (int t = 0; t < kTypes; ++t) {
    rep.info(std::string("plan.") + kType[t].name,
             t == kShard ? "backend=prp (shard job)"
                         : plan_text(core::cached_plan(
                               workload_of(kType[t].n, kType[t].elem_bytes), server.profile())));
  }

  {
    std::vector<tenant> warm;
    warm.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      warm.emplace_back(t, srv->port(), sub_seed(cfg.seed, 310 + t), false);
    }
    const auto w = run_tenants(warm, cfg.warmup_seconds, nullptr);
    rep.check("warmup.failed", w[0].failed == 0, std::to_string(w[0].failed) + " failed");
  }
  host_guard guard;
  guard.before();
  span_log log;
  const svc::server_stats s0 = server.stats();
  const std::size_t lookups0 = core::plan_cache_lookups();
  const std::size_t hits0 = core::plan_cache_hits();
  const double vm0 = proc_status_kib("VmSize");
  std::vector<tenant> ts;
  ts.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    ts.emplace_back(t, srv->port(), sub_seed(cfg.seed, 320 + t), true);
  }
  std::array<tenant_stats, 2> st = run_tenants(ts, cfg.seconds, cfg.trace ? &log : nullptr);
  const double vm1 = proc_status_kib("VmSize");
  const svc::server_stats s1 = server.stats();
  const std::size_t lookups = core::plan_cache_lookups() - lookups0;
  const std::size_t hits = core::plan_cache_hits() - hits0;
  guard.after();

  const std::uint64_t requests = st[0].requests + st[1].requests;
  const std::uint64_t failed = st[0].failed + st[1].failed;
  const std::uint64_t sessions = st[0].sessions + st[1].sessions;
  std::vector<request_record> all = st[0].records;
  all.insert(all.end(), st[1].records.begin(), st[1].records.end());
  const quiet_figures q = quiet_share(guard.slices(), all, kTypes);
  report_rates(rep, q, false);
  const std::vector<double> fetch4k_s = latencies(st[0].records, kFetch4k);
  report_latency(rep, "small_p50_ms", q.latency_s[kFetch4k], 0.5);
  report_latency(rep, "small_p99_ms", fetch4k_s, 0.99);
  report_latency(rep, "large_p50_ms", q.latency_s[kStream], 0.5);
  for (int t = 0; t < kTypes; ++t) {
    const std::vector<double> v = latencies(all, t);
    rep.info(std::string("latency.") + kType[t].name,
             "p50_ms=" + std::to_string(quantile(v, 0.5) * 1e3) + " samples=" +
                 std::to_string(v.size()));
  }
  guard.report_to(rep);
  rep.info("sessions", std::to_string(sessions));
  rep.check("outputs.valid", failed == 0, std::to_string(failed) + " failed or invalid");
  rep.metric("failed_frac", static_cast<double>(failed) / static_cast<double>(requests), "ratio",
             requests);

  if (cfg.trace) {
    rep.metric("obs.trace_overhead_frac", trace_overhead(st[0].records, st[1].records, kTypes),
               "ratio", st[1].records.size());
    const double p50_u = quantile(fetch4k_s, 0.5);
    double fetch4k_exec_s = 0.0;
    replay(*srv, st[1].samples, rep, &log, fetch4k_exec_s);
    const auto [job_p50, n50] = light_job_quantile(server, 0.5);
    const auto [job_p99, n99] = light_job_quantile(server, 0.99);
    rep.metric("svc.job_p50_ms", job_p50, "ms", n50);
    rep.metric("svc.job_p99_ms", job_p99, "ms", n99);
    rep.metric("svc.queue_wait_p99_ms", job_p99 - fetch4k_exec_s * 1e3, "ms", n99);
    const std::uint64_t batches = s1.sched.batches - s0.sched.batches;
    rep.metric("svc.jobs_per_batch",
               batches == 0 ? 0.0
                            : static_cast<double>(s1.sched.batched_jobs - s0.sched.batched_jobs) /
                                  static_cast<double>(batches),
               "ratio", batches);
    std::vector<double> connect = st[0].connect_s;
    connect.insert(connect.end(), st[1].connect_s.begin(), st[1].connect_s.end());
    rep.metric("wire.connect_ms", median(connect) * 1e3, "ms", connect.size());
    rep.metric("wire.overhead_ms", p50_u * 1e3 - job_p50, "ms", fetch4k_s.size());
    rep.metric("wire.vmsize_mb_per_ksession",
               sessions == 0 ? 0.0 : (vm1 - vm0) / 1024.0 / static_cast<double>(sessions) * 1000.0,
               "MiB", sessions);
    rep.metric("core.plan_us",
               median_seconds(101, [&] {
                 (void)core::cached_plan(workload_of(4096, 8), server.profile());
               }) * 1e6,
               "us", 101);
    rep.metric("core.plan_cache_hit_rate",
               lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
               "ratio", lookups);
    seq_yardstick(sub_seed(cfg.seed, 6), rep, &log);
    hyp_yardstick(sub_seed(cfg.seed, 7), rep, &log);
    report_bypassed(rep, local_mix_only_metrics());
    report_bypassed(rep, dist_only_metrics());
    dump_spans(log, cfg.trace_out, rep);
  }
  srv.reset();
  rep.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  rep.requests(requests, failed);
  return 0;
}

}  // namespace perfbench
