// local_mix -- the library path.  One caller thread, one cgp::context
// (automatic backend, default parallelism), shuffling caller-owned arrays
// in place in a seeded order.  The time goes to core dispatch, the smp
// split and leaves, and seq/rng; svc, wire, em, prp and comm are bypassed.
//
// Working sets, against the host's LLC (printed as info llc_mib; 300 MiB on
// the reference VM, shared with other guests -- so this is not a DRAM
// bandwidth measurement): small 0.4 MB, mid 8 MB, large 46 MiB + equal
// scratch, wide16 31 MiB + equal scratch.
#include <array>
#include <mutex>
#include <numeric>
#include <type_traits>

#include "core/context.hpp"
#include "layers.hpp"
#include "smp/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = cgp::core;
namespace smp = cgp::smp;

struct shape {
  const char* name;
  std::uint64_t n;
  std::uint32_t elem_bytes;
  const char* span_name;
};

enum shape_id : int { kSmall, kMid, kLarge, kWide16, kShapes };

constexpr std::array<shape, kShapes> kShape = {{
    {"small", kSmallItems, 8, "core.shuffle.small"},   // below the leaf cutoff: seq
    {"mid", 1'000'003, 8, "core.shuffle.mid"},         // one split level
    {"large", kLargeItems, 8, "core.shuffle.large"},   // two split levels
    {"wide16", 2'000'000, 16, "core.shuffle.wide16"},  // 16-byte records
}};

/// Calls of each shape per block, about inversely proportional to the
/// bytes a call permutes, so every shape takes a comparable share of the
/// time.  Fixed, never derived from a measurement: a faster library cannot
/// change the mix.  Phases run whole blocks, so every run has the same
/// composition.
constexpr std::array<int, kShapes> kPerBlock = {240, 12, 2, 3};

bool same_plan(const core::permutation_plan& a, const core::permutation_plan& b) {
  return a.chosen == b.chosen && a.threads == b.threads && a.split_levels == b.split_levels &&
         a.em_memory_items == b.em_memory_items && a.em_block_items == b.em_block_items &&
         a.em_fan_out == b.em_fan_out && a.em_levels == b.em_levels;
}

struct phase_stats {
  std::vector<request_record> records;  ///< type = shape
  std::uint64_t invalid = 0;
};

class mix {
 public:
  explicit mix(std::uint64_t seed) : seed_(seed), order_(sub_seed(seed, 1), 0) {
    for (int s = kSmall; s <= kLarge; ++s) {
      u64_[s].resize(kShape[s].n);
      std::iota(u64_[s].begin(), u64_[s].end(), 0);
    }
    wide_.resize(kShape[kWide16].n);
    for (std::uint64_t i = 0; i < wide_.size(); ++i) wide_[i] = make_rec16(i);
    for (int s = 0; s < kShapes; ++s) check_[s] = in_place_check(current_hashes(s).value());
  }

  /// The shapes of the next block, in seeded order.
  [[nodiscard]] std::vector<int> next_block() { return seeded_block(kPerBlock, order_); }

  /// The request seed of call k.
  [[nodiscard]] std::uint64_t request_seed(std::uint64_t k) const {
    return sub_seed(seed_, 1'000'000 + k);
  }

  /// Entry point: ctx.shuffle on shape s under `rseed`.
  core::permutation_plan shuffle(const cgp::context& ctx, int s, std::uint64_t rseed) {
    if (s == kWide16) return ctx.shuffle(std::span<rec16>(wide_), rseed);
    return ctx.shuffle(std::span<std::uint64_t>(u64_[s]), rseed);
  }

  /// Validates shape s after a shuffle: same multiset, new order.
  bool validate(int s) { return check_[s].next(current_hashes(s)); }

  /// One request on shape s; plans are checked against the first plan of
  /// their shape.
  void request(const cgp::context& ctx, int s, phase_stats& st, span_log* log) {
    const std::uint64_t k = calls_++;
    const double t0 = now_s();
    core::permutation_plan plan;
    {
      const scoped_span sp(log, kShape[s].span_name, k + 1);
      plan = shuffle(ctx, s, request_seed(k));
    }
    const double t1 = now_s();
    const double c0 = thread_cpu_s();
    if (!validate(s)) ++st.invalid;
    note_plan(s, plan);
    st.records.push_back({t0, t1, kShape[s].n, s, thread_cpu_s() - c0});
    if (sampling_ && sampled_[s].size() < 3) sampled_[s].push_back(request_seed(k));
  }

  void note_plan(int s, const core::permutation_plan& p) {
    if (!plan_[s]) {
      plan_[s] = p;
    } else if (!same_plan(*plan_[s], p)) {
      ++plan_changes_;
    }
  }

  [[nodiscard]] std::optional<hashes> current_hashes(int s) const {
    if (s == kWide16) return hash_records(wide_);
    return hash_values(u64_[s]);
  }

  std::array<std::vector<std::uint64_t>, 3> u64_;
  std::vector<rec16> wide_;
  std::array<std::optional<core::permutation_plan>, kShapes> plan_;
  std::array<std::vector<std::uint64_t>, kShapes> sampled_;  ///< replay seeds
  std::uint64_t plan_changes_ = 0;
  bool sampling_ = false;  ///< record replay seeds (the traced phase)

 private:
  std::uint64_t seed_;
  cgp::rng::philox4x64 order_;
  std::array<in_place_check, kShapes> check_;
  std::uint64_t calls_ = 0;
};

/// Runs whole blocks of the mix until `seconds` have passed.  With a span
/// log, every other request is traced and lands in stats[1]; the rest
/// (all, untraced) in stats[0].
std::array<phase_stats, 2> run_phase(mix& m, const cgp::context& ctx, double seconds,
                                     span_log* log) {
  std::array<phase_stats, 2> st;
  const double t0 = now_s();
  std::uint64_t k = 0;
  while (now_s() - t0 < seconds) {
    for (const int s : m.next_block()) {
      const bool traced = log != nullptr && k++ % 2 == 1;
      m.request(ctx, s, st[traced ? 1 : 0], traced ? log : nullptr);
    }
  }
  return st;
}

struct shape_replay {
  std::vector<double> exec_s, kernel_s, split_s, leaf_s, plan_s;
  double task_s = 0.0;       ///< summed bucket-task seconds
  double leaf_wall_s = 0.0;  ///< summed leaf-phase wall seconds
  double words_per_item = 0.0;
  bool exec_same = true, kernel_same = true, smp_same = true;
};

/// smp layer: the root split on the shared engine's pool, then the
/// per-bucket subtrees as pool tasks -- engine::shuffle, unrolled.
template <typename T>
void replay_smp(smp::engine& eng, std::span<T> data, std::uint64_t seed, shape_replay& r,
                span_log* log, std::uint64_t request) {
  std::vector<T> scratch(data.size());
  smp::split_options sopt;
  sopt.fan_out = eng.options().fan_out;
  sopt.sampling = eng.options().sampling;
  std::vector<std::uint64_t> off;
  {
    const scoped_span sp(log, "smp.parallel_split", request);
    const double t0 = now_s();
    off = smp::parallel_split(&eng.pool(), data, std::span<T>(scratch), seed, smp::kShuffleRoot,
                              sopt);
    r.split_s.push_back(now_s() - t0);
  }
  const scoped_span leaves(log, "smp.leaves", request);
  std::mutex m;
  const double t0 = now_s();
  eng.pool().parallel_for(0, off.size() - 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const scoped_span task(log, "smp.shuffle_subtree", request, leaves.id());
      const double b0 = now_s();
      const auto blo = static_cast<std::size_t>(off[j]);
      const auto blen = static_cast<std::size_t>(off[j + 1] - off[j]);
      smp::shuffle_subtree(data.subspan(blo, blen), std::span<T>(scratch).subspan(blo, blen), seed,
                           smp::split_child_node(smp::kShuffleRoot, j, sopt.fan_out),
                           eng.options(), nullptr, false);
      const double b = now_s() - b0;
      const std::lock_guard<std::mutex> lock(m);
      r.task_s += b;
    }
  });
  const double lw = now_s() - t0;
  r.leaf_s.push_back(lw);
  r.leaf_wall_s += lw;
}

/// Replays one sampled request (shape s, seed) on the buffer's current
/// contents: ctx.shuffle is the reference; core's executor, the typed
/// kernel and smp's split + leaves must each reproduce it bit for bit.
template <typename T>
void replay_request(const cgp::context& ctx, int s, const std::vector<T>& in, std::uint64_t seed,
                    shape_replay& r, span_log* log, std::uint64_t request) {
  const shape& sh = kShape[s];
  const scoped_span req(log, "replay.request", request);
  std::vector<T> ref = in;
  {
    const scoped_span sp(log, "core.shuffle", request);
    (void)ctx.shuffle(std::span<T>(ref), seed);
  }
  const core::backend_options opt = ctx.execution_options(seed);
  core::permutation_plan plan;
  r.plan_s.push_back(median_seconds(51, [&] {
    const scoped_span sp(log, "core.resolve_plan", request);
    plan = core::resolve_plan(sh.n, sh.elem_bytes, opt);
  }));

  std::vector<T> out = in;
  {
    const scoped_span sp(log, "core.executor.shuffle_raw", request);
    const double t0 = now_s();
    core::make_executor(plan, opt)->shuffle_raw(out.data(), sh.n, sh.elem_bytes, seed);
    r.exec_s.push_back(now_s() - t0);
  }
  r.exec_same = r.exec_same && out == ref;

  if constexpr (std::is_same_v<T, std::uint64_t>) {
    if (s == kSmall) {
      // The leaf stream the plan's executor draws from.
      const std::uint64_t stream =
          plan.chosen == core::backend::smp
              ? smp::detail::node_stream(smp::kShuffleRoot, smp::detail::kLeafSalt, 0)
              : 0;
      const kernel_run k = seq_kernel(in, seed, stream, ref, 5, log, request);
      r.kernel_s.push_back(k.ns_per_item * 1e-9 * static_cast<double>(sh.n));
      r.kernel_same = r.kernel_same && k.identical;
      r.words_per_item = k.words_per_item;
      return;
    }
  }
  if (plan.chosen != core::backend::smp) return;
  smp::engine_options eopt = opt.smp_engine;
  eopt.threads = plan.threads;
  smp::engine& eng = core::shared_engine(eopt);
  if constexpr (std::is_same_v<T, rec16>) {
    // The typed kernel: the same engine on a two-word struct instead of
    // the executor's 16-byte array records.
    out = in;
    std::vector<T> scratch(sh.n);
    const scoped_span sp(log, "smp.shuffle_subtree.typed", request);
    const double t0 = now_s();
    smp::shuffle_subtree(std::span<T>(out), std::span<T>(scratch), seed, smp::kShuffleRoot,
                         eng.options(), &eng.pool(), true);
    r.kernel_s.push_back(now_s() - t0);
    r.kernel_same = r.kernel_same && out == ref;
  }
  if (s != kLarge && s != kWide16) return;
  out = in;
  replay_smp(eng, std::span<T>(out), seed, r, log, request);
  r.smp_same = r.smp_same && out == ref;
}

void report_replay(report& rep, int s, const shape_replay& r) {
  const shape& sh = kShape[s];
  const auto per_item_ns = [&](const std::vector<double>& v) {
    return median(v) * 1e9 / static_cast<double>(sh.n);
  };
  const std::string tag = sh.name;
  const auto samples = static_cast<std::uint64_t>(r.exec_s.size());
  rep.check("replay.sampled." + tag, samples > 0);
  rep.metric("core.exec_ns_per_item." + tag, per_item_ns(r.exec_s), "ns", samples);
  rep.check("replay.executor_vs_ctx_shuffle." + tag, r.exec_same);
  if (s == kSmall || s == kWide16) {
    rep.metric("core.exec_over_kernel." + tag, median(r.exec_s) / median(r.kernel_s), "ratio",
               samples);
    rep.check("replay.kernel_vs_ctx_shuffle." + tag, r.kernel_same && !r.kernel_s.empty());
  }
  if (s == kSmall) {
    rep.metric("seq.kernel_ns_per_item.small", per_item_ns(r.kernel_s), "ns", samples);
    rep.metric("rng.words_per_item", r.words_per_item, "words", 1);
  }
  if (s == kLarge || s == kWide16) {
    rep.metric("smp.split_ns_per_item." + tag, per_item_ns(r.split_s), "ns", samples);
    rep.metric("smp.leaf_ns_per_item." + tag, per_item_ns(r.leaf_s), "ns", samples);
    rep.check("replay.smp_split_leaves_vs_ctx_shuffle." + tag, r.smp_same && !r.split_s.empty());
  }
  if (s == kLarge) {
    rep.metric("smp.leaf_parallelism", r.leaf_wall_s > 0.0 ? r.task_s / r.leaf_wall_s : 0.0,
               "ratio", samples);
  }
}

/// The traced replay over every shape's sampled requests.
void replay(mix& m, const cgp::context& ctx, report& rep, span_log* log) {
  std::uint64_t request = 1'000'000'000;
  std::vector<double> plan_s;
  for (int s = 0; s < kShapes; ++s) {
    shape_replay r;
    for (const std::uint64_t seed : m.sampled_[s]) {
      if (s == kWide16) {
        replay_request(ctx, s, m.wide_, seed, r, log, ++request);
      } else {
        replay_request(ctx, s, m.u64_[s], seed, r, log, ++request);
      }
    }
    report_replay(rep, s, r);
    plan_s.insert(plan_s.end(), r.plan_s.begin(), r.plan_s.end());
  }
  rep.metric("core.plan_us", median(plan_s) * 1e6, "us", plan_s.size());
}

}  // namespace

int run_local_mix(const run_config& cfg, report& rep) {
  mix m(cfg.seed);  // input generation: not part of setup

  cgp::context_options copt;
  copt.seed = sub_seed(cfg.seed, 0);
  host_warmup(cfg.host_warmup_seconds);
  const double t0 = now_s();
  const cgp::context ctx(copt);
  std::array<core::permutation_plan, kShapes> plans;
  for (int s = 0; s < kShapes; ++s) plans[s] = m.shuffle(ctx, s, sub_seed(cfg.seed, 100 + s));
  report_setup(rep, now_s() - t0);
  for (int s = 0; s < kShapes; ++s) {
    rep.check(std::string("setup.valid.") + kShape[s].name, m.validate(s));
    m.note_plan(s, plans[s]);
  }
  if (cfg.setup_only) return 0;
  host_info(rep);
  for (int s = 0; s < kShapes; ++s) {
    const core::permutation_plan& p = *m.plan_[s];
    rep.info(std::string("plan.") + kShape[s].name,
             plan_text(p) + " bytes=" + std::to_string(kShape[s].n * kShape[s].elem_bytes));
  }

  (void)run_phase(m, ctx, cfg.warmup_seconds, nullptr);
  host_guard guard;
  guard.before();
  span_log log;
  m.sampling_ = cfg.trace;
  const std::array<phase_stats, 2> phases =
      run_phase(m, ctx, cfg.seconds, cfg.trace ? &log : nullptr);
  guard.after();
  const phase_stats& st = phases[0];
  const phase_stats* traced = cfg.trace ? &phases[1] : nullptr;

  std::vector<request_record> all = st.records;
  if (traced != nullptr) all.insert(all.end(), traced->records.begin(), traced->records.end());
  const quiet_figures q = quiet_share(guard.slices(), all, kShapes);
  report_rates(rep, q, true);
  report_latency(rep, "small_p50_ms", q.latency_s[kSmall], 0.5);
  report_latency(rep, "small_p99_ms", latencies(st.records, kSmall), 0.99);
  report_latency(rep, "large_p50_ms", q.latency_s[kLarge], 0.5);
  guard.report_to(rep);
  for (int s = 0; s < kShapes; ++s) {
    rep.info(std::string("calls.") + kShape[s].name, std::to_string(latencies(all, s).size()));
  }
  const std::uint64_t failed = st.invalid + (traced != nullptr ? traced->invalid : 0);
  rep.check("outputs.valid", failed == 0, std::to_string(failed) + " invalid");
  rep.check("plans.stable", m.plan_changes_ == 0,
            std::to_string(m.plan_changes_) + " plan changes within the run");
  const std::uint64_t attempted = all.size();
  rep.metric("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio", attempted);

  if (cfg.trace) {
    rep.metric("obs.trace_overhead_frac", trace_overhead(st.records, traced->records, kShapes),
               "ratio", traced->records.size());
    replay(m, ctx, rep, &log);
    hyp_yardstick(sub_seed(cfg.seed, 7), rep, &log);
    report_bypassed(rep, wire_only_metrics());
    report_bypassed(rep, dist_only_metrics());
    dump_spans(log, cfg.trace_out, rep);
  }
  rep.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  rep.requests(attempted, failed);
  return 0;
}

}  // namespace perfbench
