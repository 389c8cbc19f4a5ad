#include "layers.hpp"

#include <algorithm>
#include <numeric>

#include "core/context.hpp"
#include "core/sample_matrix.hpp"
#include "rng/counting.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/parallel_split.hpp"

namespace perfbench {

namespace rng = cgp::rng;

kernel_run seq_kernel(std::span<const std::uint64_t> in, std::uint64_t seed,
                      std::uint64_t stream, std::span<const std::uint64_t> expect, int reps,
                      span_log* log, std::uint64_t request) {
  kernel_run out;
  std::vector<std::uint64_t> v(in.begin(), in.end());
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    std::copy(in.begin(), in.end(), v.begin());
    const scoped_span sp(log, "seq.fisher_yates", request);
    const double t0 = now_s();
    rng::batched_philox e(seed, stream);
    cgp::seq::fisher_yates(e, std::span<std::uint64_t>(v));
    secs.push_back(now_s() - t0);
  }
  out.ns_per_item = median(secs) * 1e9 / static_cast<double>(in.size());
  out.identical = std::equal(v.begin(), v.end(), expect.begin(), expect.end());

  std::copy(in.begin(), in.end(), v.begin());
  rng::counting_engine<rng::batched_philox> counted(rng::batched_philox(seed, stream));
  cgp::seq::fisher_yates(counted, std::span<std::uint64_t>(v));
  out.words_per_item = static_cast<double>(counted.count()) / static_cast<double>(in.size());
  return out;
}

void seq_yardstick(std::uint64_t seed, report& rep, span_log* log) {
  std::vector<std::uint64_t> in(kSmallItems);
  std::iota(in.begin(), in.end(), 0);
  std::vector<std::uint64_t> expect = in;
  cgp::context_options co;
  co.which = cgp::core::backend::sequential;
  const cgp::context ctx(co);
  (void)ctx.shuffle(std::span<std::uint64_t>(expect), seed);
  // backend::sequential draws from philox(seed, 0).
  const kernel_run k = seq_kernel(in, seed, 0, expect, 9, log, 0);
  rep.metric("seq.kernel_ns_per_item.small", k.ns_per_item, "ns", 9);
  rep.metric("rng.words_per_item", k.words_per_item, "words", 1);
  rep.check("replay.seq_kernel_vs_sequential", k.identical);
}

void hyp_yardstick(std::uint64_t seed, report& rep, span_log* log) {
  const cgp::smp::split_options sopt;  // the engines' default law
  cgp::smp::split_plan plan;
  const int reps = 21;
  const double s = median_seconds(reps, [&] {
    const scoped_span sp(log, "hyp.make_split_plan");
    plan = cgp::smp::make_split_plan(kLargeItems, seed, cgp::smp::kShuffleRoot, sopt);
  });
  rep.metric("hyp.matrix_us", s * 1e6, "us", reps);

  rng::counting_engine<rng::philox4x64> counted(cgp::smp::detail::node_engine(
      seed, cgp::smp::kShuffleRoot, cgp::smp::detail::kMatrixSalt));
  const cgp::core::comm_matrix a =
      cgp::core::sample_matrix_rowwise(counted, plan.margins, plan.margins, sopt.sampling);
  const auto draws = cgp::core::matrix_hyp_call_count(plan.k, plan.k);
  rep.metric("hyp.words_per_draw",
             static_cast<double>(counted.count()) / static_cast<double>(draws), "words", draws);
  bool same = true;
  for (std::uint32_t i = 0; i < plan.k; ++i)
    for (std::uint32_t j = 0; j < plan.k; ++j) same = same && a(i, j) == plan.a(i, j);
  rep.check("replay.hyp_matrix_vs_split_plan", same);
}

void report_bypassed(report& rep,
                     const std::vector<std::pair<std::string, std::string>>& name_unit) {
  for (const auto& [name, unit] : name_unit) rep.metric(name, 0.0, unit, 0);
}

std::vector<std::pair<std::string, std::string>> local_mix_only_metrics() {
  return {{"core.exec_over_kernel.small", "ratio"},
          {"core.exec_over_kernel.wide16", "ratio"},
          {"smp.leaf_parallelism", "ratio"}};
}

std::vector<std::pair<std::string, std::string>> wire_only_metrics() {
  return {{"core.plan_cache_hit_rate", "ratio"}, {"em.transfers_per_item", "count"},
          {"em.levels", "count"},                {"prp.walk_retries_per_eval", "ratio"},
          {"svc.jobs_per_batch", "ratio"},       {"wire.vmsize_mb_per_ksession", "MiB"}};
}

std::vector<std::pair<std::string, std::string>> dist_only_metrics() {
  return {{"comm.supersteps", "count"},        {"comm.frames_per_shuffle", "count"},
          {"comm.messages_per_shuffle", "count"}, {"comm.wire_bytes_per_item", "B"},
          {"cgm.rank_imbalance", "ratio"},     {"cgm.move_bytes_per_item", "B"},
          {"cgm.gather_bytes_per_item", "B"},  {"cgm.h_relation_ratio", "ratio"},
          {"cgm.over_smp", "ratio"}};
}

void dump_spans(const span_log& log, const std::string& path, report& rep) {
  const std::vector<span_record> spans = log.spans();
  rep.info("spans", std::to_string(spans.size()));
  for (const auto& [name, s] : self_time_by_name(spans)) {
    rep.info("self_ms." + name, std::to_string(s * 1e3));
  }
  if (path.empty()) return;
  rep.check("trace.write", log.write_json(path), path);
}

}  // namespace perfbench
