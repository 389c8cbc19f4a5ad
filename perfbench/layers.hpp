// perfbench/layers.hpp
//
// Layer measurements shared by every workload's traced run: the seq/rng
// kernel floor and the hyp matrix sampler, each timed through the layer's
// public function and checked bit-identical against an entry point.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Items of the `small` request shape (below the 65,536-item leaf cutoff).
inline constexpr std::uint64_t kSmallItems = 50'000;
/// Items of the `large` request shape, whose root split hyp is timed on.
inline constexpr std::uint64_t kLargeItems = 6'000'000;

struct kernel_run {
  double ns_per_item = 0.0;     ///< median over reps
  double words_per_item = 0.0;  ///< random words drawn per item
  bool identical = false;       ///< output == `expect`
};

/// seq::fisher_yates over rng::batched_philox(seed, stream) on a copy of
/// `in`: the typed kernel every leaf runs.  Its output must equal `expect`,
/// the entry point's result on the same input.
[[nodiscard]] kernel_run seq_kernel(std::span<const std::uint64_t> in, std::uint64_t seed,
                                    std::uint64_t stream,
                                    std::span<const std::uint64_t> expect, int reps,
                                    span_log* log, std::uint64_t request);

/// Emits seq.kernel_ns_per_item.small, rng.words_per_item and the kernel's
/// replay check on `small`-shaped data, against backend::sequential.
void seq_yardstick(std::uint64_t seed, report& rep, span_log* log);

/// Emits hyp.matrix_us (smp::make_split_plan at the root of `large`),
/// hyp.words_per_draw (core::sample_matrix_rowwise on the same margins) and
/// the check that both sample the same matrix.
void hyp_yardstick(std::uint64_t seed, report& rep, span_log* log);

/// Reports the metrics of layers a workload never calls into as 0 (counts
/// and ratios only: a layer it bypasses does no work there).
void report_bypassed(report& rep,
                     const std::vector<std::pair<std::string, std::string>>& name_unit);

/// The bypassed-layer metrics, by layer.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> local_mix_only_metrics();
[[nodiscard]] std::vector<std::pair<std::string, std::string>> wire_only_metrics();
[[nodiscard]] std::vector<std::pair<std::string, std::string>> dist_only_metrics();

/// Reports the self time of every span name, writes the span log to `path`
/// (when set) and reports the check.
void dump_spans(const span_log& log, const std::string& path, report& rep);

}  // namespace perfbench
