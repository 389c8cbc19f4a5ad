// core/driver.hpp
//
// The simulator's whole-vector driver: scatter a global vector over the
// virtual machine's processors, run Algorithm 1, gather the permuted
// vector back, and report the run's exact resource accounting.
//
// This is how the paper experiments reach the model-counting simulator
// (cgm::machine + core/permute.hpp); it is not part of the production
// dispatch, which never includes it.  Production code calls
// `cgp::context::shuffle` (core/context.hpp), whose `backend::cgm` runs
// the distributed engine over the same transports.  SPMD code on
// already-distributed data calls `parallel_random_permutation`
// (simulator, counted) or `cgm::distributed_shuffle` (native, over any
// comm::endpoint) directly.
#pragma once

#include <cstdint>
#include <vector>

#include "cgm/machine.hpp"
#include "core/permute.hpp"
#include "util/assert.hpp"
#include "util/prefix.hpp"

namespace cgp::core {

/// Permute `data` uniformly at random using machine `mach` (p virtual
/// processors; data is dealt into balanced blocks).  Returns the permuted
/// vector; `stats_out`, if given, receives the run's resource accounting.
template <typename T>
[[nodiscard]] std::vector<T> permute_global(cgm::machine& mach, const std::vector<T>& data,
                                            const permute_options& opt = {},
                                            cgm::run_stats* stats_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint32_t p = mach.nprocs();
  const std::uint64_t n = data.size();
  std::vector<T> result(data.size());

  // Equal blocks let the parallel matrix samplers (Algorithms 5/6) run --
  // they cover the symmetric case m_i = m'_j = n/p the paper focuses on.
  // When p does not divide n the balanced blocks differ by one item, so we
  // fall back to the general-margins pipeline (Problem 1), which samples the
  // matrix with the replicated sequential algorithm instead.
  const bool equal = (n % p == 0);

  // The "scatter" of the driver: deal the global vector into per-processor
  // blocks *before* entering the SPMD region.  The SPMD body then only
  // moves its own O(n/p) block instead of holding a reference to the whole
  // global vector -- on a real distributed machine the body could not see
  // `data` at all, so the simulated body must not depend on it either (and
  // the deal-out now happens outside the simulated/timed region).
  std::vector<std::vector<T>> blocks(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    const std::uint64_t off = balanced_block_offset(n, p, i);
    const std::uint64_t len = balanced_block_size(n, p, i);
    blocks[i].assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                     data.begin() + static_cast<std::ptrdiff_t>(off + len));
  }

  auto stats = mach.run([&](cgm::context& ctx) {
    const std::uint64_t off = balanced_block_offset(n, p, ctx.id());
    const std::uint64_t len = balanced_block_size(n, p, ctx.id());
    std::vector<T> local = std::move(blocks[ctx.id()]);
    CGP_ASSERT(local.size() == len);

    std::vector<T> permuted =
        equal ? parallel_random_permutation(ctx, std::move(local), opt)
              : parallel_random_permutation_general(ctx, std::move(local), len, opt.sampling);

    // Blocks are disjoint slices of `result`, so direct writes are
    // race-free (this is the "gather" of the driver, free of charge).
    std::copy(permuted.begin(), permuted.end(),
              result.begin() + static_cast<std::ptrdiff_t>(off));
  });
  if (stats_out != nullptr) *stats_out = std::move(stats);
  return result;
}

/// Sample a uniform random permutation pi of {0..n-1} with the parallel
/// pipeline; returns pi as a vector (pi[i] = image of i).
[[nodiscard]] inline std::vector<std::uint64_t> random_permutation_global(
    cgm::machine& mach, std::uint64_t n, const permute_options& opt = {},
    cgm::run_stats* stats_out = nullptr) {
  std::vector<std::uint64_t> iota(n);
  for (std::uint64_t i = 0; i < n; ++i) iota[i] = i;
  return permute_global(mach, iota, opt, stats_out);
}

}  // namespace cgp::core
