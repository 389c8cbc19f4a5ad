// smp/thread_pool.hpp
//
// A fixed-size worker pool: the execution substrate of the native
// shared-memory permutation engine (smp/engine.hpp).  Contrast with
// cgm::machine: the virtual machine *counts* the paper's model quantities on
// p simulated processors, while this pool simply runs p real threads as fast
// as the hardware allows -- no cost accounting, no message copies, no
// superstep barriers.
//
// Determinism contract: the pool never touches randomness.  Callers that
// need bit-reproducible output (the SMP engine does) must derive every
// random stream from (seed, task index), never from the executing thread, so
// the result is independent of the pool size and of scheduling.
//
// NUMA awareness: on Linux hosts with more than one NUMA node, workers are
// pinned in contiguous groups to the nodes (worker i serves node
// i * nodes / size()), and `parallel_for` posts chunk `part` to the local
// queue of worker `part % size()` -- so across the repeated passes of a
// recursive split, chunk c is always executed by the same worker, on the
// same node, and the pages c's first pass faulted in (first-touch policy)
// stay node-local for every later pass.  A range of one part runs on the
// caller instead, so its pages fault in on the caller's node.  Idle
// workers steal from other queues, so placement is a preference, never a
// stall; stealing can move a chunk off its home node but cannot change any
// output (see the determinism contract above).  Single-node hosts and
// non-Linux builds skip pinning entirely; `CGP_NUMA=off` (or `0`) disables
// it explicitly.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace cgp::smp {

class thread_pool {
 public:
  /// Start `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit thread_pool(unsigned threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] unsigned size() const noexcept;

  /// True iff the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Number of NUMA node groups the workers are pinned across (1 on
  /// single-node hosts, non-Linux builds, or under CGP_NUMA=off).
  [[nodiscard]] unsigned numa_node_count() const noexcept;

  /// The node group worker `worker` is pinned to (0 when unpinned).
  [[nodiscard]] unsigned worker_node(unsigned worker) const noexcept;

  /// Enqueue `fn` for execution on a worker; the future carries its result
  /// (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Run `body(lo, hi)` over a balanced static partition of [begin, end)
  /// into size() contiguous chunks, one per worker, and wait for all of
  /// them.  The partition depends only on size(), not on scheduling.
  /// Called from a worker thread of this pool (nested parallelism), the body
  /// runs inline as body(begin, end) -- a fixed pool cannot wait for itself
  /// without risking deadlock.  A partition of one part (a one-item range
  /// or a one-worker pool) runs inline too, on the calling thread.  The
  /// first exception thrown by any chunk is rethrown to the caller after
  /// all chunks finish.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void post(std::function<void()> task);
  void post_local(unsigned worker, std::function<void()> task);
  void worker_loop(unsigned index);

  struct state;
  std::unique_ptr<state> state_;
};

}  // namespace cgp::smp
