// svc/scheduler.hpp
//
// The deterministic job scheduler of the permutation service: a bounded
// task queue with admission control, N scheduler workers, and per-tick
// batching of small jobs.
//
//   * Admission: the queue holds at most `queue_capacity` tasks.  A full
//     queue either REJECTS the submission (submit returns false
//     immediately -- the caller surfaces `job_status::rejected`) or
//     BLOCKS the submitting client until space frees, per
//     `admission` policy.  Either way server memory stays bounded by the
//     queue capacity; load never turns into unbounded buffering.
//
//   * Scheduling tick: a worker that wakes always services the task at
//     the HEAD of the queue -- the fairness bound that keeps a sustained
//     small-job stream from starving a large job.  With a small task at
//     the head, the tick drains up to `kBatchMaxJobs` SMALL tasks (in
//     submission order) and executes them as ONE pool dispatch --
//     `thread_pool::parallel_for` over the batch -- so k queued small
//     jobs cost one dispatch instead of k.  A large task at the head runs
//     singly on the scheduler worker; the heavy backends fan out over the
//     shared pool internally.
//
//   * Determinism: the scheduler never touches a job's randomness.  Tasks
//     carry self-contained closures whose output is keyed by the job seed
//     alone (svc/job.hpp), so which worker runs a task, which batch it
//     rides in, and in what order ticks happen are all invisible in the
//     results.
//
// The scheduler is job-agnostic (a task is a bool + a closure): the
// server (svc/server.hpp) builds the closures; tests drive the scheduler
// directly with synthetic tasks to pin the admission policies.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smp/thread_pool.hpp"

namespace cgp::svc {

/// What a full queue does to the next submission.
enum class admission : std::uint8_t {
  reject,  ///< submit returns false immediately
  block,   ///< submit blocks the client until space frees (or close)
};

[[nodiscard]] constexpr const char* admission_name(admission a) noexcept {
  return a == admission::reject ? "reject" : "block";
}

struct scheduler_options {
  std::uint32_t workers = 1;          ///< scheduler worker threads (>= 1)
  std::size_t queue_capacity = 1024;  ///< bounded queue: admission beyond this
  admission policy = admission::reject;
};

/// Monotone counters (snapshot via stats()).
struct scheduler_stats {
  std::uint64_t submitted = 0;     ///< tasks accepted into the queue
  std::uint64_t rejected = 0;      ///< submissions refused (full queue / closed)
  std::uint64_t singles = 0;       ///< tasks executed singly
  std::uint64_t batches = 0;       ///< batch dispatches
  std::uint64_t batched_jobs = 0;  ///< tasks executed inside batches
  std::uint64_t max_queue_depth = 0;
};

class scheduler {
 public:
  static constexpr std::size_t kBatchMaxJobs = 64;  ///< cap on one tick's batch

  /// One unit of work.  `run` must be self-contained and must not throw
  /// (the server wraps job execution in its own catch); `small` marks the
  /// task batchable.  `trace` is the submitter's trace context: a worker
  /// executing the task singly installs it so the task's spans stitch
  /// under the submitter (batched tasks run on pool threads, where the
  /// server-side closure installs the job's own context instead).
  struct task {
    bool small = false;
    std::function<void()> run;
    obs::trace_context trace{};
  };

  /// Workers start immediately; batches dispatch on `batch_pool`.
  scheduler(smp::thread_pool& batch_pool, scheduler_options opt);

  /// close() and join.
  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  /// Enqueue a task.  False = not admitted (queue full under the reject
  /// policy, or scheduler closed) -- the task will never run.
  [[nodiscard]] bool submit(task t);

  /// Stop admission, drain every queued task, join the workers.
  /// Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] scheduler_stats stats() const;
  /// Tasks currently queued (a live level -- racy by nature, diagnostics
  /// only; the obs gauge `svc.queue_depth` mirrors it process-wide).
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const scheduler_options& options() const noexcept { return opt_; }

  /// Tick sizes of THIS scheduler only (singles record 1).  The process-
  /// wide `svc.batch_size` registry histogram aggregates every scheduler;
  /// this one is what a per-server snapshot must read -- two servers in
  /// one process would otherwise pollute each other's percentiles.
  [[nodiscard]] const obs::histogram& batch_size_histogram() const noexcept {
    return batch_hist_;
  }

 private:
  void worker_loop();

  smp::thread_pool& pool_;
  scheduler_options opt_;

  mutable std::mutex m_;
  std::condition_variable nonempty_;  ///< workers wait for tasks / close
  std::condition_variable space_;     ///< blocked submitters wait for room
  std::deque<task> q_;
  bool closed_ = false;
  scheduler_stats stats_{};
  obs::histogram batch_hist_;  ///< per-instance tick sizes (standalone histogram)

  std::vector<std::thread> workers_;
};

}  // namespace cgp::svc
