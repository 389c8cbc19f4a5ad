#include "svc/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace cgp::svc {

namespace {

// Process-wide scheduler metrics (per-instance accounting stays in
// scheduler_stats).  queue_depth is a live level with a peak high-water
// mark; batch sizes go to a histogram so the snapshot exposes p50/p99.
obs::gauge& queue_gauge() {
  static obs::gauge& g = obs::get_gauge("svc.queue_depth");
  return g;
}
obs::histogram& batch_histogram() {
  static obs::histogram& h = obs::get_histogram("svc.batch_size");
  return h;
}

}  // namespace

scheduler::scheduler(smp::thread_pool& batch_pool, scheduler_options opt)
    : pool_(batch_pool), opt_(opt) {
  CGP_EXPECTS(opt_.queue_capacity >= 1);
  if (opt_.workers == 0) opt_.workers = 1;
  workers_.reserve(opt_.workers);
  for (std::uint32_t w = 0; w < opt_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

scheduler::~scheduler() { close(); }

bool scheduler::submit(task t) {
  static obs::counter& submitted = obs::get_counter("svc.jobs.submitted");
  static obs::counter& rejected = obs::get_counter("svc.jobs.rejected");
  std::unique_lock<std::mutex> lock(m_);
  if (closed_) {
    ++stats_.rejected;
    rejected.add();
    return false;
  }
  if (q_.size() >= opt_.queue_capacity) {
    if (opt_.policy == admission::reject) {
      ++stats_.rejected;
      rejected.add();
      return false;
    }
    // block: the client waits -- backpressure propagates to the submitter
    // instead of growing the queue.
    space_.wait(lock, [&] { return closed_ || q_.size() < opt_.queue_capacity; });
    if (closed_) {
      ++stats_.rejected;
      rejected.add();
      return false;
    }
  }
  q_.push_back(std::move(t));
  ++stats_.submitted;
  stats_.max_queue_depth = std::max<std::uint64_t>(stats_.max_queue_depth, q_.size());
  submitted.add();
  queue_gauge().set(static_cast<std::int64_t>(q_.size()));
  queue_gauge().note_peak(static_cast<std::int64_t>(q_.size()));
  lock.unlock();
  nonempty_.notify_one();
  return true;
}

void scheduler::close() {
  // Claim the worker handles under the lock so concurrent closers join
  // disjoint (at most one non-empty) sets.
  std::vector<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
    to_join.swap(workers_);
  }
  nonempty_.notify_all();
  space_.notify_all();
  for (auto& w : to_join) {
    if (w.joinable()) w.join();
  }
}

bool scheduler::closed() const {
  const std::lock_guard<std::mutex> lock(m_);
  return closed_;
}

scheduler_stats scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

std::size_t scheduler::queue_depth() const {
  const std::lock_guard<std::mutex> lock(m_);
  return q_.size();
}

void scheduler::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(m_);
    nonempty_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return;  // closed and fully drained

    // One scheduling tick: if the task at the HEAD is small, gather a
    // batch of small tasks behind it (submission order preserved);
    // otherwise run the head singly.  Always servicing the head is the
    // fairness bound: a large job reaches the front in FIFO order and
    // runs on that tick, so a sustained stream of small jobs can never
    // starve it.
    std::vector<task> batch;
    if (q_.front().small) {
      for (auto it = q_.begin(); it != q_.end() && batch.size() < kBatchMaxJobs;) {
        if (it->small) {
          batch.push_back(std::move(*it));
          it = q_.erase(it);
        } else {
          ++it;
        }
      }
    }
    task single;
    bool have_single = false;
    if (batch.empty()) {
      single = std::move(q_.front());
      q_.pop_front();
      have_single = true;
      ++stats_.singles;
    } else if (batch.size() == 1) {
      // A lone small task gains nothing from a pool round trip.
      single = std::move(batch.front());
      batch.clear();
      have_single = true;
      ++stats_.singles;
    } else {
      ++stats_.batches;
      stats_.batched_jobs += batch.size();
      static obs::counter& batches = obs::get_counter("svc.batches");
      batches.add();
      batch_histogram().record(batch.size());
      batch_hist_.record(batch.size());
    }
    if (have_single) {
      static obs::counter& singles = obs::get_counter("svc.singles");
      singles.add();
      batch_histogram().record(1);
      batch_hist_.record(1);
    }
    queue_gauge().set(static_cast<std::int64_t>(q_.size()));
    lock.unlock();
    space_.notify_all();

    if (have_single) {
      const obs::trace_scope scope(single.trace);
      const obs::span sp("job", "batch");
      single.run();
    } else {
      // ONE pool dispatch amortized across the whole batch; each task's
      // output is keyed by its job seed, so the worker->task assignment
      // the partition makes is invisible in the results.
      const obs::span sp("batch", "batch");
      pool_.parallel_for(0, batch.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) batch[j].run();
      });
    }
  }
}

}  // namespace cgp::svc
