// smp/thread_pool.cpp
#include "smp/thread_pool.hpp"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/assert.hpp"
#include "util/prefix.hpp"

namespace cgp::smp {

namespace {

// Which pool (if any) owns the current thread; used to detect nested
// parallel_for calls from worker threads.
thread_local const void* t_owning_pool = nullptr;

bool numa_disabled_by_env() {
  const char* env = std::getenv("CGP_NUMA");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "off" || v == "0";
}

/// The CPUs of each NUMA node, from sysfs ("0-3,8-11" range lists in
/// /sys/devices/system/node/node<N>/cpulist).  Empty on non-Linux hosts,
/// detection failure, or CGP_NUMA=off -- all of which mean "treat the
/// machine as one node and pin nothing".
std::vector<std::vector<int>> detect_node_cpus() {
  std::vector<std::vector<int>> nodes;
#if defined(__linux__)
  if (numa_disabled_by_env()) return nodes;
  for (int n = 0;; ++n) {
    std::ifstream f("/sys/devices/system/node/node" + std::to_string(n) + "/cpulist");
    if (!f.is_open()) break;
    std::string list;
    std::getline(f, list);
    std::vector<int> cpus;
    std::size_t at = 0;
    while (at < list.size()) {
      std::size_t used = 0;
      int lo = std::stoi(list.substr(at), &used);
      at += used;
      int hi = lo;
      if (at < list.size() && list[at] == '-') {
        ++at;
        hi = std::stoi(list.substr(at), &used);
        at += used;
      }
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      if (at < list.size() && list[at] == ',') ++at;
    }
    if (!cpus.empty()) nodes.push_back(std::move(cpus));
  }
  if (nodes.size() < 2) nodes.clear();  // single node: nothing to place
#endif
  return nodes;
}

void pin_to_cpus([[maybe_unused]] const std::vector<int>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  // Best effort: a failed setaffinity (restricted cpuset, cgroup limits)
  // leaves the worker unpinned, which is always correct.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
}

}  // namespace

struct thread_pool::state {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;                 // submit() tasks, any worker
  std::vector<std::deque<std::function<void()>>> local;    // parallel_for chunks, worker-affine
  bool stop = false;
  std::vector<std::thread> workers;
  std::vector<std::vector<int>> node_cpus;  // empty = no NUMA placement
  std::vector<unsigned> worker_node;        // worker -> node group (all 0 when unplaced)

  [[nodiscard]] bool any_work() const {
    if (!queue.empty()) return true;
    for (const auto& q : local) {
      if (!q.empty()) return true;
    }
    return false;
  }
};

thread_pool::thread_pool(unsigned threads) : state_(std::make_unique<state>()) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  state_->node_cpus = detect_node_cpus();
  const auto nodes = static_cast<unsigned>(state_->node_cpus.size());
  state_->worker_node.resize(threads, 0);
  if (nodes >= 2) {
    // Contiguous groups: workers [i*threads/nodes, (i+1)*threads/nodes)
    // serve node i, mirroring how balanced_block_offset partitions index
    // ranges -- so a parallel_for's chunk c (run by worker c % threads)
    // maps to a stable node.
    for (unsigned i = 0; i < threads; ++i) {
      state_->worker_node[i] = static_cast<unsigned>(
          static_cast<std::uint64_t>(i) * nodes / threads);
    }
  }
  state_->local.resize(threads);
  state_->workers.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    state_->workers.emplace_back([this, i]() { worker_loop(i); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  for (auto& w : state_->workers) w.join();
}

unsigned thread_pool::size() const noexcept {
  return static_cast<unsigned>(state_->workers.size());
}

bool thread_pool::on_worker_thread() const noexcept { return t_owning_pool == this; }

unsigned thread_pool::numa_node_count() const noexcept {
  return state_->node_cpus.empty() ? 1 : static_cast<unsigned>(state_->node_cpus.size());
}

unsigned thread_pool::worker_node(unsigned worker) const noexcept {
  return worker < state_->worker_node.size() ? state_->worker_node[worker] : 0;
}

void thread_pool::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    CGP_EXPECTS(!state_->stop);
    state_->queue.push_back(std::move(task));
  }
  state_->cv.notify_one();
}

void thread_pool::post_local(unsigned worker, std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    CGP_EXPECTS(!state_->stop);
    state_->local[worker].push_back(std::move(task));
  }
  state_->cv.notify_all();  // the home worker may not be the one woken by _one
}

void thread_pool::worker_loop(unsigned index) {
  t_owning_pool = this;
  if (!state_->node_cpus.empty()) {
    pin_to_cpus(state_->node_cpus[state_->worker_node[index]]);
  }
  const auto nworkers = static_cast<unsigned>(state_->local.size());
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [this]() { return state_->stop || state_->any_work(); });
      if (!state_->any_work()) return;  // stop requested and drained
      // Preference order: own affine chunks first (placement), then the
      // shared submit() queue, then steal another worker's chunks from the
      // BACK of its queue (the task its home worker would reach last).
      if (!state_->local[index].empty()) {
        task = std::move(state_->local[index].front());
        state_->local[index].pop_front();
      } else if (!state_->queue.empty()) {
        task = std::move(state_->queue.front());
        state_->queue.pop_front();
      } else {
        for (unsigned step = 1; step < nworkers; ++step) {
          auto& victim = state_->local[(index + step) % nworkers];
          if (!victim.empty()) {
            task = std::move(victim.back());
            victim.pop_back();
            break;
          }
        }
      }
    }
    CGP_ASSERT(task != nullptr);
    task();
  }
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end,
                               const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (on_worker_thread()) {
    body(begin, end);
    return;
  }
  const auto n = static_cast<std::uint64_t>(end - begin);
  const auto parts = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(n, static_cast<std::uint64_t>(size())));
  if (parts == 1) {
    // One part has nothing to overlap with: posting it would only cost a
    // worker's wake-up and the caller's sleep.  Its first-touch pages then
    // land on the caller's node, not worker 0's, which a multi-node host
    // would notice if a later pass over the same memory runs on workers.
    body(begin, end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(parts);
  for (std::uint32_t part = 0; part < parts; ++part) {
    const std::size_t lo = begin + static_cast<std::size_t>(balanced_block_offset(n, parts, part));
    const std::size_t hi = lo + static_cast<std::size_t>(balanced_block_size(n, parts, part));
    // Chunk `part` is posted to worker `part % size()`'s affine queue:
    // identical partitions across passes land on identical workers (and
    // nodes), which is what keeps first-touch pages local.  The partition
    // itself -- and hence the output -- never depends on who runs what.
    auto task = std::make_shared<std::packaged_task<void()>>([&body, lo, hi]() { body(lo, hi); });
    futures.push_back(task->get_future());
    post_local(part % size(), [task]() { (*task)(); });
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cgp::smp
