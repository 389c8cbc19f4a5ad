// svc/job.hpp
//
// The job model of the permutation service (src/svc/): what one tenant
// request becomes inside the server, and the completion handles a client
// holds while it runs.
//
// Seed discipline -- the service's determinism contract.  Every job's
// random stream is keyed
//
//   job_seed(server_seed, client_id, ordinal)
//
// where `ordinal` counts the client's own submissions (0, 1, 2, ...).
// The seed is a pure function of that triple: it never mentions the
// scheduler worker that ran the job, the batch it rode in, the queue
// depth, or any other job -- so a job's output is bit-identical across
// scheduler worker counts, submission interleavings and the batches jobs
// ride in, and equals a direct `context::shuffle(data, job_seed(...))` on
// an identically configured context (tests/test_svc.cpp pins both).
//
// Completion handles: `future<permutation>` (whole-result delivery of a
// sampled permutation), `future<void>` (in-place shuffle of client-owned
// records), and svc::stream (svc/stream.hpp, chunked pull delivery).  All
// are thin shared_ptr views over one detail::job_state; the server and
// any number of waiters may hold them concurrently.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/plan.hpp"
#include "em/block_device.hpp"
#include "obs/trace.hpp"
#include "prp/cipher.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"

namespace cgp::svc {

/// The service's result type for sampled permutations (pi[i] = image of i).
using permutation = std::vector<std::uint64_t>;

/// Life cycle of a job.  `rejected` is terminal at admission (bounded
/// queue full under the reject policy, or server closed); `failed` carries
/// the executing backend's exception.
enum class job_status : std::uint8_t { queued, running, done, rejected, failed };

[[nodiscard]] constexpr const char* job_status_name(job_status s) noexcept {
  switch (s) {
    case job_status::queued: return "queued";
    case job_status::running: return "running";
    case job_status::done: return "done";
    case job_status::rejected: return "rejected";
    case job_status::failed: return "failed";
  }
  return "?";
}

/// Seed of the job (client_id, ordinal) on a server seeded `server_seed`:
/// the server seed folded with the (client, ordinal) address through the
/// library's nested-stream keying (rng/stream.hpp).  Pure in the triple,
/// and scrambled enough that adjacent clients / ordinals / server seeds
/// land on unrelated Philox streams.
[[nodiscard]] inline std::uint64_t job_seed(std::uint64_t server_seed, std::uint64_t client_id,
                                            std::uint64_t ordinal) noexcept {
  return rng::mix64(server_seed ^ rng::nested_stream(client_id, ordinal, 0x737663ull /*'svc'*/));
}

namespace detail {

/// Shared completion state of one job.  The server writes it (status
/// transitions + result storage), handles read it; everything after the
/// terminal transition is immutable, so `get`/`read` touch results without
/// the mutex once `wait` returned.
struct job_state {
  // --- identity (fixed at submission) ---------------------------------
  std::uint64_t client = 0;
  std::uint64_t ordinal = 0;
  std::uint64_t seed = 0;
  std::uint64_t n = 0;
  /// Admission timestamp; end-to-end latency (queue wait + execution) is
  /// measured against it when the job reaches `done` and recorded into
  /// the `svc.job_latency_ns` histogram (observability only -- nothing
  /// downstream of the clock can touch the job's randomness).
  std::chrono::steady_clock::time_point submitted_at{};
  /// The submitter's trace context at admission ({0,0} when untraced).
  /// Scheduler workers and batch pool threads re-install it around
  /// execution, so the executor's spans stitch under the submitting
  /// client's trace even across the wire.  Observability only: nothing
  /// seeds from it.
  obs::trace_context trace{};

  // --- completion ------------------------------------------------------
  mutable std::mutex m;
  mutable std::condition_variable cv;
  job_status st = job_status::queued;
  std::exception_ptr error;
  core::permutation_plan plan;  ///< the plan that ran (valid once terminal)

  // --- result storage (exactly one engaged, by job kind) ---------------
  /// Sampled permutation (permutation / RAM-planned stream jobs).
  permutation pi;
  /// Device-resident permutation (stream jobs whose plan chose the
  /// out-of-core backend): chunks are read off the device on demand, so
  /// no full-n vector ever materializes for the stream.
  std::unique_ptr<em::block_device> dev;
  /// Cipher-backed permutation (prp-planned stream jobs and shard jobs):
  /// nothing is stored AT ALL -- every pull evaluates
  /// pi(shard_base + cursor ..) on demand, O(chunk) memory, O(1) state.
  /// The cipher's domain may exceed st.n: a shard job's stream serves the
  /// st.n-item window of the full-domain permutation starting at
  /// shard_base (whole-permutation prp streams have shard_base = 0 and
  /// domain == n).
  std::unique_ptr<prp::cipher> cipher;
  std::uint64_t shard_base = 0;

  // Transitions are guarded: queued -> running -> {done, failed}, or
  // queued -> rejected at admission.  A job that reached a terminal
  // status can never transition again -- a double finish() would have a
  // waiter observe one outcome while the counters record another, which
  // is exactly the class of reconciliation drift tests/test_svc.cpp's
  // invariant (submitted == done + failed, latency count == done) exists
  // to catch.

  void set_running() {
    const std::lock_guard<std::mutex> lock(m);
    CGP_ASSERT(st == job_status::queued && "job must be queued to start running");
    st = job_status::running;
  }

  void finish(job_status terminal_status) {
    {
      const std::lock_guard<std::mutex> lock(m);
      CGP_ASSERT(terminal(terminal_status));
      CGP_ASSERT(!terminal(st) && "job already reached a terminal status");
      st = terminal_status;
    }
    cv.notify_all();
  }

  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(m);
      CGP_ASSERT(!terminal(st) && "job already reached a terminal status");
      error = std::move(e);
      st = job_status::failed;
    }
    cv.notify_all();
  }

  [[nodiscard]] static bool terminal(job_status s) noexcept {
    return s == job_status::done || s == job_status::rejected || s == job_status::failed;
  }

  [[nodiscard]] job_status status() const {
    const std::lock_guard<std::mutex> lock(m);
    return st;
  }

  /// Block until the job reaches a terminal status; returns it.
  job_status wait() const {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return terminal(st); });
    return st;
  }

  /// wait(), then throw for the non-`done` terminals (rethrowing the
  /// backend's exception for `failed`).
  void wait_done() const {
    const job_status s = wait();
    if (s == job_status::done) return;
    if (s == job_status::failed && error != nullptr) std::rethrow_exception(error);
    throw std::runtime_error(std::string("svc job ") + job_status_name(s));
  }
};

}  // namespace detail

/// Shared behaviour of every completion handle: status queries and
/// blocking waits over the job's shared state.
class job_handle {
 public:
  job_handle() = default;

  /// False for a default-constructed handle.
  [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }

  [[nodiscard]] job_status status() const { return s_->status(); }

  /// Block until the job is done / rejected / failed; returns the status.
  job_status wait() const { return s_->wait(); }

  /// The job's seed keying, for replay against a bare context.
  [[nodiscard]] std::uint64_t client() const noexcept { return s_->client; }
  [[nodiscard]] std::uint64_t ordinal() const noexcept { return s_->ordinal; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return s_->seed; }

  /// The plan the job ran (valid once the status is terminal).
  [[nodiscard]] const core::permutation_plan& plan() const { return s_->plan; }

 protected:
  explicit job_handle(std::shared_ptr<detail::job_state> s) : s_(std::move(s)) {}
  std::shared_ptr<detail::job_state> s_;
};

template <typename T>
class future;  // only the two service result shapes below exist

/// Completion of an in-place shuffle job: the client's buffer holds the
/// permuted records once get() returns.
template <>
class future<void> : public job_handle {
 public:
  future() = default;

  /// Wait for completion; throws on rejection / failure.
  void get() const { s_->wait_done(); }

 private:
  friend class server;
  using job_handle::job_handle;
};

/// Whole-result delivery of a sampled permutation.
template <>
class future<permutation> : public job_handle {
 public:
  future() = default;

  /// Wait for completion and move the permutation out (one-shot); throws
  /// on rejection / failure.
  [[nodiscard]] permutation get() {
    s_->wait_done();
    return std::move(s_->pi);
  }

 private:
  friend class server;
  using job_handle::job_handle;
};

}  // namespace cgp::svc
