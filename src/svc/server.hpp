// svc/server.hpp
//
// The multi-tenant permutation service: the asynchronous front half of
// cgmperm.  Where `cgp::context` runs ONE blocking shuffle for ONE
// caller, a `svc::server` multiplexes many independent jobs from many
// clients over the shared engines:
//
//   svc::server srv;                                  // planner-driven
//   auto fut = srv.submit_permutation(/*client*/ 7, /*n*/ 1'000'000);
//   svc::permutation pi = fut.get();                  // whole delivery
//
//   std::vector<rec> v = ...;                         // in-place shuffle
//   srv.submit_shuffle(/*client*/ 7, std::span<rec>(v)).get();
//
//   svc::stream s = srv.submit_stream(/*client*/ 7, big_n);
//   while (auto chunk = s.next_chunk()) consume(*chunk);   // O(chunk) RAM
//
// Architecture (DESIGN.md section 7): submissions pass ADMISSION (bounded
// queue; reject or block when full), the SCHEDULER's workers drain the
// queue in ticks -- small jobs batched into one pool dispatch, large jobs
// run singly through the planner -- and every job executes through the
// identical plan/executor path a bare context uses: a shuffle job IS a
// context::shuffle_raw call on the server's context, and a fill job runs
// the same core::resolve_plan (whose process-wide PLAN CACHE skips
// planner recomputation for repeated request shapes) and
// core::make_executor, on the process-wide cached machine profile
// (core::shared_profile()) unless engine.profile injects one.
//
// Determinism: job (client_id, ordinal) runs under
// job_seed(server_seed, client_id, ordinal) -- `ordinal` counting that
// client's submissions (accepted or rejected) -- so every output is a
// pure function of (server seed, client id, ordinal): bit-identical
// across scheduler worker counts, submission interleavings and the
// batches jobs ride in, and equal to ctx.shuffle(data, job_seed(...)) on
// an identically configured context (tests/test_svc.cpp pins all of it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "svc/job.hpp"
#include "svc/scheduler.hpp"
#include "svc/stream.hpp"

namespace cgp::svc {

struct server_options {
  /// Server seed: with the (client_id, ordinal) keying, the whole of the
  /// service's randomness.
  std::uint64_t seed = 0x5E12B1CE5EEDull;

  // --- execution (projected onto the owned cgp::context) ---------------
  core::backend which = core::backend::automatic;
  std::uint32_t parallelism = 0;          ///< compute pool threads; 0 = default
  std::uint64_t memory_budget_bytes = 0;  ///< per-job RAM budget; 0 = unconstrained
  std::uint64_t repetitions = 1;          ///< expected draws per shape (planner hint)
  core::backend_options engine{};         ///< expert engine knobs, forwarded (profile included)

  // --- scheduling + admission ------------------------------------------
  std::uint32_t scheduler_workers = 1;
  std::size_t queue_capacity = 1024;
  admission policy = admission::reject;
};

/// Snapshot of the server's counters.  Admission outcomes (submitted,
/// rejected) are counted once, by the scheduler.
struct server_stats {
  scheduler_stats sched;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
};

class server {
 public:
  /// Jobs with n at or below this are "small": batchable per tick.  It
  /// matches the engines' cache cutoff -- exactly the jobs whose per-call
  /// dispatch overhead batching exists to amortize.
  static constexpr std::uint64_t kSmallJobItems = std::uint64_t{1} << 16;
  /// Chunk size handed to svc::stream consumers.
  static constexpr std::uint64_t kStreamChunkItems = std::uint64_t{1} << 16;

  explicit server(server_options opt = {});

  /// close(): drains queued jobs, then joins the scheduler workers.
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Sample a uniform permutation of {0..n-1}, delivered whole.
  [[nodiscard]] future<permutation> submit_permutation(std::uint64_t client_id, std::uint64_t n);

  /// Sample a uniform permutation of {0..n-1}, delivered as chunks.
  [[nodiscard]] stream submit_stream(std::uint64_t client_id, std::uint64_t n);

  /// Open shard `shard` of `num_shards` of a FRESH cipher-backed
  /// permutation of {0..n-1}: the returned stream serves the contiguous
  /// window pi[lo..hi) (prp::shard_bounds geometry -- the S shards of one
  /// job seed jointly tile its pi exactly once) evaluated on demand
  /// through the O(1)-state prp::cipher.  No pi on disk, no full-n vector
  /// anywhere, O(chunk) memory per pull -- n can exceed every materializing
  /// backend's budget.  Consumes one (client, ordinal) like every submit:
  /// the job is keyed job_seed(server_seed, client_id, ordinal), so the
  /// shard replays locally as prp::cipher(job_seed, n).shard(k, S).
  /// Requires num_shards > 0 and shard < num_shards.
  [[nodiscard]] stream submit_shard(std::uint64_t client_id, std::uint64_t n,
                                    std::uint64_t shard, std::uint64_t num_shards);

  /// Uniformly permute the client's records in place.  `data` must stay
  /// valid (and untouched by the client) until the future completes.
  template <typename T>
  [[nodiscard]] future<void> submit_shuffle(std::uint64_t client_id, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return submit_shuffle_raw(client_id, data.data(), data.size(),
                              static_cast<std::uint32_t>(sizeof(T)));
  }

  /// Type-erased in-place shuffle of n records of elem_bytes each.
  [[nodiscard]] future<void> submit_shuffle_raw(std::uint64_t client_id, void* data,
                                                std::uint64_t n, std::uint32_t elem_bytes);

  /// Stop admission, run every already-queued job, join the workers.
  /// Submissions after close() are rejected.  Idempotent.
  void close();
  [[nodiscard]] bool closed() const { return sched_.closed(); }

  [[nodiscard]] server_stats stats() const;

  /// One JSON object describing the service's observable state: live queue
  /// depth, admission counters, batch-size and per-job end-to-end latency
  /// percentiles, plan-cache hit rate, and (under "metrics") the full
  /// process-wide obs registry snapshot.  Always valid JSON; cheap enough
  /// to poll.
  ///
  /// Scoping: the counters and the "job_latency" / "batch_size" /
  /// "tenants" sections describe THIS server only (backed by per-instance
  /// histograms and labeled families -- two servers in one process do not
  /// pollute each other's percentiles); "plan_cache" and "metrics"
  /// describe the whole process and say so with a "scope": "process"
  /// marker (the plan cache is shared by design: every server benefits
  /// from every server's planning).
  ///
  /// "tenants" maps client_id -> {submitted, done, failed, rejected,
  /// latency{count, p50_ns, p90_ns, p99_ns, max_ns,
  /// p99_exemplar_trace_id}}; `done` is the latency count (both are
  /// recorded on the same event), and the exemplar links a tenant's p99
  /// outlier straight to its distributed trace.  "trace" reports the ring's
  /// dropped-span count so a reader knows how complete a dump would be.
  [[nodiscard]] std::string metrics_snapshot() const;

  /// End-to-end latency (admission to done) of THIS server's jobs.  Its
  /// count() equals stats().done -- the reconciliation invariant
  /// tests/test_svc.cpp pins.
  [[nodiscard]] const obs::histogram& job_latency_histogram() const noexcept {
    return latency_hist_;
  }

  /// Scheduling tick sizes of THIS server's scheduler (singles record 1).
  [[nodiscard]] const obs::histogram& batch_size_histogram() const noexcept {
    return sched_.batch_size_histogram();
  }

  /// Per-tenant end-to-end latency distributions of THIS server's jobs
  /// (one histogram per client_id, bounded by the family's slot count).
  [[nodiscard]] const obs::histogram_family& tenant_latency_histograms() const noexcept {
    return tenant_latency_;
  }

  /// The context the server executes through (profile + option
  /// projection); `ctx().shuffle(data, job_seed(...))` replays any job.
  [[nodiscard]] const cgp::context& ctx() const noexcept { return ctx_; }
  [[nodiscard]] const core::machine_profile& profile() const noexcept { return ctx_.profile(); }
  [[nodiscard]] const server_options& options() const noexcept { return opt_; }

 private:
  [[nodiscard]] std::shared_ptr<detail::job_state> make_state(std::uint64_t client_id,
                                                              std::uint64_t n);
  void enqueue(bool small, std::function<void()> task,
               const std::shared_ptr<detail::job_state>& st);
  template <typename Body>
  void run(detail::job_state& st, Body&& body);
  void run_shuffle(detail::job_state& st, void* data, std::uint32_t elem_bytes);
  void run_fill(detail::job_state& st, bool streamed);
  void run_shard(detail::job_state& st, std::uint64_t domain_n);
  void note_done(const detail::job_state& st);
  void note_failed(const detail::job_state& st);

  server_options opt_;
  cgp::context ctx_;
  scheduler sched_;

  std::mutex clients_m_;
  std::unordered_map<std::uint64_t, std::uint64_t> ordinals_;

  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> failed_{0};
  obs::histogram latency_hist_;  ///< per-instance job latency (ns)

  // Per-instance per-tenant accounting (the registry's *.by_client
  // families aggregate across servers; these back the "tenants" section
  // of metrics_snapshot(), whose done counts are the latency counts).
  obs::counter_family tenant_submitted_;
  obs::counter_family tenant_failed_;
  obs::counter_family tenant_rejected_;
  obs::histogram_family tenant_latency_;
};

}  // namespace cgp::svc
