#include "svc/server.hpp"

#include <chrono>
#include <map>
#include <utility>

#include "core/executor.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace cgp::svc {

namespace {

cgp::context_options context_options_of(const server_options& opt) {
  cgp::context_options co;
  co.which = opt.which;
  co.parallelism = opt.parallelism;
  co.memory_budget_bytes = opt.memory_budget_bytes;
  co.repetitions = opt.repetitions;
  co.seed = opt.seed;
  co.engine = opt.engine;
  return co;
}

scheduler_options scheduler_options_of(const server_options& opt) {
  scheduler_options so;
  so.workers = opt.scheduler_workers;
  so.queue_capacity = opt.queue_capacity;
  so.policy = opt.policy;
  return so;
}

/// A latency histogram's section of metrics_snapshot().
std::string latency_json(const obs::histogram& h) {
  const obs::metric_snapshot l = obs::summarize(h);
  json_record rec;
  rec.add("count", l.count)
      .add("p50_ns", l.p50)
      .add("p90_ns", l.p90)
      .add("p99_ns", l.p99)
      .add("max_ns", l.max)
      .add("p99_exemplar_trace_id", std::to_string(l.p99_exemplar));
  return rec.to_string();
}

}  // namespace

server::server(server_options opt)
    : opt_(opt),
      ctx_(context_options_of(opt)),
      sched_(core::shared_pool(opt.parallelism), scheduler_options_of(opt)) {}

server::~server() { close(); }

void server::close() { sched_.close(); }

/// End-to-end job latency (admission to `done`), in ns.  Recorded into
/// the process-wide `svc.job_latency_ns` registry histogram (the obs
/// layer's cross-server aggregate), the registry's *.by_client families,
/// and this server's per-instance histogram + tenant family -- what
/// metrics_snapshot() reads, so two servers in one process never pollute
/// each other's percentiles.  The job's trace_id (when the submission was
/// traced) rides along as the latency bucket's exemplar.
void server::note_done(const detail::job_state& st) {
  static obs::counter& done = obs::get_counter("svc.jobs.done");
  static obs::counter_family& done_by = obs::get_counter_family("svc.jobs.done.by_client");
  static obs::histogram& lat = obs::get_histogram("svc.job_latency_ns");
  static obs::histogram_family& lat_by =
      obs::get_histogram_family("svc.job_latency_ns.by_client");
  done.add();
  done_by.with(st.client).add();
  const auto dt = std::chrono::steady_clock::now() - st.submitted_at;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
  const auto v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  const std::uint64_t trace_id = st.trace.trace_id;
  lat.record(v, trace_id);
  lat_by.with(st.client).record(v, trace_id);
  latency_hist_.record(v, trace_id);
  tenant_latency_.with(st.client).record(v, trace_id);
}

void server::note_failed(const detail::job_state& st) {
  static obs::counter& failed = obs::get_counter("svc.jobs.failed");
  static obs::counter_family& failed_by =
      obs::get_counter_family("svc.jobs.failed.by_client");
  failed.add();
  failed_by.with(st.client).add();
  tenant_failed_.with(st.client).add();
}

std::shared_ptr<detail::job_state> server::make_state(std::uint64_t client_id, std::uint64_t n) {
  auto st = std::make_shared<detail::job_state>();
  st->client = client_id;
  st->n = n;
  {
    // The ordinal counts the client's submissions in THEIR order --
    // assigned at admission, consumed even by rejected submissions, so
    // the (client, ordinal) -> seed map never depends on what the
    // scheduler or other tenants are doing.
    const std::lock_guard<std::mutex> lock(clients_m_);
    st->ordinal = ordinals_[client_id]++;
  }
  st->seed = job_seed(opt_.seed, client_id, st->ordinal);
  st->submitted_at = std::chrono::steady_clock::now();
  // Capture the submitter's trace context (a wire handler installs the
  // remote client's before calling submit_*), so the job's execution
  // spans stitch under it wherever they end up running.
  st->trace = obs::current_trace();
  return st;
}

void server::enqueue(bool small, std::function<void()> task,
                     const std::shared_ptr<detail::job_state>& st) {
  static obs::counter_family& submitted_by =
      obs::get_counter_family("svc.jobs.submitted.by_client");
  static obs::counter_family& rejected_by =
      obs::get_counter_family("svc.jobs.rejected.by_client");
  // A refused submission is counted once globally, by the scheduler (its
  // stats are the single source of truth for admission outcomes); the
  // per-tenant attribution happens here, where the client is known.
  if (!sched_.submit({small, std::move(task), st->trace})) {
    rejected_by.with(st->client).add();
    tenant_rejected_.with(st->client).add();
    st->finish(job_status::rejected);
    return;
  }
  submitted_by.with(st->client).add();
  tenant_submitted_.with(st->client).add();
}

future<permutation> server::submit_permutation(std::uint64_t client_id, std::uint64_t n) {
  auto st = make_state(client_id, n);
  enqueue(n <= kSmallJobItems, [this, st] { run_fill(*st, /*streamed=*/false); }, st);
  return future<permutation>(st);
}

stream server::submit_stream(std::uint64_t client_id, std::uint64_t n) {
  auto st = make_state(client_id, n);
  enqueue(n <= kSmallJobItems, [this, st] { run_fill(*st, /*streamed=*/true); }, st);
  return stream(st, kStreamChunkItems);
}

stream server::submit_shard(std::uint64_t client_id, std::uint64_t n, std::uint64_t shard,
                            std::uint64_t num_shards) {
  CGP_EXPECTS(num_shards > 0 && shard < num_shards);
  auto st = make_state(client_id, n);
  // The stream serves the shard's window: st->n is the WINDOW length (what
  // size()/read() run against), shard_base its offset into the full
  // domain; the cipher keeps the domain itself.
  const prp::shard_range r = prp::shard_bounds(n, shard, num_shards);
  st->shard_base = r.lo;
  st->n = r.size();
  // Always a small job: opening a shard is O(rounds) key-schedule work
  // regardless of n -- the whole point of the backend.
  enqueue(true, [this, st, n] { run_shard(*st, n); }, st);
  return stream(st, kStreamChunkItems);
}

future<void> server::submit_shuffle_raw(std::uint64_t client_id, void* data, std::uint64_t n,
                                        std::uint32_t elem_bytes) {
  auto st = make_state(client_id, n);
  enqueue(
      n <= kSmallJobItems,
      [this, st, data, elem_bytes] { run_shuffle(*st, data, elem_bytes); }, st);
  return future<void>(st);
}

/// The lifecycle every job kind shares: running, the trace, the "svc.job"
/// span, and exactly one terminal transition with its counters.  `body`
/// gets the job's execution options and does the kind-specific work; a
/// throw from it fails the job.  Only the body is inside the try, so a job
/// whose body returned is counted done and never also failed.
template <typename Body>
void server::run(detail::job_state& st, Body&& body) {
  st.set_running();
  // Execute under the submitter's trace (a batched job runs on a pool
  // thread whose thread-local context is empty -- the scope, not the
  // scheduler, is what carries the context there).  An untraced
  // submission gets a fresh trace id while tracing is on, so its latency
  // exemplar still points at a real trace.
  if (st.trace.trace_id == 0 && obs::tracing()) st.trace.trace_id = obs::new_trace_id();
  const obs::trace_scope trace_guard(st.trace);
  const obs::span sp("svc.job", "svc");
  try {
    body(ctx_.execution_options());
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    note_failed(st);
    st.fail(std::current_exception());
    return;
  }
  done_.fetch_add(1, std::memory_order_relaxed);
  note_done(st);
  st.finish(job_status::done);
}

void server::run_shuffle(detail::job_state& st, void* data, std::uint32_t elem_bytes) {
  run(st, [&](const core::backend_options&) {
    st.plan = ctx_.shuffle_raw(data, st.n, elem_bytes, st.seed);
  });
}

void server::run_fill(detail::job_state& st, bool streamed) {
  run(st, [&](const core::backend_options& o) {
    st.plan = core::resolve_plan(st.n, sizeof(std::uint64_t), o);
    if (st.n == 0) return;
    const core::feedback_scope fb(st.plan);
    if (streamed && st.plan.chosen == core::backend::prp) {
      // Cipher-backed stream: nothing is materialized -- the stream
      // evaluates pi on demand through the same (seed, n, options)
      // cipher the prp executor would fill from, so chunk content is
      // bit-identical to a whole-delivery prp job.
      st.cipher = std::make_unique<prp::cipher>(st.seed, st.n, o.prp_engine);
    } else if (streamed && st.plan.chosen == core::backend::em) {
      // The em executor's native fill mode minus its final bulk readback:
      // identity onto the device, shuffle there, KEEP the device -- the
      // stream pulls chunks off it via accounted range reads, so no
      // full-n vector ever materializes for this job.  Geometry, pool,
      // and fill all resolve through the shared helpers make_executor's
      // em branch uses, so the device content is bit-identical to what
      // fill_random_permutation would have read back.
      st.dev = core::em_shuffled_identity_device(st.n, st.seed,
                                                 core::resolve_em_config(st.plan, o));
    } else {
      st.pi.resize(static_cast<std::size_t>(st.n));
      core::make_executor(st.plan, o)->fill_random_permutation(
          std::span<std::uint64_t>(st.pi), st.seed);
    }
  });
}

void server::run_shard(detail::job_state& st, std::uint64_t domain_n) {
  run(st, [&](const core::backend_options& o) {
    // A shard job IS the prp backend: record an honest plan (the window's
    // share of the domain as the accessed fraction) rather than running
    // the planner -- no other backend can serve a lazy window of a
    // permutation it never built.
    st.plan = core::permutation_plan{};
    st.plan.chosen = core::backend::prp;
    st.plan.threads = 1;
    st.plan.accessed_fraction =
        domain_n == 0 ? 1.0
                      : static_cast<double>(st.n) / static_cast<double>(domain_n);
    if (st.n != 0) {
      st.cipher = std::make_unique<prp::cipher>(st.seed, domain_n, o.prp_engine);
    }
  });
}

server_stats server::stats() const {
  server_stats s;
  s.sched = sched_.stats();
  s.done = done_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  return s;
}

std::string server::metrics_snapshot() const {
  const server_stats s = stats();
  // Per-instance histograms: this server's jobs and ticks only.  The
  // process-wide aggregates remain visible under "metrics".
  const obs::metric_snapshot bat = obs::summarize(sched_.batch_size_histogram());
  json_record bat_rec;
  bat_rec.add("count", bat.count).add("p50", bat.p50).add("p99", bat.p99).add("max", bat.max);

  // The plan cache is process-wide by design (every server benefits from
  // every server's planning), so its counters cannot be attributed to one
  // server; the scope marker says so explicitly.
  const auto lookups = static_cast<std::uint64_t>(core::plan_cache_lookups());
  const auto hits = static_cast<std::uint64_t>(core::plan_cache_hits());
  json_record cache_rec;
  cache_rec.add("scope", "process")
      .add("lookups", lookups)
      .add("hits", hits)
      .add("hit_rate",
           lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups));

  // Per-tenant section: union the labels across the per-instance families
  // (a tenant that only ever got rejected still shows up), then render one
  // object per client_id.  A tenant's done count is its latency count.
  struct tenant_row {
    std::uint64_t submitted = 0, failed = 0, rejected = 0;
    const obs::histogram* latency = nullptr;
  };
  std::map<std::uint64_t, tenant_row> tenants;
  for (const auto& [label, c] : tenant_submitted_.entries()) tenants[label].submitted = c->value();
  for (const auto& [label, c] : tenant_failed_.entries()) tenants[label].failed = c->value();
  for (const auto& [label, c] : tenant_rejected_.entries()) tenants[label].rejected = c->value();
  for (const auto& [label, h] : tenant_latency_.entries()) tenants[label].latency = h;
  std::string tenants_json = "{";
  for (const auto& [label, row] : tenants) {
    json_record t;
    t.add("submitted", row.submitted)
        .add("done", row.latency != nullptr ? row.latency->count() : std::uint64_t{0})
        .add("failed", row.failed)
        .add("rejected", row.rejected);
    if (row.latency != nullptr) t.add_raw_json("latency", latency_json(*row.latency));
    if (tenants_json.size() > 1) tenants_json += ", ";
    tenants_json += "\"" + std::to_string(label) + "\": " + t.to_string();
  }
  tenants_json += "}";

  json_record trace_rec;
  trace_rec.add("dropped_spans", obs::get_counter("obs.trace.dropped_spans").value())
      .add("tracing", obs::tracing());

  json_record rec;
  rec.add("queue_depth", static_cast<std::uint64_t>(sched_.queue_depth()))
      .add("max_queue_depth", s.sched.max_queue_depth)
      .add("submitted", s.sched.submitted)
      .add("done", s.done)
      .add("failed", s.failed)
      .add("rejected", s.sched.rejected)
      .add("singles", s.sched.singles)
      .add("batches", s.sched.batches)
      .add("batched_jobs", s.sched.batched_jobs)
      .add_raw_json("plan_cache", cache_rec.to_string())
      .add_raw_json("job_latency", latency_json(latency_hist_))
      .add_raw_json("batch_size", bat_rec.to_string())
      .add_raw_json("tenants", tenants_json)
      .add_raw_json("trace", trace_rec.to_string())
      // The full process-wide registry, for anything the curated fields
      // above don't surface (em I/O, comm bytes, per-backend exec counts).
      .add_raw_json("metrics", obs::snapshot_json());
  return rec.to_string();
}

}  // namespace cgp::svc
