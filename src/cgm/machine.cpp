#include "cgm/machine.hpp"

#include <algorithm>
#include <utility>

#include "rng/stream.hpp"

namespace cgp::cgm {

namespace {
constexpr std::uint64_t words_of_bytes(std::size_t bytes) noexcept {
  return (bytes + 7) / 8;  // h-relations are counted in 8-byte words
}
}  // namespace

void context::send_bytes(std::uint32_t dest, std::uint32_t tag,
                         std::span<const std::byte> bytes) {
  CGP_EXPECTS(dest < nprocs_);
  CGP_EXPECTS(endpoint_ != nullptr);
  inflight_bytes_ += bytes.size();
  if (inflight_bytes_ > peak_memory_) peak_memory_ = inflight_bytes_;
  const std::uint64_t words = words_of_bytes(bytes.size());
  words_sent_ += words;
  step_words_out_ += words;
  ++messages_sent_;
  endpoint_->send(dest, tag, bytes);
}

void context::sync() {
  CGP_EXPECTS(endpoint_ != nullptr);
  std::vector<message> fresh = endpoint_->exchange();

  // Close out this superstep's accounting: what this processor computed
  // and sent before the barrier, and what the barrier delivered to it.
  step_delta rec;
  rec.ops = step_ops_;
  rec.words_out = step_words_out_;
  for (const auto& msg : fresh) {
    rec.words_in += words_of_bytes(msg.payload.size());
    if (msg.source != id_) {
      // Received payloads now live in this processor's memory (self
      // messages were already counted when staged).
      inflight_bytes_ += msg.payload.size();
      if (inflight_bytes_ > peak_memory_) peak_memory_ = inflight_bytes_;
    }
  }
  words_received_ += rec.words_in;
  step_log_.push_back(rec);
  step_ops_ = 0;
  step_words_out_ = 0;
  ++supersteps_;
  inbox_ = std::move(fresh);
}

std::uint64_t context::shared_seed() const noexcept {
  CGP_ASSERT(machine_ != nullptr);
  return machine_->seed();
}

std::optional<message> context::take(std::uint32_t source, std::uint32_t tag) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if (it->source == source && it->tag == tag) {
      message out = std::move(*it);
      inbox_.erase(it);
      inflight_bytes_ -= std::min<std::uint64_t>(inflight_bytes_, out.payload.size());
      return out;
    }
  }
  return std::nullopt;
}

std::vector<message> context::take_all(std::uint32_t tag) {
  std::vector<message> out;
  for (auto it = inbox_.begin(); it != inbox_.end();) {
    if (it->tag == tag) {
      inflight_bytes_ -= std::min<std::uint64_t>(inflight_bytes_, it->payload.size());
      out.push_back(std::move(*it));
      it = inbox_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

machine::machine(std::uint32_t nprocs, std::uint64_t seed) : nprocs_(nprocs), seed_(seed) {
  CGP_EXPECTS(nprocs >= 1);
  if (nprocs == 1) {
    owned_transport_ = std::make_unique<comm::loopback_transport>();
  } else {
    owned_transport_ = std::make_unique<comm::threaded_transport>(nprocs);
  }
  transport_ = owned_transport_.get();
  contexts_.reserve(nprocs);
  for (std::uint32_t i = 0; i < nprocs; ++i)
    contexts_.emplace_back(std::unique_ptr<context>(new context()));
}

machine::machine(comm::transport& transport, std::uint64_t seed)
    : nprocs_(transport.size()), seed_(seed), transport_(&transport) {
  CGP_EXPECTS(nprocs_ >= 1);
  contexts_.reserve(nprocs_);
  for (std::uint32_t i = 0; i < nprocs_; ++i)
    contexts_.emplace_back(std::unique_ptr<context>(new context()));
}

machine::~machine() = default;

run_stats machine::run(const std::function<void(context&)>& program) {
  // Fresh per-run state: contexts, streams, accounting.  The run ordinal
  // keys each processor's stream (rng::processor_run_stream) so repeated
  // runs on one machine draw independently.
  const std::uint64_t ordinal = runs_;
  for (std::uint32_t i = 0; i < nprocs_; ++i) {
    auto& ctx = *contexts_[i];
    ctx.id_ = i;
    ctx.nprocs_ = nprocs_;
    ctx.machine_ = this;
    ctx.endpoint_ = nullptr;
    ctx.engine_ = context::engine_type(rng::processor_run_stream(seed_, i, ordinal));
    ctx.compute_ops_ = ctx.hyp_calls_ = ctx.words_sent_ = ctx.words_received_ = 0;
    ctx.messages_sent_ = ctx.peak_memory_ = ctx.inflight_bytes_ = ctx.supersteps_ = 0;
    ctx.step_ops_ = ctx.step_words_out_ = 0;
    ctx.extra_rng_draws_ = 0;
    ctx.step_log_.clear();
    ctx.inbox_.clear();
  }

  const comm::wire_counters wire_before = transport_->wire();
  transport_->run([this, &program](comm::endpoint& ep) {
    context& ctx = *contexts_[ep.rank()];
    ctx.endpoint_ = &ep;
    program(ctx);
    ctx.endpoint_ = nullptr;
  });
  ++runs_;

  // Zip the per-processor superstep logs into the global records: the BSP
  // discipline guarantees every processor logged the same number of
  // barriers, so step s of every log describes the same superstep.
  std::size_t steps = 0;
  for (const auto& ctx : contexts_) steps = std::max(steps, ctx->step_log_.size());
  std::vector<superstep_record> records(steps);
  for (const auto& ctx : contexts_) {
    CGP_ASSERT(ctx->step_log_.size() == steps && "BSP discipline: unbalanced sync() counts");
    for (std::size_t s = 0; s < steps; ++s) {
      const auto& d = ctx->step_log_[s];
      auto& rec = records[s];
      rec.max_compute = std::max(rec.max_compute, d.ops);
      rec.max_words_out = std::max(rec.max_words_out, d.words_out);
      rec.max_words_in = std::max(rec.max_words_in, d.words_in);
      rec.total_words += d.words_in;
    }
  }

  // Tail segment after the last sync() (compute-only by construction:
  // sends without a following sync are a program bug and stay undelivered).
  superstep_record tail;
  bool tail_used = false;
  for (const auto& ctx : contexts_) {
    if (ctx->step_ops_ > 0) {
      tail.max_compute = std::max(tail.max_compute, ctx->step_ops_);
      tail_used = true;
    }
  }
  if (tail_used) records.push_back(tail);

  run_stats stats;
  stats.per_proc.resize(nprocs_);
  for (std::uint32_t i = 0; i < nprocs_; ++i) {
    auto& ctx = *contexts_[i];
    auto& ps = stats.per_proc[i];
    ps.compute_ops = ctx.compute_ops_;
    ps.words_sent = ctx.words_sent_;
    ps.words_received = ctx.words_received_;
    ps.messages_sent = ctx.messages_sent_;
    ps.rng_draws = ctx.engine_.count() + ctx.extra_rng_draws_;
    ps.hyp_calls = ctx.hyp_calls_;
    ps.peak_memory_bytes = ctx.peak_memory_;
    ps.supersteps = ctx.supersteps_;
  }
  stats.supersteps = std::move(records);
  // Wire-level totals attributable to this run (transports without a
  // physical wire diff to zeros).
  stats.wire = transport_->wire();
  stats.wire -= wire_before;
  return stats;
}

}  // namespace cgp::cgm
