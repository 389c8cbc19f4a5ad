#include "comm/transport.hpp"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <exception>
#include <future>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smp/thread_pool.hpp"

namespace cgp::comm {

void detail::count_send(std::size_t bytes) {
  static obs::counter& messages = obs::get_counter("comm.messages");
  static obs::counter& traffic = obs::get_counter("comm.bytes");
  messages.add();
  traffic.add(bytes);
}

void detail::count_exchange() {
  static obs::counter& exchanges = obs::get_counter("comm.exchanges");
  exchanges.add();
}

std::vector<std::byte> vector_pool::take(std::size_t n) {
  std::vector<std::byte> v;
  if (!kept_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kept_.size(); ++i) {
      const std::size_t c = kept_[i].capacity();
      const std::size_t b = kept_[best].capacity();
      if (c >= n ? (b < n || c < b) : (b < n && c > b)) best = i;
    }
    std::swap(kept_[best], kept_.back());
    v = std::move(kept_.back());
    kept_.pop_back();
  }
  if (v.capacity() < n) {
    // Growing: nothing worth copying, and room for the next body to be a
    // little larger than this one without another allocation.
    v.clear();
    v.reserve(n + n / 8);
  }
  v.resize(n);
  return v;
}

void vector_pool::give(std::vector<std::byte>&& v, std::size_t cap) {
  if (v.capacity() == 0) return;
  if (kept_.size() < cap) {
    kept_.push_back(std::move(v));
    return;
  }
  // Full: the larger vector is the one whose allocation would fault.
  const auto smallest = std::min_element(kept_.begin(), kept_.end(), [](const auto& x, const auto& y) {
    return x.capacity() < y.capacity();
  });
  if (smallest != kept_.end() && smallest->capacity() < v.capacity()) *smallest = std::move(v);
}

std::vector<std::vector<std::byte>> endpoint::alltoallv(
    std::span<const std::vector<std::byte>> chunks) {
  CGP_EXPECTS(chunks.size() == size());
  // Reserved tag far above the cgm collective block (0xC011'xxxx).
  constexpr std::uint32_t kTagAllToAll = 0xA110'0001;
  for (std::uint32_t d = 0; d < size(); ++d) {
    send(d, kTagAllToAll, std::span<const std::byte>(chunks[d]));
  }
  std::vector<std::vector<std::byte>> received(size());
  for (auto& msg : exchange()) {
    CGP_ASSERT(msg.tag == kTagAllToAll && "alltoallv crossed foreign in-flight messages");
    received[msg.source] = std::move(msg.payload);
  }
  return received;
}

namespace {

/// The single-rank endpoint: staged sends simply become the next
/// exchange's delivery (post order == source order trivially).
class loopback_endpoint final : public endpoint {
 public:
  [[nodiscard]] std::uint32_t rank() const noexcept override { return 0; }
  [[nodiscard]] std::uint32_t size() const noexcept override { return 1; }

  void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
    send_owned(dest, tag, std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  void send_owned(std::uint32_t dest, std::uint32_t tag, std::vector<std::byte>&& bytes) override {
    CGP_EXPECTS(dest == 0);
    detail::count_send(bytes.size());
    message msg;
    msg.source = 0;
    msg.tag = tag;
    msg.payload = std::move(bytes);
    staged_.push_back(std::move(msg));
  }

  [[nodiscard]] std::vector<message> exchange() override {
    detail::count_exchange();
    return std::exchange(staged_, {});
  }

 private:
  std::vector<message> staged_;
};

}  // namespace

void loopback_transport::run(const std::function<void(endpoint&)>& program) {
  loopback_endpoint ep;
  program(ep);
}

namespace {

/// One rank's mailbox of the threaded transport.  `outbox_` stages this
/// rank's posts (message.source holds the *destination* while staged);
/// the barrier's completion step routes every outbox in rank order into
/// the destinations' `delivered_`, which `exchange` then hands to the
/// rank program.  All cross-rank access happens in the completion step,
/// where every rank is parked at the barrier -- no locks needed.
struct mailbox {
  std::vector<message> outbox_;
  std::vector<message> delivered_;
};

struct threaded_run_state {
  explicit threaded_run_state(std::uint32_t ranks)
      : boxes(ranks), barrier(static_cast<std::ptrdiff_t>(ranks), router{this}) {}

  void route() {
    for (std::uint32_t src = 0; src < boxes.size(); ++src) {
      for (auto& staged : boxes[src].outbox_) {
        const std::uint32_t dest = staged.source;
        message delivered;
        delivered.source = src;
        delivered.tag = staged.tag;
        delivered.payload = std::move(staged.payload);
        boxes[dest].delivered_.push_back(std::move(delivered));
      }
      boxes[src].outbox_.clear();
    }
  }

  struct router {
    threaded_run_state* state;
    void operator()() noexcept { state->route(); }
  };

  std::vector<mailbox> boxes;
  std::barrier<router> barrier;
};

class threaded_endpoint final : public endpoint {
 public:
  threaded_endpoint(threaded_run_state& state, std::uint32_t rank, std::uint32_t ranks)
      : state_(state), rank_(rank), ranks_(ranks) {}

  [[nodiscard]] std::uint32_t rank() const noexcept override { return rank_; }
  [[nodiscard]] std::uint32_t size() const noexcept override { return ranks_; }

  void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
    send_owned(dest, tag, std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  void send_owned(std::uint32_t dest, std::uint32_t tag, std::vector<std::byte>&& bytes) override {
    CGP_EXPECTS(dest < ranks_);
    detail::count_send(bytes.size());
    message msg;
    msg.source = dest;  // destination while staged; fixed by the router
    msg.tag = tag;
    msg.payload = std::move(bytes);
    state_.boxes[rank_].outbox_.push_back(std::move(msg));
  }

  [[nodiscard]] std::vector<message> exchange() override {
    detail::count_exchange();
    const obs::span sp("exchange", "exchange");
    state_.barrier.arrive_and_wait();
    return std::exchange(state_.boxes[rank_].delivered_, {});
  }

 private:
  threaded_run_state& state_;
  std::uint32_t rank_;
  std::uint32_t ranks_;
};

}  // namespace

threaded_transport::threaded_transport(std::uint32_t ranks, smp::thread_pool* pool)
    : ranks_(ranks), pool_(pool) {
  CGP_EXPECTS(ranks >= 1);
  if (pool_ == nullptr) {
    owned_ = std::make_unique<smp::thread_pool>(ranks);
    pool_ = owned_.get();
  }
  // Every rank occupies one worker for the whole run (they block at the
  // exchange barrier); a smaller pool would deadlock by starvation.
  CGP_EXPECTS(pool_->size() >= ranks);
}

threaded_transport::~threaded_transport() = default;

void threaded_transport::run(const std::function<void(endpoint&)>& program) {
  // Two programs' rank tasks interleaved on the pool would leave each
  // barrier waiting for ranks that cannot start.
  const std::lock_guard<std::mutex> lock(run_mutex_);
  threaded_run_state state(ranks_);
  // Pool threads inherit the caller's trace context for the duration of
  // their rank program, so per-rank spans stitch under the calling job.
  const obs::trace_context caller = obs::current_trace();
  std::vector<std::future<void>> done;
  done.reserve(ranks_);
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    done.push_back(pool_->submit([this, r, &state, &program, caller] {
      const obs::trace_scope trace_guard(caller);
      threaded_endpoint ep(state, r, ranks_);
      try {
        program(ep);
      } catch (const std::exception& e) {
        // A throwing rank would deadlock the exchange barrier, exactly
        // like a crashed rank wedges an MPI job; fail fast and loudly.
        std::fprintf(stderr, "cgmperm: uncaught exception on transport rank %u: %s\n", r,
                     e.what());
        std::abort();
      } catch (...) {
        std::fprintf(stderr, "cgmperm: uncaught exception on transport rank %u\n", r);
        std::abort();
      }
    }));
  }
  for (auto& f : done) f.get();
}

}  // namespace cgp::comm
