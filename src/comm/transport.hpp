// comm/transport.hpp
//
// The pluggable communication layer of the distributed CGM engine: every
// way of moving bytes between ranks -- the in-process loopback, the
// thread-pool mailbox exchange, a future MPI / RDMA / socket backend --
// implements this one interface, and everything above it (cgm::machine's
// accounting adapter, the distributed shuffle of cgm/distributed.hpp, the
// collectives) is transport-agnostic.
//
// The model is BSP, matching the paper's coarse-grained machine:
//
//   * `send` POSTS a message; nothing is visible remotely yet;
//   * `exchange` is the superstep barrier: every rank arrives, all posted
//     messages are routed (deterministically, in source-rank order), and
//     each rank returns with exactly the messages addressed to it;
//   * `alltoallv` is the one-superstep personalized all-to-all (the
//     h-relation of Algorithm 1), default-implemented on send/exchange so
//     a native transport (MPI_Alltoallv) can override it.
//
// Determinism contract: delivery order depends only on (source rank, post
// order), never on thread scheduling -- this is what makes every engine
// built on a transport bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace cgp::smp {
class thread_pool;
}  // namespace cgp::smp

namespace cgp::comm {

/// A delivered point-to-point message (the wire unit of every transport).
struct message {
  std::uint32_t source = 0;
  std::uint32_t tag = 0;
  std::vector<std::byte> payload;

  /// Reinterpret the payload as a vector of trivially copyable T.
  template <typename T>
  [[nodiscard]] std::vector<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    CGP_EXPECTS(payload.size() % sizeof(T) == 0);
    std::vector<T> out(payload.size() / sizeof(T));
    // Empty messages are legal (empty vectors have null data()); memcpy's
    // pointer arguments must not be null even for size 0.
    if (!payload.empty()) std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }
};

/// Byte vectors kept for reuse, Grappa's `LocalVector::reserve` rule: a
/// kept vector keeps its capacity, so a body of the size it held before
/// needs no allocation and faults in no page.  Every endpoint owns one
/// (`endpoint::buffers`).  Not thread-safe: one owner per pool.
class vector_pool {
 public:
  /// A vector of `n` bytes with unspecified contents: the kept one of
  /// least capacity that holds `n`, else the largest kept one, else a new
  /// one.  Only bytes past the vector's old size are zero-filled.
  [[nodiscard]] std::vector<std::byte> take(std::size_t n);

  /// Keep `v` for a later `take`.  At `cap` kept vectors, `v` replaces
  /// the one of least capacity if it has more, and is freed otherwise, so
  /// small payloads never displace the large buffers.  A vector without
  /// capacity is dropped.
  void give(std::vector<std::byte>&& v, std::size_t cap);

 private:
  std::vector<std::vector<std::byte>> kept_;
};

/// Per-rank handle of a running transport: identity plus the BSP
/// messaging primitives.  Valid only inside `transport::run`.
class endpoint {
 public:
  virtual ~endpoint() = default;

  [[nodiscard]] virtual std::uint32_t rank() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t size() const noexcept = 0;

  /// Post `bytes` for `dest`; delivered by the next `exchange()`.
  virtual void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) = 0;

  /// Post `bytes` like `send`, handing the vector to the transport, which
  /// may deliver it or write it to the wire without a copy: the in-process
  /// transports move it into the message, the socket transport writes a
  /// large body straight from it.  The default copies through `send` and
  /// leaves `bytes` as it was, so a decorator that overrides only `send`
  /// still sees every byte.  (A distinct name rather than an overload of
  /// `send`, so such a decorator hides no virtual function.)
  virtual void send_owned(std::uint32_t dest, std::uint32_t tag, std::vector<std::byte>&& bytes) {
    send(dest, tag, std::span<const std::byte>(bytes));
  }

  /// Superstep barrier: block until every rank has arrived, then return
  /// the messages posted to this rank during the step, ordered by
  /// (source rank, post order).
  [[nodiscard]] virtual std::vector<message> exchange() = 0;

  /// Barrier without receiving.  Calling this with data in flight would
  /// silently discard delivered messages, so it asserts the exchange came
  /// back empty: a program that posts sends and then barriers is a bug
  /// that must fail loudly, not lose data (use `exchange` instead).
  void barrier() {
    const std::vector<message> delivered = exchange();
    CGP_EXPECTS(delivered.empty() && "barrier() crossed in-flight messages; use exchange()");
  }

  /// One-superstep personalized all-to-all: `chunks[d]` goes to rank d;
  /// returns the p received chunks indexed by source rank.  Default
  /// implementation posts p sends and exchanges; native transports may
  /// override with their own collective.
  [[nodiscard]] virtual std::vector<std::vector<std::byte>> alltoallv(
      std::span<const std::vector<std::byte>> chunks);

  /// Typed convenience over `send`.
  template <typename T>
  void send_span(std::uint32_t dest, std::uint32_t tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag,
         std::span<const std::byte>(reinterpret_cast<const std::byte*>(values.data()),
                                    values.size_bytes()));
  }

  /// Byte vectors kept for reuse by this rank, at most 2p of them: the
  /// distributed shuffle stages its messages in them and gives back every
  /// payload it has placed; the socket endpoint gives back each body it
  /// finished writing and receives the next large body into one.  They
  /// live as long as the endpoint: one run for the in-process transports,
  /// the transport's life for the socket transport.  A decorator has a
  /// pool of its own.
  [[nodiscard]] vector_pool& buffers() noexcept { return buffers_; }

 private:
  vector_pool buffers_;
};

/// Wire-level traffic totals of a transport: what actually crossed the
/// cable, as opposed to the logical send/exchange counts of the obs
/// `comm.*` counters.  Meaningful for transports with a physical wire and
/// an aggregation layer (the socket transport); the in-process transports
/// report zeros (their "wire" is a memcpy).  Monotone over the transport's
/// lifetime -- diff snapshots to attribute traffic to one run.
struct wire_counters {
  std::uint64_t messages = 0;      ///< messages posted through send()
  std::uint64_t frames = 0;        ///< wire frames actually emitted
  std::uint64_t wire_bytes = 0;    ///< framed bytes (headers + records)
  std::uint64_t flushes_size = 0;  ///< frames cut by the size threshold
  std::uint64_t flushes_sync = 0;  ///< frames cut at exchange()

  wire_counters& operator-=(const wire_counters& o) noexcept {
    messages -= o.messages;
    frames -= o.frames;
    wire_bytes -= o.wire_bytes;
    flushes_size -= o.flushes_size;
    flushes_sync -= o.flushes_sync;
    return *this;
  }
};

namespace detail {
/// The process-wide BSP traffic totals (`comm.messages`, `comm.bytes`,
/// `comm.exchanges`) every endpoint implementation records on send and
/// exchange.
void count_send(std::size_t bytes);
void count_exchange();
}  // namespace detail

/// A communication substrate for `size()` ranks.  `run` executes the SPMD
/// program once, giving every rank its endpoint; it may be called
/// repeatedly (each run is an independent BSP computation).
class transport {
 public:
  virtual ~transport() = default;

  [[nodiscard]] virtual std::uint32_t size() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Execute `program(ep)` on every rank and wait for completion.
  /// Programs must reach the same number of `exchange()` calls on every
  /// rank (BSP discipline); violations deadlock by construction, as on a
  /// real machine.  One program at a time: concurrent callers wait.
  virtual void run(const std::function<void(endpoint&)>& program) = 0;

  /// Lifetime wire traffic totals (zeros for transports without a wire).
  [[nodiscard]] virtual wire_counters wire() const noexcept { return {}; }
};

/// The p = 1 transport: the program runs inline on the calling thread, no
/// worker threads, no locks; sends loop straight back to the only rank.
/// The degenerate case every distributed engine must handle -- and the
/// default substrate for single-rank `backend::cgm` runs, where the
/// engine's output bit-matches `backend::sequential`.
class loopback_transport final : public transport {
 public:
  [[nodiscard]] std::uint32_t size() const noexcept override { return 1; }
  [[nodiscard]] const char* name() const noexcept override { return "loopback"; }
  void run(const std::function<void(endpoint&)>& program) override;
};

/// p ranks on an smp::thread_pool with mailbox exchange: every rank is a
/// long-running pool task; `exchange` is a std::barrier whose completion
/// step routes all staged mailboxes in rank order (the machinery that
/// used to live inside cgm::machine -- the simulator is now just one
/// client of this transport).  Pass a pool with at least `ranks` workers
/// to share threads with other subsystems, or let the transport own a
/// dedicated pool (ranks are *virtual*: they may oversubscribe the
/// physical cores, exactly like the paper's virtual processors).
///
/// A rank program that throws would wedge the barrier like a crashed MPI
/// rank wedges a job; the transport aborts loudly instead.
class threaded_transport final : public transport {
 public:
  explicit threaded_transport(std::uint32_t ranks, smp::thread_pool* pool = nullptr);
  ~threaded_transport() override;

  [[nodiscard]] std::uint32_t size() const noexcept override { return ranks_; }
  [[nodiscard]] const char* name() const noexcept override { return "threaded"; }
  void run(const std::function<void(endpoint&)>& program) override;

 private:
  std::uint32_t ranks_;
  smp::thread_pool* pool_;                     // the pool ranks run on
  std::unique_ptr<smp::thread_pool> owned_;    // set when we made it ourselves
  std::mutex run_mutex_;                       // one program at a time
};

}  // namespace cgp::comm
