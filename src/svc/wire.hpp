// svc/wire.hpp
//
// The binary RPC front end of the permutation service: `wire_server`
// exposes one svc::server over TCP, `wire_client` is the matching remote
// handle, so a client in another process (or, with a routable address, on
// another host) can submit jobs, pull stream chunks, and poll metrics
// over the wire.
//
// Protocol (length-prefixed request/response; all integers host byte
// order -- same rationale as the transport framing, comm/socket_transport.cpp):
//
//   request:   u32 magic 'CGPR' | u32 opcode | u64 a | u64 b
//              u32 c | u32 flags | u64 body_bytes | [trace ext] | body
//   response:  u32 magic 'CGPA' | u32 status | u64 a | u64 body_bytes | body
//
//   flags bit 0 (0x1): a 24-byte TRACE EXTENSION sits between the header
//   and the body: u64 trace_id | u64 span_id | u64 reserved(0).  It
//   carries the client's obs::trace_context, so the server's handling
//   spans (and the job's executor spans) stitch under the caller's trace
//   across the process boundary.  The flag is only set while the client
//   is tracing; a server that predates it never sees it (old clients send
//   flags = 0), and the extension is pure observability -- it can never
//   change a job's output.
//
//   opcode 1 submit_permutation  a=client_id  b=n
//            -> a=ordinal, body = n u64 items
//   opcode 2 submit_shuffle_raw  a=client_id  b=n  c=elem_bytes
//            body = n*elem_bytes record bytes -> a=ordinal, body = shuffled
//   opcode 3 stream_open         a=client_id  b=n
//            -> a=stream id, body = u64 ordinal
//   opcode 4 stream_pull         a=stream id  b=max_items
//            -> a=items returned (0 = exhausted), body = items u64s
//   opcode 5 metrics_snapshot    -> body = the snapshot JSON document
//   opcode 6 stream_close        a=stream id
//   opcode 7 shard_open          a=client_id  b=n  body = u64 shard | u64 num_shards
//            -> a=stream id, body = u64 ordinal  (pull/close via opcodes 4/6;
//            the stream serves shard `shard` of a cipher-backed permutation
//            of [0, n) -- nothing materialized server-side, O(chunk) pulls)
//   opcode 8 telemetry           a=form: 0 = Prometheus text exposition,
//            1 = the time-series sampler's JSON ring (obs/timeseries.hpp)
//            -> body = the document
//
//   status: 0 ok | 1 rejected (admission) | 2 failed (backend threw)
//           3 bad request (malformed header/body)
//
// Determinism carries over the wire for free: the server executes every
// request through svc::server, so a remote job's output is the same pure
// function of (server_seed, client_id, ordinal) a local submission gets --
// the response's `ordinal` is exactly what a client needs to replay the
// result against a bare context (tests/test_wire.cpp pins this).
//
// Threading: the server runs one acceptor thread plus one handler thread
// per connection (requests on one connection execute in order; concurrency
// comes from concurrent connections feeding the shared scheduler).  The
// acceptor joins handlers whose connection has closed before it starts
// the next one, so a long-lived server holds threads (and their stacks)
// only for live connections; stop() joins the rest.  A
// wire_client is NOT thread-safe -- one in-flight request per client; open
// one client per thread.  Streams opened on a connection die with it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/net.hpp"
#include "obs/timeseries.hpp"
#include "svc/server.hpp"

namespace cgp::svc {

namespace net = cgp::comm::net;  // the shared TCP substrate (comm/net.hpp)

struct wire_server_options {
  server_options svc{};                ///< the wrapped server's options
  const char* address = "127.0.0.1";   ///< bind address (IPv4 dotted quad)
  std::uint16_t port = 0;              ///< 0 = ephemeral; see port()
  /// Period of the owned obs::sampler feeding `telemetry` form 1 (the
  /// JSON ring of registry deltas + rates, sampler_options' default depth
  /// of 120 samples).  0 disables the sampler; form 1 then serves an
  /// empty ring.
  std::uint32_t telemetry_period_ms = 200;
};

/// One svc::server behind a TCP listener.  Starts serving on
/// construction; stop() (idempotent, also run by the destructor) shuts
/// down the listener and every live connection, then closes the service.
class wire_server {
 public:
  explicit wire_server(wire_server_options opt = {});
  ~wire_server();

  wire_server(const wire_server&) = delete;
  wire_server& operator=(const wire_server&) = delete;

  /// The port actually bound (the useful part of an ephemeral bind).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The wrapped service (e.g. for local submissions or close()).
  [[nodiscard]] server& service() noexcept { return srv_; }

  /// Live connections right now (diagnostics; racy by nature).
  [[nodiscard]] std::size_t connections() const;

  /// The owned time-series sampler (nullptr when telemetry_period_ms = 0).
  [[nodiscard]] obs::sampler* telemetry_sampler() noexcept { return sampler_.get(); }

  void stop();

 private:
  void accept_loop();
  void serve(std::uint64_t conn_id, net::socket_fd fd);

  server srv_;
  net::listener listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<obs::sampler> sampler_;  ///< feeds telemetry form 1

  mutable std::mutex m_;
  bool stopping_ = false;
  std::uint64_t next_conn_ = 1;
  std::unordered_map<std::uint64_t, int> live_;  ///< conn id -> raw fd (for stop)
  std::unordered_map<std::uint64_t, std::thread> conns_;  ///< conn id -> handler
  std::vector<std::uint64_t> finished_;  ///< handlers that returned, not yet joined
  std::thread acceptor_;
};

class wire_client;

/// Remote pull-mode stream: the wire twin of svc::stream.  Chunks arrive
/// via stream_pull round trips; close() releases the server-side stream
/// (otherwise it is released when the client disconnects).
class remote_stream {
 public:
  /// Pull up to out.size() items; returns items written (0 = exhausted).
  std::size_t read(std::span<std::uint64_t> out);

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t ordinal() const noexcept { return ordinal_; }

  /// Release the server-side stream (idempotent).
  void close();

 private:
  friend class wire_client;
  remote_stream(wire_client* c, std::uint64_t id, std::uint64_t n, std::uint64_t ordinal)
      : c_(c), id_(id), n_(n), ordinal_(ordinal) {}

  wire_client* c_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t n_ = 0;
  std::uint64_t ordinal_ = 0;
  bool closed_ = false;
};

/// Blocking remote handle to a wire_server.  Every method is one
/// request/response round trip; rejected / failed / malformed outcomes
/// surface as std::runtime_error.  Not thread-safe.
class wire_client {
 public:
  wire_client(const std::string& host, std::uint16_t port);

  /// Sample a permutation of {0..n-1} on the server.  The job's ordinal
  /// (for replay against a bare context) lands in *ordinal_out if given.
  [[nodiscard]] permutation fetch_permutation(std::uint64_t client_id, std::uint64_t n,
                                              std::uint64_t* ordinal_out = nullptr);

  /// Shuffle n records of elem_bytes in place (records travel both ways).
  void shuffle_raw(std::uint64_t client_id, void* data, std::uint64_t n,
                   std::uint32_t elem_bytes, std::uint64_t* ordinal_out = nullptr);

  template <typename T>
  void shuffle(std::uint64_t client_id, std::span<T> data,
               std::uint64_t* ordinal_out = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    shuffle_raw(client_id, data.data(), data.size(), static_cast<std::uint32_t>(sizeof(T)),
                ordinal_out);
  }

  /// Open a server-side stream job of n items for chunked pulls.
  [[nodiscard]] remote_stream open_stream(std::uint64_t client_id, std::uint64_t n);

  /// Open shard `shard` of `num_shards` of a fresh cipher-backed
  /// permutation of [0, n) (server::submit_shard over the wire): pulls
  /// deliver the window pi[lo..hi) with nothing materialized server-side.
  /// The returned stream's size() is the shard length (prp::shard_bounds
  /// geometry, computed client-side -- both ends share the constexpr
  /// helper); replay locally as prp::cipher(job_seed(seed, client_id,
  /// ordinal()), n).shard(shard, num_shards).
  [[nodiscard]] remote_stream open_shard(std::uint64_t client_id, std::uint64_t n,
                                         std::uint64_t shard, std::uint64_t num_shards);

  /// The server's metrics_snapshot() JSON document.
  [[nodiscard]] std::string metrics_snapshot();

  /// Which document `telemetry()` fetches.
  enum class telemetry_form : std::uint32_t {
    prometheus = 0,  ///< Prometheus text exposition (obs/exposition.hpp)
    json_ring = 1,   ///< the sampler's JSON ring (obs/timeseries.hpp)
  };

  /// The server process's telemetry document (opcode 8): the whole
  /// registry -- every server, transport, and engine in that process --
  /// not just the wrapped svc::server.
  [[nodiscard]] std::string telemetry(telemetry_form form = telemetry_form::prometheus);

 private:
  friend class remote_stream;

  /// An ok response whose body is still on the socket.
  struct answer {
    std::uint64_t a = 0;
    std::uint64_t body_bytes = 0;
  };
  /// Send one request and read its response header.  Throws on transport
  /// failure, a malformed header or a non-ok status (whose body is read
  /// and dropped first); the caller reads or refuses the body.
  answer request(std::uint32_t opcode, std::uint64_t a, std::uint64_t b, std::uint32_t c,
                 std::span<const std::byte> body);
  /// Read the body of `ans` into `dst`, which holds at least its bytes.
  void read_body(const answer& ans, void* dst);
  /// Drop the body of `ans` and throw `what`: the response does not match
  /// its request.
  [[noreturn]] void refuse(const answer& ans, const char* what);
  struct reply {
    std::uint64_t a = 0;
    std::vector<std::byte> body;
  };
  /// One round trip whose body lands in a fresh vector.
  reply call(std::uint32_t opcode, std::uint64_t a, std::uint64_t b, std::uint32_t c,
             std::span<const std::byte> body);

  net::socket_fd fd_;
};

}  // namespace cgp::svc
