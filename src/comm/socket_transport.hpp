// comm/socket_transport.hpp
//
// The TCP transport: the first comm backend whose ranks talk through a
// real wire.  It implements the exact endpoint/transport BSP contract of
// comm/transport.hpp over a full mesh of loopback TCP connections (one
// per rank pair, built once in the constructor), so everything above the
// transport -- the distributed shuffle, the collectives, cgm::machine's
// accounting -- runs unchanged and bit-identically.
//
// Ranks are the workers of a thread pool the transport owns (what CI can
// exercise), and each rank's endpoint -- its aggregation, outgoing and
// incoming buffers -- is built with the mesh and lives as long as the
// transport: buffers keep their high-water capacity across runs, and
// `run` only resets the superstep state.  One program runs at a time, and
// supersteps are numbered across programs.
// The framing deliberately never assumes shared memory: every frame is
// self-describing
// ((source, superstep, flags) header + length-prefixed records), byte
// order is the host's on both ends of a loopback cable, and no memory is
// shared through the transport itself.  A multi-process harness would
// swap the constructor's mesh for connect/accept across hosts and keep
// the wire format verbatim.
//
// Aggregation (the Grappa RDMAAggregator idea): `send` does not write to
// the socket -- it appends a (tag, length, payload) record to a
// per-destination aggregation buffer, and the buffer is cut into one wire
// frame when it reaches 60 KiB (flush-on-size) or at `exchange()`
// (flush-on-sync, carrying the superstep-final FIN flag).  Many small
// sends therefore cost one syscall and one header, not one each.
//
// Large bodies (64 KiB or more) cross without a user-space copy: a
// `send_owned` body whose record cuts a frame by size is written with
// `sendmsg` straight from the caller's vector behind the frame's header,
// and a frame carrying one such record is received straight into the
// message's payload.  The frames on the wire are the same as with `send`.
// A body written in full goes back to the endpoint's `buffers()`, and a
// large body is received into a vector taken from there.
//
// exchange() is a distributed barrier without any central step: each rank
// flushes a FIN-flagged frame to every peer, then runs a poll() loop that
// simultaneously drains its outgoing queues and parses incoming frames
// until every peer's FIN for this superstep has arrived.  Handling reads
// and writes in one loop is what makes large bidirectional volumes
// deadlock-free (neither side ever sits in a blocking write while its
// receive buffer fills).  A peer may already be in superstep s+1 while we
// finish s (its FIN(s+1) needs nothing from us beyond our FIN(s)), so
// frames one step ahead are stashed; more than one step ahead is
// impossible by the same dependency argument and asserts.  A frame from an
// earlier superstep can only be a send a previous program posted after
// its last exchange (a large one is cut and partly written at once); it
// is dropped, as a fresh transport would drop it.
//
// Failure: a rank program that throws, or a peer socket that reaches EOF
// mid-superstep, aborts the process loudly (matching threaded_transport's
// crashed-rank policy) instead of wedging the remaining ranks at the
// barrier.
//
// Tracing: while obs tracing is on, each cut frame carries the cutting
// rank's obs::trace_context in an optional 24-byte extension (frame flag
// bit 1) between header and body, and rank threads inherit the caller's
// context from run() -- so every rank's "exchange" spans, and anything a
// parsed frame triggers on a context-free thread (obs::adopt_trace),
// stitch into the one trace that submitted the job.  Old peers never see
// the extension (the flag is only set while tracing), and it cannot
// affect delivered messages -- observability only.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "comm/net.hpp"
#include "comm/transport.hpp"

namespace cgp::comm {

namespace detail {
struct socket_wire_counters;  // atomic backing of wire() (socket_transport.cpp)
class socket_endpoint;        // one rank's buffers and superstep state
}  // namespace detail

class socket_transport final : public transport {
 public:
  /// Builds everything a run needs eagerly: the rank-pair connection mesh
  /// (ranks*(ranks-1)/2 TCP connections over 127.0.0.1), one endpoint per
  /// rank, and a pool of `ranks` rank threads.  `run` only resets the
  /// endpoints and hands each rank program to a pool worker.
  explicit socket_transport(std::uint32_t ranks);
  ~socket_transport() override;

  [[nodiscard]] std::uint32_t size() const noexcept override { return ranks_; }
  [[nodiscard]] const char* name() const noexcept override { return "socket"; }
  void run(const std::function<void(endpoint&)>& program) override;
  [[nodiscard]] wire_counters wire() const noexcept override;

 private:
  std::uint32_t ranks_;
  /// conn_[r][peer]: rank r's socket to `peer` (invalid on the diagonal).
  std::vector<std::vector<net::socket_fd>> conn_;
  std::unique_ptr<detail::socket_wire_counters> counters_;
  std::vector<std::unique_ptr<detail::socket_endpoint>> endpoints_;  // endpoints_[r]: rank r
  std::unique_ptr<smp::thread_pool> pool_;  // the rank threads
  std::mutex run_mutex_;                    // one program at a time
};

}  // namespace cgp::comm
