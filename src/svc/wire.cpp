#include "svc/wire.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace cgp::svc {

namespace {

constexpr std::uint32_t kReqMagic = 0x52504743u;   // "CGPR" as LE bytes
constexpr std::uint32_t kRespMagic = 0x41504743u;  // "CGPA" as LE bytes

enum opcode : std::uint32_t {
  kOpPermutation = 1,
  kOpShuffleRaw = 2,
  kOpStreamOpen = 3,
  kOpStreamPull = 4,
  kOpMetrics = 5,
  kOpStreamClose = 6,
  kOpShardOpen = 7,
  kOpTelemetry = 8,
};

/// Request flags (the header field old clients always send as 0).
constexpr std::uint32_t kReqFlagTrace = 0x1u;  ///< trace extension follows header

enum status : std::uint32_t {
  kOk = 0,
  kRejected = 1,
  kFailed = 2,
  kBadRequest = 3,
};

/// Upper bound on any request/response body: a malformed or hostile
/// length prefix must not become an allocation.  Shuffle payloads above
/// this belong on the BSP transport, not the RPC plane.
constexpr std::uint64_t kMaxBody = std::uint64_t{1} << 31;

/// Cap on one stream_pull: the whole point of streams is O(chunk) memory
/// at both ends, so a pull is bounded no matter what max_items asks.
constexpr std::uint64_t kMaxPullItems = std::uint64_t{1} << 22;  // 32 MiB of u64

struct rpc_request_header {
  std::uint32_t magic = kReqMagic;
  std::uint32_t opcode = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t flags = 0;  ///< kReqFlag* bits (was reserved; old peers send 0)
  std::uint64_t body_bytes = 0;
};
static_assert(sizeof(rpc_request_header) == 40);
static_assert(std::is_trivially_copyable_v<rpc_request_header>);

/// Static-storage span name per opcode (ring slots store the pointer).
[[nodiscard]] const char* op_span_name(std::uint32_t op) noexcept {
  switch (op) {
    case kOpPermutation: return "wire.permutation";
    case kOpShuffleRaw: return "wire.shuffle_raw";
    case kOpStreamOpen: return "wire.stream_open";
    case kOpStreamPull: return "wire.stream_pull";
    case kOpMetrics: return "wire.metrics";
    case kOpStreamClose: return "wire.stream_close";
    case kOpShardOpen: return "wire.shard_open";
    case kOpTelemetry: return "wire.telemetry";
    default: return "wire.unknown";
  }
}

struct rpc_response_header {
  std::uint32_t magic = kRespMagic;
  std::uint32_t status = kOk;
  std::uint64_t a = 0;
  std::uint64_t body_bytes = 0;
};
static_assert(sizeof(rpc_response_header) == 24);
static_assert(std::is_trivially_copyable_v<rpc_response_header>);

[[nodiscard]] std::uint32_t status_of(job_status s) noexcept {
  switch (s) {
    case job_status::done: return kOk;
    case job_status::rejected: return kRejected;
    default: return kFailed;
  }
}

/// Send one response; false when the connection is gone (caller drops it).
[[nodiscard]] bool respond(int fd, std::uint32_t status, std::uint64_t a,
                           std::span<const std::byte> body) {
  rpc_response_header h;
  h.status = status;
  h.a = a;
  h.body_bytes = body.size();
  if (!net::write_all(fd, &h, sizeof(h))) return false;
  if (!body.empty() && !net::write_all(fd, body.data(), body.size())) return false;
  return true;
}

/// Whether the header declares a body its opcode can carry: b records of
/// c >= 1 bytes for shuffle_raw, (shard, num_shards) for shard_open, and
/// nothing for every other opcode.
[[nodiscard]] bool body_fits(const rpc_request_header& h) noexcept {
  switch (h.opcode) {
    case kOpShuffleRaw:
      return h.c != 0 && h.b <= kMaxBody / h.c && h.b * h.c == h.body_bytes;
    case kOpShardOpen: return h.body_bytes == 2 * sizeof(std::uint64_t);
    default: return h.body_bytes == 0;
  }
}

/// Read and drop `len` body bytes through a fixed buffer, so a declared
/// length never becomes an allocation; false when the connection is gone.
[[nodiscard]] bool discard_body(int fd, std::uint64_t len) {
  std::array<std::byte, 64 * 1024> sink;
  while (len > 0) {
    const std::size_t step = static_cast<std::size_t>(std::min<std::uint64_t>(len, sink.size()));
    if (!net::read_exact(fd, sink.data(), step)) return false;
    len -= step;
  }
  return true;
}

[[nodiscard]] std::span<const std::byte> as_bytes_of(const permutation& pi) noexcept {
  return {reinterpret_cast<const std::byte*>(pi.data()), pi.size() * sizeof(std::uint64_t)};
}

}  // namespace

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

wire_server::wire_server(wire_server_options opt)
    : srv_(opt.svc), listener_(net::listen_tcp(opt.address, opt.port)) {
  port_ = listener_.port;
  if (opt.telemetry_period_ms > 0) {
    obs::sampler_options so;
    so.period_ms = opt.telemetry_period_ms;
    sampler_ = std::make_unique<obs::sampler>(so);
    sampler_->start();
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

wire_server::~wire_server() { stop(); }

std::size_t wire_server::connections() const {
  const std::lock_guard<std::mutex> lock(m_);
  return live_.size();
}

void wire_server::accept_loop() {
  for (;;) {
    net::socket_fd c = net::accept_tcp(listener_.fd.get());
    if (!c.valid()) return;  // listener shut down: stopping
    // Reap the handlers that have returned since the last accept: each
    // one still holds its thread's stack until it is joined.
    std::vector<std::thread> done;
    {
      const std::lock_guard<std::mutex> lock(m_);
      for (const std::uint64_t id : finished_) {
        const auto it = conns_.find(id);
        done.push_back(std::move(it->second));
        conns_.erase(it);
      }
      finished_.clear();
    }
    for (auto& t : done) t.join();

    const std::lock_guard<std::mutex> lock(m_);
    if (stopping_) return;
    net::set_nodelay(c.get());
    const std::uint64_t id = next_conn_++;
    live_.emplace(id, c.get());
    conns_.emplace(id, std::thread([this, id, fd = std::move(c)]() mutable {
      serve(id, std::move(fd));
    }));
    static obs::counter& accepted = obs::get_counter("svc.wire.connections");
    accepted.add();
  }
}

void wire_server::stop() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    if (stopping_) return;  // another caller owns the teardown
    stopping_ = true;
  }
  // Wake the acceptor (shutdown on a listening socket unblocks accept),
  // then every connection handler blocked in a read.
  if (listener_.fd.valid()) ::shutdown(listener_.fd.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  std::unordered_map<std::uint64_t, std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(m_);
    for (const auto& [id, fd] : live_) ::shutdown(fd, SHUT_RDWR);
    to_join.swap(conns_);
  }
  for (auto& [id, t] : to_join) t.join();
  if (sampler_ != nullptr) sampler_->stop();
  srv_.close();
}

void wire_server::serve(std::uint64_t conn_id, net::socket_fd fd) {
  static obs::counter& requests = obs::get_counter("svc.wire.requests");
  static obs::counter_family& bytes_by = obs::get_counter_family("svc.wire.bytes.by_client");
  // Streams are per-connection state: a client that disconnects (or never
  // closes) leaks nothing past its handler thread.
  std::unordered_map<std::uint64_t, stream> streams;
  std::uint64_t next_stream = 1;
  std::vector<std::uint64_t> pull_buf;

  const int s = fd.get();
  for (;;) {
    rpc_request_header h;
    if (!net::read_exact(s, &h, sizeof(h))) break;  // client hung up: normal
    if (h.magic != kReqMagic || h.body_bytes > kMaxBody) break;  // protocol breach: drop
    obs::trace_ext ext{};
    if ((h.flags & kReqFlagTrace) != 0 && !net::read_exact(s, &ext, sizeof(ext))) break;
    // Only a body the opcode can carry is allocated (never zero-filled);
    // any other is drained and answered as a bad request below.
    const bool fits = body_fits(h);
    std::unique_ptr<std::byte[]> storage;
    if (fits) {
      storage = std::make_unique_for_overwrite<std::byte[]>(static_cast<std::size_t>(h.body_bytes));
      if (h.body_bytes != 0 && !net::read_exact(s, storage.get(), h.body_bytes)) break;
    } else if (!discard_body(s, h.body_bytes)) {
      break;
    }
    const std::span<std::byte> body(storage.get(), fits ? h.body_bytes : 0);
    requests.add();

    // Handle under the caller's trace: the scope installs the deserialized
    // context (a no-op {0,0} for untraced peers), the span parents under
    // the client's wire.call span, and everything the request triggers --
    // scheduler, executor, transport ranks -- stitches below it.
    const obs::trace_scope trace_guard(obs::trace_context{ext.trace_id, ext.span_id});
    const obs::span sp(op_span_name(h.opcode), "wire");
    // Per-tenant wire traffic, where the request names a client (streams
    // resolve their owner through the server-side stream handle).
    const auto note_bytes = [&](std::uint64_t client, std::uint64_t resp_body) {
      bytes_by.with(client).add(sizeof(rpc_request_header) + h.body_bytes +
                                sizeof(rpc_response_header) + resp_body);
    };

    if (!fits) {
      if (!respond(s, kBadRequest, 0, {})) break;
      continue;
    }
    bool alive = true;
    switch (h.opcode) {
      case kOpPermutation: {
        future<permutation> fut = srv_.submit_permutation(h.a, h.b);
        const job_status js = fut.wait();
        if (js == job_status::done) {
          const permutation pi = fut.get();
          note_bytes(h.a, pi.size() * sizeof(std::uint64_t));
          alive = respond(s, kOk, fut.ordinal(), as_bytes_of(pi));
        } else {
          note_bytes(h.a, 0);
          alive = respond(s, status_of(js), fut.ordinal(), {});
        }
        break;
      }
      case kOpShuffleRaw: {
        future<void> fut = srv_.submit_shuffle_raw(h.a, body.data(), h.b, h.c);
        const job_status js = fut.wait();
        note_bytes(h.a, js == job_status::done ? body.size() : 0);
        alive = respond(s, status_of(js), fut.ordinal(),
                        js == job_status::done ? std::span<const std::byte>(body)
                                               : std::span<const std::byte>{});
        break;
      }
      case kOpStreamOpen: {
        stream st = srv_.submit_stream(h.a, h.b);
        const job_status js = st.wait();
        note_bytes(h.a, js == job_status::done ? sizeof(std::uint64_t) : 0);
        if (js != job_status::done) {
          alive = respond(s, status_of(js), st.ordinal(), {});
          break;
        }
        const std::uint64_t ordinal = st.ordinal();
        const std::uint64_t id = next_stream++;
        streams.emplace(id, std::move(st));
        alive = respond(s, kOk, id,
                        {reinterpret_cast<const std::byte*>(&ordinal), sizeof(ordinal)});
        break;
      }
      case kOpShardOpen: {
        std::uint64_t shard = 0;
        std::uint64_t num_shards = 0;
        std::memcpy(&shard, body.data(), sizeof(shard));
        std::memcpy(&num_shards, body.data() + sizeof(shard), sizeof(num_shards));
        if (num_shards == 0 || shard >= num_shards) {
          alive = respond(s, kBadRequest, 0, {});
          break;
        }
        stream st = srv_.submit_shard(h.a, h.b, shard, num_shards);
        const job_status js = st.wait();
        note_bytes(h.a, js == job_status::done ? sizeof(std::uint64_t) : 0);
        if (js != job_status::done) {
          alive = respond(s, status_of(js), st.ordinal(), {});
          break;
        }
        const std::uint64_t ordinal = st.ordinal();
        const std::uint64_t id = next_stream++;
        streams.emplace(id, std::move(st));
        alive = respond(s, kOk, id,
                        {reinterpret_cast<const std::byte*>(&ordinal), sizeof(ordinal)});
        break;
      }
      case kOpStreamPull: {
        const auto it = streams.find(h.a);
        if (it == streams.end()) {
          alive = respond(s, kBadRequest, 0, {});
          break;
        }
        pull_buf.resize(static_cast<std::size_t>(std::min(h.b, kMaxPullItems)));
        const std::size_t got = it->second.read(std::span<std::uint64_t>(pull_buf));
        note_bytes(it->second.client(), got * sizeof(std::uint64_t));
        alive = respond(s, kOk, got,
                        {reinterpret_cast<const std::byte*>(pull_buf.data()),
                         got * sizeof(std::uint64_t)});
        break;
      }
      case kOpMetrics: {
        const std::string snap = srv_.metrics_snapshot();
        alive = respond(s, kOk, 0,
                        {reinterpret_cast<const std::byte*>(snap.data()), snap.size()});
        break;
      }
      case kOpStreamClose: {
        const auto it = streams.find(h.a);
        if (it != streams.end()) {
          note_bytes(it->second.client(), 0);
          streams.erase(it);
        }
        alive = respond(s, kOk, 0, {});
        break;
      }
      case kOpTelemetry: {
        std::string doc;
        if (h.a == 0) {
          doc = obs::prometheus_exposition();
        } else if (h.a == 1) {
          if (sampler_ != nullptr) {
            sampler_->sample_now();  // the ring always ends "now"
            doc = sampler_->ring_json();
          } else {
            doc = "{\"series\": [], \"samples\": []}";
          }
        } else {
          alive = respond(s, kBadRequest, 0, {});
          break;
        }
        alive = respond(s, kOk, 0,
                        {reinterpret_cast<const std::byte*>(doc.data()), doc.size()});
        break;
      }
      default:
        alive = respond(s, kBadRequest, 0, {});
        break;
    }
    if (!alive) break;
  }
  const std::lock_guard<std::mutex> lock(m_);
  live_.erase(conn_id);
  finished_.push_back(conn_id);  // the acceptor (or stop) joins this thread
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

wire_client::wire_client(const std::string& host, std::uint16_t port)
    : fd_(net::connect_tcp(host.c_str(), port)) {
  net::set_nodelay(fd_.get());
}

wire_client::answer wire_client::request(std::uint32_t opcode, std::uint64_t a,
                                         std::uint64_t b, std::uint32_t c,
                                         std::span<const std::byte> body) {
  // The round trip is a span, and its context rides the request: the
  // server installs {trace_id, span_id} before handling, so its
  // wire.<op> span -- and everything under it -- parents here.
  const obs::span sp("wire.call", "wire");
  rpc_request_header h;
  h.opcode = opcode;
  h.a = a;
  h.b = b;
  h.c = c;
  h.body_bytes = body.size();
  obs::trace_ext ext;
  const obs::trace_context tc = obs::current_trace();
  if (tc.trace_id != 0) {
    h.flags |= kReqFlagTrace;
    ext.trace_id = tc.trace_id;
    ext.span_id = tc.span_id;
  }
  if (!net::write_all(fd_.get(), &h, sizeof(h)) ||
      ((h.flags & kReqFlagTrace) != 0 && !net::write_all(fd_.get(), &ext, sizeof(ext))) ||
      (!body.empty() && !net::write_all(fd_.get(), body.data(), body.size()))) {
    throw std::runtime_error("svc wire: connection lost while sending request");
  }
  rpc_response_header rh;
  if (!net::read_exact(fd_.get(), &rh, sizeof(rh))) {
    throw std::runtime_error("svc wire: connection lost while awaiting response");
  }
  if (rh.magic != kRespMagic || rh.body_bytes > kMaxBody) {
    throw std::runtime_error("svc wire: malformed response");
  }
  if (rh.status != kOk) {
    if (!discard_body(fd_.get(), rh.body_bytes)) {
      throw std::runtime_error("svc wire: connection lost mid-response");
    }
    switch (rh.status) {
      case kRejected: throw std::runtime_error("svc wire: job rejected");
      case kFailed: throw std::runtime_error("svc wire: job failed");
      default: throw std::runtime_error("svc wire: bad request");
    }
  }
  return {rh.a, rh.body_bytes};
}

void wire_client::read_body(const answer& ans, void* dst) {
  if (ans.body_bytes != 0 && !net::read_exact(fd_.get(), dst, ans.body_bytes)) {
    throw std::runtime_error("svc wire: connection lost mid-response");
  }
}

void wire_client::refuse(const answer& ans, const char* what) {
  // Drained, not read into anything, so the connection stays usable.
  if (!discard_body(fd_.get(), ans.body_bytes)) {
    throw std::runtime_error("svc wire: connection lost mid-response");
  }
  throw std::runtime_error(what);
}

wire_client::reply wire_client::call(std::uint32_t opcode, std::uint64_t a, std::uint64_t b,
                                     std::uint32_t c, std::span<const std::byte> body) {
  const answer ans = request(opcode, a, b, c, body);
  reply r;
  r.a = ans.a;
  r.body.resize(static_cast<std::size_t>(ans.body_bytes));
  read_body(ans, r.body.data());
  return r;
}

permutation wire_client::fetch_permutation(std::uint64_t client_id, std::uint64_t n,
                                           std::uint64_t* ordinal_out) {
  const answer ans = request(kOpPermutation, client_id, n, 0, {});
  if (ans.body_bytes % sizeof(std::uint64_t) != 0 || ans.body_bytes / sizeof(std::uint64_t) != n) {
    refuse(ans, "svc wire: permutation size mismatch");
  }
  // The body lands straight in the vector returned.
  permutation pi(static_cast<std::size_t>(n));
  read_body(ans, pi.data());
  if (ordinal_out != nullptr) *ordinal_out = ans.a;
  return pi;
}

void wire_client::shuffle_raw(std::uint64_t client_id, void* data, std::uint64_t n,
                              std::uint32_t elem_bytes, std::uint64_t* ordinal_out) {
  const std::span<const std::byte> bytes(static_cast<const std::byte*>(data), n * elem_bytes);
  const reply r = call(kOpShuffleRaw, client_id, n, elem_bytes, bytes);
  if (r.body.size() != bytes.size()) {
    throw std::runtime_error("svc wire: shuffle size mismatch");
  }
  if (ordinal_out != nullptr) *ordinal_out = r.a;
  if (!r.body.empty()) std::memcpy(data, r.body.data(), r.body.size());
}

remote_stream wire_client::open_stream(std::uint64_t client_id, std::uint64_t n) {
  const reply r = call(kOpStreamOpen, client_id, n, 0, {});
  if (r.body.size() != sizeof(std::uint64_t)) {
    throw std::runtime_error("svc wire: malformed stream_open response");
  }
  std::uint64_t ordinal = 0;
  std::memcpy(&ordinal, r.body.data(), sizeof(ordinal));
  return remote_stream(this, r.a, n, ordinal);
}

remote_stream wire_client::open_shard(std::uint64_t client_id, std::uint64_t n,
                                      std::uint64_t shard, std::uint64_t num_shards) {
  if (num_shards == 0 || shard >= num_shards) {
    throw std::runtime_error("svc wire: invalid shard geometry");
  }
  std::array<std::uint64_t, 2> geom = {shard, num_shards};
  const reply r = call(kOpShardOpen, client_id, n, 0,
                       {reinterpret_cast<const std::byte*>(geom.data()), sizeof(geom)});
  if (r.body.size() != sizeof(std::uint64_t)) {
    throw std::runtime_error("svc wire: malformed shard_open response");
  }
  std::uint64_t ordinal = 0;
  std::memcpy(&ordinal, r.body.data(), sizeof(ordinal));
  // The stream length is the shard window, not n; both ends derive it from
  // the same constexpr geometry helper.
  return remote_stream(this, r.a, prp::shard_bounds(n, shard, num_shards).size(), ordinal);
}

std::string wire_client::metrics_snapshot() {
  const reply r = call(kOpMetrics, 0, 0, 0, {});
  return std::string(reinterpret_cast<const char*>(r.body.data()), r.body.size());
}

std::string wire_client::telemetry(telemetry_form form) {
  const reply r = call(kOpTelemetry, static_cast<std::uint64_t>(form), 0, 0, {});
  return std::string(reinterpret_cast<const char*>(r.body.data()), r.body.size());
}

std::size_t remote_stream::read(std::span<std::uint64_t> out) {
  CGP_EXPECTS(c_ != nullptr && !closed_);
  if (out.empty()) return 0;
  const wire_client::answer ans = c_->request(kOpStreamPull, id_, out.size(), 0, {});
  // A body is read only once it is known to fit: straight into `out`.
  if (ans.a > out.size() || ans.body_bytes != ans.a * sizeof(std::uint64_t)) {
    c_->refuse(ans, "svc wire: malformed stream_pull response");
  }
  c_->read_body(ans, out.data());
  return static_cast<std::size_t>(ans.a);
}

void remote_stream::close() {
  if (c_ == nullptr || closed_) return;
  closed_ = true;
  (void)c_->call(kOpStreamClose, id_, 0, 0, {});
}

}  // namespace cgp::svc
