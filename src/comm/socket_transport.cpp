#include "comm/socket_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smp/thread_pool.hpp"

namespace cgp::comm {

namespace detail {

struct socket_wire_counters {
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<std::uint64_t> flushes_size{0};
  std::atomic<std::uint64_t> flushes_sync{0};
};

}  // namespace detail

namespace {

// ---------------------------------------------------------------------
// Frame layout.  One frame = header + `message_count` records; a record
// is never split across frames, so a parser only ever needs one frame in
// hand.  All integers are host byte order: both ends of the loopback
// cable are this machine, and a cross-host build would pin little-endian
// here rather than pay bswap on the fast path.
//
//   header:  u32 magic 'CGPF' | u32 source | u32 superstep
//            u32 flags (1 = FIN: source's last frame this superstep;
//                       2 = TRACE: a 24-byte trace extension follows
//                       the header, before the body)
//            u32 message_count  | u32 body_bytes
//   ext:     u64 trace_id | u64 span_id | u64 reserved(0)   (iff TRACE)
//   record:  u32 tag | u32 payload_bytes | payload
// ---------------------------------------------------------------------
constexpr std::uint32_t kFrameMagic = 0x46504743u;  // "CGPF" as LE bytes
constexpr std::uint32_t kFlagFin = 1u;
constexpr std::uint32_t kFlagTrace = 2u;
constexpr std::size_t kRecordHeader = 8;

struct frame_header {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t source = 0;
  std::uint32_t superstep = 0;
  std::uint32_t flags = 0;
  std::uint32_t message_count = 0;
  std::uint32_t body_bytes = 0;
};
static_assert(sizeof(frame_header) == 24);
static_assert(std::is_trivially_copyable_v<frame_header>);

/// A wedged barrier helps nobody: any wire-level failure mid-superstep
/// (peer EOF = crashed rank, connection reset) kills the whole process
/// loudly, exactly like threaded_transport's throwing-rank policy.
[[noreturn]] void wire_fatal(std::uint32_t rank, std::uint32_t peer, const char* what) {
  std::fprintf(stderr, "cgmperm: socket transport rank %u: %s (peer rank %u, errno: %s)\n",
               rank, what, peer, std::strerror(errno));
  std::abort();
}

/// A growable byte array that never zero-fills (std::vector<std::byte>
/// value-initializes every byte a resize adds).  Capacity only grows: a
/// buffer keeps its high-water mark until the transport is destroyed.
class byte_buffer {
 public:
  [[nodiscard]] std::byte* data() noexcept { return data_.get(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  void clear() noexcept { size_ = 0; }

  /// Set the size to `n` bytes; bytes past the old size are uninitialized.
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  /// Append `n` uninitialized bytes and return where they start.
  std::byte* grow(std::size_t n) {
    const std::size_t at = size_;
    resize(size_ + n);
    return data_.get() + at;
  }

  /// Room for `n` bytes in total, keeping the contents; reallocates only
  /// to grow.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    const std::size_t cap = std::max(n, 2 * cap_);
    auto bigger = std::make_unique_for_overwrite<std::byte[]>(cap);
    if (size_ != 0) std::memcpy(bigger.get(), data_.get(), size_);
    data_ = std::move(bigger);
    cap_ = cap;
  }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Bytes kept free at the front of an aggregation buffer, so a cut frame's
/// header (and trace extension) lands in place before its records.
constexpr std::size_t kFrameRoom = sizeof(frame_header) + sizeof(obs::trace_ext);

/// Aggregation target per destination: a frame is cut when its records
/// reach this size.  It keeps frames under the 64 KiB socket-buffer sweet
/// spot with room for the header.
constexpr std::size_t kAggregationBytes = 60 * 1024;

/// Payloads of at least this many bytes cross without a user-space copy.
/// A frame that carries one such record has its payload received straight
/// into the message, and a `send_owned` body of this size whose record
/// cuts a frame by size is written from the caller's vector.  Smaller
/// payloads ride the aggregation and parse buffers, where coalescing pays.
constexpr std::size_t kDirectBody = 64 * 1024;

/// Whether a frame's one record is received straight into its message.
[[nodiscard]] bool direct_frame(const frame_header& h) noexcept {
  return h.message_count == 1 && h.body_bytes >= kRecordHeader + kDirectBody;
}

/// How far a frame's superstep `s` lies ahead of the current one, modulo
/// 2^32: 0 for the current superstep, 1 for the next, negative for an
/// earlier one.
[[nodiscard]] std::int32_t steps_ahead(std::uint32_t s, std::uint32_t now) noexcept {
  return static_cast<std::int32_t>(s - now);
}

}  // namespace

namespace detail {

/// One rank's side of the mesh.  It lives as long as the transport: its
/// buffers keep their high-water capacity across runs, and supersteps are
/// numbered across runs.  A send a program posted after its last exchange
/// may already be cut into a frame and partly written; its bytes still
/// cross at the next run's first exchange, and the receiver drops them as
/// a frame from an earlier superstep.
class socket_endpoint final : public endpoint {
 public:
  socket_endpoint(std::uint32_t rank, std::uint32_t ranks, std::vector<net::socket_fd>& conn,
                  detail::socket_wire_counters& sc)
      : rank_(rank),
        ranks_(ranks),
        conn_(conn),
        sc_(sc),
        agg_(ranks),
        out_(ranks),
        in_(ranks),
        body_in_(ranks),
        cur_(ranks),
        next_(ranks),
        fin_cur_(ranks, 0),
        fin_next_(ranks, 0) {
    reset();
  }
  socket_endpoint(const socket_endpoint&) = delete;
  socket_endpoint& operator=(const socket_endpoint&) = delete;

  /// Start a program one superstep past the previous program's last, with
  /// no FIN seen and nothing staged or delivered.  Sends a previous program
  /// posted after its last exchange are dropped, as a fresh endpoint would
  /// drop them: staged ones here, framed ones by their receiver.  Every
  /// rank ran the same number of exchanges, so all agree on the numbering.
  void reset() {
    ++step_;
    std::fill(fin_cur_.begin(), fin_cur_.end(), 0);
    std::fill(fin_next_.begin(), fin_next_.end(), 0);
    for (auto& q : cur_) q.clear();
    for (auto& q : next_) q.clear();
    self_.clear();
    for (agg_buf& a : agg_) {
      a.frame.resize(kFrameRoom);
      a.count = 0;
    }
  }

  [[nodiscard]] std::uint32_t rank() const noexcept override { return rank_; }
  [[nodiscard]] std::uint32_t size() const noexcept override { return ranks_; }

  void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
    post(dest, tag, bytes, nullptr);
  }

  void send_owned(std::uint32_t dest, std::uint32_t tag, std::vector<std::byte>&& bytes) override {
    post(dest, tag, bytes, &bytes);
  }

  [[nodiscard]] std::vector<message> exchange() override {
    detail::count_exchange();
    const obs::span sp("exchange", "exchange");
    // Flush phase: every peer gets this rank's superstep-final frame
    // (FIN-flagged, possibly empty -- the empty one is the pure barrier
    // signal).
    for (std::uint32_t d = 0; d < ranks_; ++d) {
      if (d != rank_) cut_frame(d, kFlagFin, /*by_size=*/false);
    }
    poll_until_settled();
    // Delivery order is (source rank, post order): concatenate per-source
    // queues in rank order; within a source, records were appended (and
    // parsed) in the peer's post order, and self-sends kept theirs.
    std::vector<message> delivered;
    for (std::uint32_t src = 0; src < ranks_; ++src) {
      auto& q = src == rank_ ? self_ : cur_[src];
      for (auto& m : q) delivered.push_back(std::move(m));
      q.clear();
    }
    // Advance the superstep: frames that arrived one step ahead become
    // the current step's opening state.  A body still arriving belongs to
    // the next step: its FIN-carrying successor has not come yet.
    ++step_;
    for (std::uint32_t p = 0; p < ranks_; ++p) {
      CGP_ASSERT(!body_in_[p].active || body_in_[p].superstep == step_);
      std::swap(cur_[p], next_[p]);
      fin_cur_[p] = fin_next_[p];
      fin_next_[p] = 0;
    }
    return delivered;
  }

 private:
  struct agg_buf {
    byte_buffer frame;  // kFrameRoom free bytes, then the concatenated records
    std::uint32_t count = 0;
  };
  /// A caller's vector written to the wire in place, after the queued
  /// bytes before offset `at`.
  struct spliced_body {
    std::size_t at = 0;
    std::vector<std::byte> bytes;
    std::size_t done = 0;  // bytes already written
  };
  /// Framed bytes awaiting the wire: `buf` from `head` on, with the
  /// unwritten bodies from `first` on spliced in at their offsets.
  struct out_queue {
    byte_buffer buf;
    std::size_t head = 0;
    std::vector<spliced_body> bodies;
    std::size_t first = 0;
    [[nodiscard]] bool drained() const noexcept {
      return head == buf.size() && first == bodies.size();
    }
  };
  struct byte_queue {
    byte_buffer buf;
    std::size_t head = 0;  // bytes before `head` are consumed
  };
  /// The payload of a one-record frame (`direct_frame`), received straight
  /// into its message.  Which superstep's queue it joins is decided when
  /// the last byte lands, against the superstep current then.
  struct body_in {
    bool active = false;
    message msg;
    std::size_t got = 0;  // payload bytes received
    std::uint32_t superstep = 0;
    bool fin = false;
  };

  /// Stage one record for `dest`.  `owned`, if set, holds `bytes` and may
  /// be taken: delivered as a self-send, or written to the wire in place
  /// when the record is large and cuts a frame by size.  Wire bytes,
  /// frames and flushes are the same either way.
  void post(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes,
            std::vector<std::byte>* owned) {
    CGP_EXPECTS(dest < ranks_);
    detail::count_send(bytes.size());
    sc_.messages.fetch_add(1, std::memory_order_relaxed);
    if (dest == rank_) {
      // Self-sends never touch the wire; they are staged like the
      // loopback transport's and delivered at the next exchange.
      message msg;
      msg.source = rank_;
      msg.tag = tag;
      if (owned != nullptr) {
        msg.payload = std::move(*owned);
      } else {
        msg.payload.assign(bytes.begin(), bytes.end());
      }
      self_.push_back(std::move(msg));
      return;
    }
    agg_buf& a = agg_[dest];
    const bool cut =
        a.frame.size() - kFrameRoom + kRecordHeader + bytes.size() >= kAggregationBytes;
    const bool splice = owned != nullptr && cut && bytes.size() >= kDirectBody;
    std::byte* rec = a.frame.grow(kRecordHeader + (splice ? 0 : bytes.size()));
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(rec, &tag, sizeof(tag));
    std::memcpy(rec + 4, &len, sizeof(len));
    if (!splice && !bytes.empty()) std::memcpy(rec + kRecordHeader, bytes.data(), bytes.size());
    ++a.count;
    if (cut) {
      cut_frame(dest, 0, /*by_size=*/true, splice ? owned : nullptr);
      pump_write(dest);  // opportunistic: overlap communication with posting
    }
  }

  /// Seal the aggregation buffer of `dest`, followed by `tail` if given,
  /// into one wire frame on its outgoing queue.  The header is written
  /// into the room kept in front of the records; a drained queue takes the
  /// whole buffer without a copy, and `tail` is queued, not copied.
  void cut_frame(std::uint32_t dest, std::uint32_t flags, bool by_size,
                 std::vector<std::byte>* tail = nullptr) {
    agg_buf& a = agg_[dest];
    if (a.count == 0 && flags == 0) return;  // nothing staged, no barrier to signal
    const std::size_t tail_len = tail != nullptr ? tail->size() : 0;
    const std::size_t body = a.frame.size() - kFrameRoom + tail_len;
    CGP_ASSERT(body <= UINT32_MAX);
    const obs::trace_context tc = obs::current_trace();
    const bool traced = obs::tracing() && tc.trace_id != 0;
    frame_header h;
    h.source = rank_;
    h.superstep = step_;
    h.flags = flags | (traced ? kFlagTrace : 0);
    h.message_count = a.count;
    h.body_bytes = static_cast<std::uint32_t>(body);
    obs::trace_ext ext;
    ext.trace_id = tc.trace_id;
    ext.span_id = tc.span_id;
    const std::size_t ext_len = traced ? sizeof(ext) : 0;
    const std::size_t start = kFrameRoom - sizeof(h) - ext_len;
    std::memcpy(a.frame.data() + start, &h, sizeof(h));
    if (traced) std::memcpy(a.frame.data() + start + sizeof(h), &ext, sizeof(ext));
    const std::size_t frame_len = sizeof(h) + ext_len + body;
    const std::size_t queued = frame_len - tail_len;
    out_queue& o = out_[dest];
    if (o.drained()) {
      std::swap(o.buf, a.frame);
      o.head = start;
      o.bodies.clear();
      o.first = 0;
    } else {
      std::memcpy(o.buf.grow(queued), a.frame.data() + start, queued);
    }
    if (tail != nullptr) o.bodies.push_back(spliced_body{o.buf.size(), std::move(*tail), 0});
    a.frame.resize(kFrameRoom);
    a.count = 0;
    sc_.frames.fetch_add(1, std::memory_order_relaxed);
    sc_.wire_bytes.fetch_add(frame_len, std::memory_order_relaxed);
    (by_size ? sc_.flushes_size : sc_.flushes_sync).fetch_add(1, std::memory_order_relaxed);
    static obs::counter& frames = obs::get_counter("comm.socket.frames");
    static obs::counter& wire_bytes = obs::get_counter("comm.socket.wire_bytes");
    frames.add();
    wire_bytes.add(frame_len);
  }

  /// Drain `out_[peer]` into the (nonblocking) socket as far as the
  /// kernel will take it right now: one `sendmsg` gathers the queued
  /// bytes and the spliced bodies between them.  A body written in full
  /// goes back to `buffers()`, where a later received body can land in it.
  void pump_write(std::uint32_t peer) {
    constexpr int kMaxIov = 8;
    out_queue& o = out_[peer];
    const int fd = conn_[peer].get();
    while (!o.drained()) {
      iovec iov[kMaxIov];
      int cnt = 0;
      std::size_t at = o.head;
      std::size_t b = o.first;
      // A body takes at most two entries, and one more stays free for the
      // bytes after the last body.
      for (; b < o.bodies.size() && cnt + 3 <= kMaxIov; ++b) {
        spliced_body& s = o.bodies[b];
        if (s.at > at) iov[cnt++] = iovec{o.buf.data() + at, s.at - at};
        iov[cnt++] = iovec{s.bytes.data() + s.done, s.bytes.size() - s.done};
        at = s.at;
      }
      if (b == o.bodies.size() && at < o.buf.size()) {
        iov[cnt++] = iovec{o.buf.data() + at, o.buf.size() - at};
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<std::size_t>(cnt);
      const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
      if (n > 0) {
        consume(o, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      wire_fatal(rank_, peer, "send failed -- peer connection lost");
    }
    o.buf.clear();
    o.head = 0;
    o.bodies.clear();
    o.first = 0;
  }

  /// Advance `o` past `n` written bytes, in queue order.
  void consume(out_queue& o, std::size_t n) {
    while (n > 0) {
      if (o.first < o.bodies.size() && o.head == o.bodies[o.first].at) {
        spliced_body& s = o.bodies[o.first];
        const std::size_t k = std::min(n, s.bytes.size() - s.done);
        s.done += k;
        n -= k;
        if (s.done == s.bytes.size()) {
          buffers().give(std::move(s.bytes), 2 * std::size_t{ranks_});
          ++o.first;
        }
      } else {
        const std::size_t stop = o.first < o.bodies.size() ? o.bodies[o.first].at : o.buf.size();
        const std::size_t k = std::min(n, stop - o.head);
        o.head += k;
        n -= k;
      }
    }
  }

  /// Pull whatever the socket has and consume every complete frame.  The
  /// payload of a direct frame is read straight into its message; other
  /// bytes go to the parse buffer, which, once a frame's header is in
  /// hand, is sized for the rest of that frame before the next read, so a
  /// frame never grows its storage twice.  The parse buffer therefore
  /// holds headers and small frames only.
  void pump_read(std::uint32_t peer) {
    constexpr std::size_t kChunk = 64 * 1024;
    byte_queue& iq = in_[peer];
    body_in& bi = body_in_[peer];
    const int fd = conn_[peer].get();
    for (;;) {
      std::byte* to = nullptr;
      std::size_t room = 0;
      if (bi.active) {
        to = bi.msg.payload.data() + bi.got;
        room = bi.msg.payload.size() - bi.got;
      } else {
        std::size_t want = kChunk;
        const std::size_t held = iq.buf.size() - iq.head;
        if (held >= sizeof(frame_header)) {
          frame_header h;  // parse_frames already validated it
          std::memcpy(&h, iq.buf.data() + iq.head, sizeof(h));
          const std::size_t ext_len = (h.flags & kFlagTrace) != 0 ? sizeof(obs::trace_ext) : 0;
          if (!direct_frame(h)) want = std::max(want, sizeof(h) + ext_len + h.body_bytes - held);
        }
        if (iq.buf.capacity() - iq.buf.size() < want && iq.head != 0) {
          // Move the unparsed tail to the front before growing.
          std::memmove(iq.buf.data(), iq.buf.data() + iq.head, held);
          iq.buf.resize(held);
          iq.head = 0;
        }
        iq.buf.reserve(iq.buf.size() + want);
        to = iq.buf.data() + iq.buf.size();
        room = iq.buf.capacity() - iq.buf.size();
      }
      const ssize_t n = ::recv(fd, to, room, 0);
      if (n > 0) {
        if (bi.active) {
          bi.got += static_cast<std::size_t>(n);
          if (bi.got == bi.msg.payload.size()) finish_body(peer);
        } else {
          iq.buf.resize(iq.buf.size() + static_cast<std::size_t>(n));
        }
        parse_frames(peer);
        if (static_cast<std::size_t>(n) < room) return;  // drained for now
        continue;
      }
      if (n == 0) {
        // EOF mid-run: the peer's process/thread died holding its side of
        // the superstep.  Wedging the barrier would hang every rank.
        wire_fatal(rank_, peer, "peer closed the connection mid-superstep (crashed rank?)");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      wire_fatal(rank_, peer, "recv failed");
    }
  }

  void parse_frames(std::uint32_t peer) {
    byte_queue& iq = in_[peer];
    body_in& bi = body_in_[peer];
    while (!bi.active && iq.buf.size() - iq.head >= sizeof(frame_header)) {
      frame_header h;
      std::memcpy(&h, iq.buf.data() + iq.head, sizeof(h));
      CGP_ASSERT(h.magic == kFrameMagic && "corrupt frame on transport socket");
      CGP_ASSERT(h.source == peer);
      const std::size_t ext_len = (h.flags & kFlagTrace) != 0 ? sizeof(obs::trace_ext) : 0;
      const bool direct = direct_frame(h);
      const std::size_t held = iq.buf.size() - iq.head;
      // A direct frame starts once its record header is in; any other
      // frame is parsed whole.
      if (held < sizeof(h) + ext_len + (direct ? kRecordHeader : h.body_bytes)) break;  // partial
      if (ext_len != 0) {
        // A context-free parsing thread joins the sender's trace; a thread
        // already inside a trace (the normal case: run() installed the
        // submitter's context) keeps its own.
        obs::trace_ext ext;
        std::memcpy(&ext, iq.buf.data() + iq.head + sizeof(h), sizeof(ext));
        obs::adopt_trace(obs::trace_context{ext.trace_id, ext.span_id});
      }
      // A peer can run at most ONE superstep ahead: its FIN(s+1) needs
      // our FIN(s), which we only send once we are in exchange(s), and
      // its step-(s+2) frames would need our FIN(s+1).  A frame from an
      // earlier superstep is a send a previous program posted after its
      // last exchange: it is dropped.
      const std::int32_t ahead_by = steps_ahead(h.superstep, step_);
      CGP_ASSERT(ahead_by <= 1 && "frame from an impossible superstep");
      const std::byte* body = iq.buf.data() + iq.head + sizeof(h) + ext_len;
      if (direct) {
        std::uint32_t tag = 0;
        std::uint32_t len = 0;
        std::memcpy(&tag, body, sizeof(tag));
        std::memcpy(&len, body + 4, sizeof(len));
        CGP_ASSERT(kRecordHeader + len == h.body_bytes && "frame body length mismatch");
        bi.active = true;
        bi.msg.source = peer;
        bi.msg.tag = tag;
        bi.msg.payload = buffers().take(len);
        bi.superstep = h.superstep;
        bi.fin = (h.flags & kFlagFin) != 0;
        // The part of the payload the last read already brought in.
        bi.got = std::min<std::size_t>(len, held - (sizeof(h) + ext_len + kRecordHeader));
        std::memcpy(bi.msg.payload.data(), body + kRecordHeader, bi.got);
        iq.head += sizeof(h) + ext_len + kRecordHeader + bi.got;
        if (bi.got == len) finish_body(peer);
        continue;
      }
      if (ahead_by < 0) {
        iq.head += sizeof(h) + ext_len + h.body_bytes;
        continue;
      }
      const bool ahead = ahead_by == 1;
      auto& dst = ahead ? next_[peer] : cur_[peer];
      std::size_t off = 0;
      for (std::uint32_t i = 0; i < h.message_count; ++i) {
        std::uint32_t tag = 0;
        std::uint32_t len = 0;
        CGP_ASSERT(off + kRecordHeader <= h.body_bytes);
        std::memcpy(&tag, body + off, sizeof(tag));
        std::memcpy(&len, body + off + 4, sizeof(len));
        CGP_ASSERT(off + kRecordHeader + len <= h.body_bytes);
        message m;
        m.source = peer;
        m.tag = tag;
        m.payload.assign(body + off + kRecordHeader, body + off + kRecordHeader + len);
        dst.push_back(std::move(m));
        off += kRecordHeader + len;
      }
      CGP_ASSERT(off == h.body_bytes && "frame body length mismatch");
      if ((h.flags & kFlagFin) != 0) (ahead ? fin_next_ : fin_cur_)[peer] = 1;
      iq.head += sizeof(h) + ext_len + h.body_bytes;
    }
    if (iq.head == iq.buf.size()) {
      iq.buf.clear();
      iq.head = 0;
    }
  }

  /// A direct frame's payload is complete: queue it for the superstep its
  /// frame names, judged against the superstep current now.  A body that
  /// started one step ahead may finish after that step became current, and
  /// one from an earlier superstep (a previous program's) is dropped.
  void finish_body(std::uint32_t peer) {
    body_in& bi = body_in_[peer];
    bi.active = false;
    const std::int32_t ahead_by = steps_ahead(bi.superstep, step_);
    CGP_ASSERT(ahead_by <= 1 && "frame from an impossible superstep");
    if (ahead_by < 0) {
      buffers().give(std::move(bi.msg.payload), 2 * std::size_t{ranks_});
      return;
    }
    const bool ahead = ahead_by == 1;
    (ahead ? next_ : cur_)[peer].push_back(std::move(bi.msg));
    if (bi.fin) (ahead ? fin_next_ : fin_cur_)[peer] = 1;
  }

  /// The barrier: drive reads and writes together until every outgoing
  /// byte is handed to the kernel and every peer's FIN for this superstep
  /// has arrived.  One loop for both directions is the deadlock-freedom
  /// argument -- a rank never sits in a blocking write while its own
  /// receive buffer (and therefore a peer's send window) fills up.
  void poll_until_settled() {
    std::vector<pollfd> pfds;
    std::vector<std::uint32_t> who;
    pfds.reserve(ranks_);
    who.reserve(ranks_);
    for (;;) {
      pfds.clear();
      who.clear();
      for (std::uint32_t p = 0; p < ranks_; ++p) {
        if (p == rank_) continue;
        short events = 0;
        if (fin_cur_[p] == 0) events |= POLLIN;
        if (!out_[p].drained()) events |= POLLOUT;
        if (events != 0) {
          pfds.push_back(pollfd{conn_[p].get(), events, 0});
          who.push_back(p);
        }
      }
      if (pfds.empty()) return;  // all FINs in, all output flushed
      const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        wire_fatal(rank_, rank_, "poll failed");
      }
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) pump_read(who[i]);
        if ((pfds[i].revents & POLLOUT) != 0) pump_write(who[i]);
      }
    }
  }

  std::uint32_t rank_;
  std::uint32_t ranks_;
  std::vector<net::socket_fd>& conn_;  // this rank's row of the mesh
  detail::socket_wire_counters& sc_;

  std::uint32_t step_ = 0;           // current superstep, counted across runs
  std::vector<message> self_;        // staged self-sends
  std::vector<agg_buf> agg_;         // per-destination aggregation buffers
  std::vector<out_queue> out_;       // per-peer framed bytes awaiting the wire
  std::vector<byte_queue> in_;       // per-peer received bytes awaiting parse
  std::vector<body_in> body_in_;     // per-peer direct payload being received
  std::vector<std::vector<message>> cur_;   // delivered, this superstep
  std::vector<std::vector<message>> next_;  // delivered one step ahead
  std::vector<std::uint8_t> fin_cur_;
  std::vector<std::uint8_t> fin_next_;
};

}  // namespace detail

socket_transport::socket_transport(std::uint32_t ranks)
    : ranks_(ranks), counters_(std::make_unique<detail::socket_wire_counters>()) {
  CGP_EXPECTS(ranks >= 1);
  conn_.resize(ranks);
  for (auto& row : conn_) row.resize(ranks);  // diagonal (and p=1) stay invalid
  endpoints_.reserve(ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    endpoints_.push_back(
        std::make_unique<detail::socket_endpoint>(r, ranks, conn_[r], *counters_));
  }
  pool_ = std::make_unique<smp::thread_pool>(ranks);
  if (ranks == 1) return;
  // Full mesh over loopback, built single-threaded: the kernel completes
  // the handshake through the listen backlog, so connect-then-accept per
  // pair cannot deadlock on 127.0.0.1.
  net::listener l = net::listen_tcp("127.0.0.1", 0);
  for (std::uint32_t i = 0; i < ranks; ++i) {
    for (std::uint32_t j = i + 1; j < ranks; ++j) {
      net::socket_fd c = net::connect_tcp("127.0.0.1", l.port);
      net::socket_fd a = net::accept_tcp(l.fd.get());
      CGP_EXPECTS(a.valid() && c.valid());
      conn_[i][j] = std::move(a);
      conn_[j][i] = std::move(c);
    }
  }
  for (auto& row : conn_) {
    for (auto& fd : row) {
      if (!fd.valid()) continue;
      net::set_nodelay(fd.get());
      net::set_nonblocking(fd.get(), true);
    }
  }
}

socket_transport::~socket_transport() = default;

void socket_transport::run(const std::function<void(endpoint&)>& program) {
  // One program at a time: concurrent runs would share sockets and
  // endpoint buffers.
  const std::lock_guard<std::mutex> lock(run_mutex_);
  for (auto& ep : endpoints_) ep->reset();
  // Rank threads inherit the caller's trace context, so every rank's
  // spans stitch under the job that ran the program.
  const obs::trace_context caller = obs::current_trace();
  std::vector<std::future<void>> done;
  done.reserve(ranks_);
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    done.push_back(pool_->submit([this, r, &program, caller] {
      const obs::trace_scope trace_guard(caller);
      try {
        program(*endpoints_[r]);
      } catch (const std::exception& e) {
        // Same policy as threaded_transport: a throwing rank would wedge
        // every peer's poll loop at the barrier; fail fast and loudly.
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

wire_counters socket_transport::wire() const noexcept {
  wire_counters w;
  w.messages = counters_->messages.load(std::memory_order_relaxed);
  w.frames = counters_->frames.load(std::memory_order_relaxed);
  w.wire_bytes = counters_->wire_bytes.load(std::memory_order_relaxed);
  w.flushes_size = counters_->flushes_size.load(std::memory_order_relaxed);
  w.flushes_sync = counters_->flushes_sync.load(std::memory_order_relaxed);
  return w;
}

}  // namespace cgp::comm
