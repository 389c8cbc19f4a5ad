// svc/stream.hpp
//
// Chunked pull delivery: the third completion shape of the permutation
// service.  A client that asked for a 10^9-element permutation does not
// want 8 GB handed over in one vector; `svc::stream` lets it pull the
// result as consecutive fixed-size chunks, consuming the whole
// permutation in O(chunk) client memory:
//
//   svc::stream s = server.submit_stream(client_id, n);
//   std::vector<std::uint64_t> chunk(s.chunk_items());
//   while (std::size_t got = s.read(std::span<std::uint64_t>(chunk))) {
//     consume(chunk.data(), got);     // chunk k holds pi[k*C .. k*C+got)
//   }
//
// Server-side storage follows the job's plan: RAM-planned jobs keep the
// permutation in one server-owned vector and chunks are copied out of it;
// jobs the planner sent out of core keep the permutation ON the block
// device the em engine shuffled (the executor's native fill mode, minus
// its final bulk readback), and every pull is an accounted
// `read_items` range read -- no full-n u64 vector ever materializes.  The
// device itself lives in RAM at 4 bytes per item (n <= 2^32), so the
// stream holds ~4n bytes until it is dropped: 12,009,472 for 3,000,000
// items at B = 4,096 (EntryPointBounds.EmStreamDeviceHoldsFourBytesPerItem).
// A file-backed device would bound it (ROADMAP item 3).  Cipher-planned
// (prp) jobs -- including
// server::submit_shard windows -- store NOTHING: every pull evaluates
// pi(shard_base + cursor ..) through the O(1)-state prp::cipher.
//
// Determinism: the chunk boundary never enters any seed -- the stream
// serves exactly the permutation `future<permutation>` would have
// delivered whole, chunked; reading it in pieces of 1 or 10^6 items gives
// the same bytes in the same order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "svc/job.hpp"
#include "util/assert.hpp"

namespace cgp::svc {

/// Pull-mode view over one stream job's result.  Not thread-safe: one
/// consumer per stream object (the underlying job state may be shared).
class stream : public job_handle {
 public:
  stream() = default;

  /// Pull up to out.size() items at the stream cursor.  Blocks until the
  /// job completes; throws on rejection / failure.  Returns the number of
  /// items written (0 = stream exhausted).
  std::size_t read(std::span<std::uint64_t> out) {
    CGP_EXPECTS(valid());
    s_->wait_done();
    const std::uint64_t remaining = s_->n - cursor_;
    const std::size_t got = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, out.size()));
    if (got == 0) return 0;
    if (s_->cipher != nullptr) {
      // Cipher-backed (prp) stream: evaluate the window on demand.
      s_->cipher->eval_range(s_->shard_base + cursor_, out.first(got));
    } else if (s_->dev != nullptr) {
      s_->dev->read_items(cursor_, out.first(got));
    } else {
      std::copy_n(s_->pi.begin() + static_cast<std::ptrdiff_t>(cursor_), got, out.begin());
    }
    cursor_ += got;
    return got;
  }

  /// Convenience: pull the next chunk of `chunk_items()` (the last one may
  /// be shorter); nullopt once exhausted.
  [[nodiscard]] std::optional<permutation> next_chunk() {
    CGP_EXPECTS(valid());
    permutation buf(static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, s_->n - std::min(cursor_, s_->n))));
    if (buf.empty()) return std::nullopt;
    const std::size_t got = read(std::span<std::uint64_t>(buf));
    if (got == 0) return std::nullopt;
    buf.resize(got);
    return buf;
  }

  /// Total items of the permutation / items already pulled / chunk size.
  [[nodiscard]] std::uint64_t size() const noexcept {
    CGP_EXPECTS(valid());
    return s_->n;
  }
  [[nodiscard]] std::uint64_t consumed() const noexcept { return cursor_; }
  [[nodiscard]] std::uint64_t chunk_items() const noexcept { return chunk_; }

  /// Rewind to an absolute item offset (results are immutable once done,
  /// so re-reading is exact).
  void seek(std::uint64_t item_offset) noexcept {
    CGP_EXPECTS(valid());
    cursor_ = std::min(item_offset, s_->n);
  }

 private:
  friend class server;
  stream(std::shared_ptr<detail::job_state> s, std::uint64_t chunk)
      : job_handle(std::move(s)), chunk_(chunk) {}

  std::uint64_t cursor_ = 0;
  std::uint64_t chunk_ = 0;
};

}  // namespace cgp::svc
