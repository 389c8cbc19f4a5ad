// perfbench/accounting.hpp
//
// Communication accounting for the distributed engine, measured from
// outside the library: a comm::endpoint decorator that times every
// exchange() and sorts every send by tag family, handed to
// cgm::distributed_shuffle inside transport::run -- the same call
// cgm::transport_shuffle makes, so the result is bit-identical to
// context::shuffle on the cgm backend.  Wire counters are differenced per
// shuffle, never accumulated over repetitions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "cgm/distributed.hpp"
#include "comm/transport.hpp"
#include "harness.hpp"
#include "util/prefix.hpp"

namespace perfbench {

/// What one rank did during one shuffle.
struct rank_account {
  double program_s = 0.0;          ///< the rank program's wall time
  double exchange_s = 0.0;         ///< of which inside exchange()
  std::uint64_t exchanges = 0;     ///< supersteps
  std::uint64_t move_bytes = 0;    ///< kTagMove payload sent to other ranks
  std::uint64_t gather_bytes = 0;  ///< gather / scatter / root payload to other ranks
  std::uint64_t self_bytes = 0;    ///< payload a rank addressed to itself
  bool other_tags = false;         ///< a tag outside the known families was sent
};

/// Tag families of cgm/distributed.hpp.
enum class tag_family { move, gather, other };

[[nodiscard]] inline tag_family family_of(std::uint32_t tag) noexcept {
  namespace dd = cgp::cgm::detail_dist;
  if (tag == dd::kTagMove) return tag_family::move;
  if (tag == dd::kTagRootGather || tag == dd::kTagRootScatter) return tag_family::gather;
  if ((tag & 0xFFFF'0000u) == dd::kTagGatherBase || (tag & 0xFFFF'0000u) == dd::kTagScatterBase)
    return tag_family::gather;
  return tag_family::other;
}

/// Forwards every call to the transport's own endpoint and records it.
class accounting_endpoint final : public cgp::comm::endpoint {
 public:
  accounting_endpoint(cgp::comm::endpoint& inner, rank_account& acc, span_log* log,
                      std::uint64_t request)
      : inner_(inner), acc_(acc), log_(log), request_(request) {}

  [[nodiscard]] std::uint32_t rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] std::uint32_t size() const noexcept override { return inner_.size(); }

  void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
    if (dest == inner_.rank()) {
      acc_.self_bytes += bytes.size();
    } else {
      switch (family_of(tag)) {
        case tag_family::move: acc_.move_bytes += bytes.size(); break;
        case tag_family::gather: acc_.gather_bytes += bytes.size(); break;
        case tag_family::other: acc_.other_tags = true; break;
      }
    }
    inner_.send(dest, tag, bytes);
  }

  [[nodiscard]] std::vector<cgp::comm::message> exchange() override {
    const scoped_span sp(log_, "comm.exchange", request_);
    const double t0 = now_s();
    std::vector<cgp::comm::message> msgs = inner_.exchange();
    acc_.exchange_s += now_s() - t0;
    ++acc_.exchanges;
    return msgs;
  }

 private:
  cgp::comm::endpoint& inner_;
  rank_account& acc_;
  span_log* log_;
  std::uint64_t request_;
};

/// One decorated shuffle: per-rank accounts plus the transport's wire
/// counters differenced around this shuffle alone.
struct shuffle_account {
  std::uint64_t n = 0;
  std::uint32_t elem_bytes = 0;
  double wall_s = 0.0;
  std::vector<rank_account> ranks;
  cgp::comm::wire_counters wire;

  [[nodiscard]] std::uint64_t move_bytes() const {
    std::uint64_t s = 0;
    for (const auto& r : ranks) s += r.move_bytes;
    return s;
  }
  [[nodiscard]] std::uint64_t gather_bytes() const {
    std::uint64_t s = 0;
    for (const auto& r : ranks) s += r.gather_bytes;
    return s;
  }
  [[nodiscard]] bool other_tags() const {
    return std::any_of(ranks.begin(), ranks.end(), [](const auto& r) { return r.other_tags; });
  }
  [[nodiscard]] double max_exchange_s() const {
    double m = 0.0;
    for (const auto& r : ranks) m = std::max(m, r.exchange_s);
    return m;
  }
  [[nodiscard]] std::uint64_t supersteps() const {
    return ranks.empty() ? 0 : ranks.front().exchanges;
  }
  /// Rank program time minus its exchange time, as {max, mean} over ranks.
  [[nodiscard]] std::pair<double, double> compute_s() const {
    double mx = 0.0;
    double sum = 0.0;
    for (const auto& r : ranks) {
      const double c = r.program_s - r.exchange_s;
      mx = std::max(mx, c);
      sum += c;
    }
    return {mx, ranks.empty() ? 0.0 : sum / static_cast<double>(ranks.size())};
  }
  /// Move payload over Theorem 1's one h-relation, (p-1)/p * n * elem.
  [[nodiscard]] double h_relation_ratio() const {
    const auto p = static_cast<double>(ranks.size());
    if (p < 2.0 || n == 0) return 0.0;
    return static_cast<double>(move_bytes()) /
           ((p - 1.0) / p * static_cast<double>(n) * static_cast<double>(elem_bytes));
  }
};

/// cgm::distributed_shuffle on every rank of `tr` through the decorator --
/// what cgm::transport_shuffle does, plus the accounting.
template <typename T>
[[nodiscard]] shuffle_account decorated_shuffle(cgp::comm::transport& tr, std::span<T> data,
                                                std::uint64_t seed,
                                                const cgp::cgm::distributed_options& opt,
                                                span_log* log = nullptr,
                                                std::uint64_t request = 0) {
  shuffle_account acc;
  acc.n = data.size();
  acc.elem_bytes = sizeof(T);
  const std::uint32_t p = tr.size();
  acc.ranks.resize(p);
  const std::uint64_t n = data.size();
  const cgp::comm::wire_counters before = tr.wire();
  const scoped_span req(log, "cgm.distributed_shuffle", request);
  const std::uint64_t parent = req.id();
  const double t0 = now_s();
  tr.run([&](cgp::comm::endpoint& ep) {
    rank_account& ra = acc.ranks[ep.rank()];
    const scoped_span rank_sp(log, "cgm.rank", request, parent);
    const double r0 = now_s();
    accounting_endpoint dec(ep, ra, log, request);
    const std::uint64_t lo = cgp::balanced_block_offset(n, p, ep.rank());
    const std::uint64_t len = cgp::balanced_block_size(n, p, ep.rank());
    cgp::cgm::distributed_shuffle(
        dec, data.subspan(static_cast<std::size_t>(lo), static_cast<std::size_t>(len)), n, seed,
        opt);
    ra.program_s = now_s() - r0;
  });
  acc.wall_s = now_s() - t0;
  acc.wire = tr.wire();
  acc.wire -= before;
  return acc;
}

}  // namespace perfbench
