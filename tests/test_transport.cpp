// Tests for the comm/ transport layer and the distributed CGM engine
// behind backend::cgm: transport primitives (send/exchange ordering,
// ragged alltoallv round-trips, owned sends through send-only decorators,
// large bodies keeping their superstep at an uneven pace), rank-count and
// transport independence of the distributed shuffle (loopback ==
// threaded, p in {1, 2, 4, 8}),
// bit-agreement with backend::sequential at/below the leaf cutoff and
// with smp::engine above it (ragged and empty rank blocks included),
// transports reused across runs and shared by concurrent callers,
// uniformity of the distributed pipeline, and the planner's BSP
// (p, g, L) cgm candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cgm/distributed.hpp"
#include "cgm/machine.hpp"
#include "comm/socket_transport.hpp"
#include "comm/transport.hpp"
#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "smp/engine.hpp"
#include "smp/thread_pool.hpp"
#include "support/perm_check.hpp"

namespace {

using namespace cgp;

// --- transport primitives ----------------------------------------------------

TEST(Transport, LoopbackDeliversInPostOrder) {
  comm::loopback_transport tr;
  EXPECT_EQ(tr.size(), 1u);
  tr.run([](comm::endpoint& ep) {
    EXPECT_EQ(ep.rank(), 0u);
    const std::uint64_t a = 11, b = 22;
    ep.send_span(0, 7, std::span<const std::uint64_t>(&a, 1));
    ep.send_span(0, 9, std::span<const std::uint64_t>(&b, 1));
    const auto msgs = ep.exchange();
    ASSERT_EQ(msgs.size(), 2u);
    EXPECT_EQ(msgs[0].tag, 7u);
    EXPECT_EQ(msgs[0].as<std::uint64_t>().front(), 11u);
    EXPECT_EQ(msgs[1].tag, 9u);
    // A second exchange with nothing in flight is an empty barrier.
    EXPECT_TRUE(ep.exchange().empty());
  });
}

TEST(Transport, ThreadedDeliversInSourceRankOrder) {
  comm::threaded_transport tr(4);
  tr.run([](comm::endpoint& ep) {
    // Everyone sends its rank to rank 0, twice (post order within rank).
    const std::uint64_t r = ep.rank();
    const std::uint64_t r2 = r + 100;
    ep.send_span(0, 1, std::span<const std::uint64_t>(&r, 1));
    ep.send_span(0, 1, std::span<const std::uint64_t>(&r2, 1));
    const auto msgs = ep.exchange();
    if (ep.rank() == 0) {
      ASSERT_EQ(msgs.size(), 8u);
      for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(msgs[2 * s].source, s);
        EXPECT_EQ(msgs[2 * s].as<std::uint64_t>().front(), s);
        EXPECT_EQ(msgs[2 * s + 1].as<std::uint64_t>().front(), s + 100);
      }
    } else {
      EXPECT_TRUE(msgs.empty());
    }
  });
}

// Ragged alltoallv round-trip: chunk (r -> d) holds r + d + 1 words,
// except that r == d chunks are empty; every rank checks contents and
// source order of what it got back.
void check_alltoallv_roundtrip(comm::transport& tr) {
  tr.run([](comm::endpoint& ep) {
    const std::uint32_t p = ep.size();
    const std::uint32_t r = ep.rank();
    std::vector<std::vector<std::byte>> chunks(p);
    for (std::uint32_t d = 0; d < p; ++d) {
      if (d == r) continue;  // ragged: empty diagonal
      std::vector<std::uint64_t> words(r + d + 1, 1000 * r + d);
      chunks[d].resize(words.size() * 8);
      std::memcpy(chunks[d].data(), words.data(), chunks[d].size());
    }
    const auto got = ep.alltoallv(std::span<const std::vector<std::byte>>(chunks));
    ASSERT_EQ(got.size(), p);
    for (std::uint32_t s = 0; s < p; ++s) {
      if (s == r) {
        EXPECT_TRUE(got[s].empty());
        continue;
      }
      ASSERT_EQ(got[s].size(), (s + r + 1) * 8u) << "from rank " << s;
      std::vector<std::uint64_t> words(s + r + 1);
      std::memcpy(words.data(), got[s].data(), got[s].size());
      for (const auto w : words) EXPECT_EQ(w, 1000 * s + r);
    }
  });
}

TEST(Transport, AlltoallvRaggedRoundTripLoopback) {
  comm::loopback_transport tr;
  // p = 1: the off-diagonal set is empty; the round trip must still be
  // well-formed (one empty received chunk).
  tr.run([](comm::endpoint& ep) {
    std::vector<std::vector<std::byte>> chunks(1);
    const auto got = ep.alltoallv(std::span<const std::vector<std::byte>>(chunks));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].empty());
  });
}

TEST(Transport, AlltoallvRaggedRoundTripThreaded) {
  for (const std::uint32_t p : {2u, 4u, 8u}) {
    comm::threaded_transport tr(p);
    check_alltoallv_roundtrip(tr);
  }
}

TEST(Transport, ThreadedRunsOnExternalPool) {
  smp::thread_pool pool(4);
  comm::threaded_transport tr(4, &pool);
  check_alltoallv_roundtrip(tr);
}

// --- socket transport (comm/socket_transport.hpp) ---------------------------

TEST(SocketTransport, DeliversInSourceRankOrder) {
  // Same ordering contract as the threaded transport, but the messages
  // actually cross TCP connections and the per-destination aggregator.
  comm::socket_transport tr(4);
  tr.run([](comm::endpoint& ep) {
    const std::uint64_t r = ep.rank();
    const std::uint64_t r2 = r + 100;
    ep.send_span(0, 1, std::span<const std::uint64_t>(&r, 1));
    ep.send_span(0, 1, std::span<const std::uint64_t>(&r2, 1));
    const auto msgs = ep.exchange();
    if (ep.rank() == 0) {
      ASSERT_EQ(msgs.size(), 8u);
      for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(msgs[2 * s].source, s);
        EXPECT_EQ(msgs[2 * s].as<std::uint64_t>().front(), s);
        EXPECT_EQ(msgs[2 * s + 1].as<std::uint64_t>().front(), s + 100);
      }
    } else {
      EXPECT_TRUE(msgs.empty());
    }
    // A second exchange with nothing in flight is an empty barrier.
    EXPECT_TRUE(ep.exchange().empty());
  });
}

TEST(SocketTransport, AlltoallvRaggedRoundTrip) {
  for (const std::uint32_t p : {2u, 4u, 8u}) {
    comm::socket_transport tr(p);
    check_alltoallv_roundtrip(tr);
  }
}

TEST(SocketTransport, EmptyAndOversizedPayloadsRoundTripThroughFraming) {
  // The framing edge cases: an empty payload (empty vectors have null
  // data() -- the record must still travel, tag intact), an odd 3-byte
  // payload, then bulk records of two shapes.  One record far above the
  // 64 KiB read chunk ((1 << 20) + 7 bytes) flushes by size with the two
  // small records in its frame.  Nine 61 KiB records each reach the
  // 60 KiB cut alone but stay under the 64 KiB direct-receive size, so
  // each travels as its own frame and is parsed whole.
  struct arm {
    std::vector<std::size_t> bulk;  ///< record sizes after the small two
    std::uint64_t frames = 0;        ///< over both directions
    std::uint64_t flushes_size = 0;
  };
  const std::vector<arm> arms = {
      {{(std::size_t{1} << 20) + 7}, 4, 2},
      {std::vector<std::size_t>(9, std::size_t{61} * 1024), 20, 18},
  };
  for (const arm& a : arms) {
    comm::socket_transport tr(2);
    tr.run([&a](comm::endpoint& ep) {
      const std::uint32_t peer = 1 - ep.rank();
      const auto byte_at = [](std::size_t i, std::size_t k, std::uint32_t rank) {
        return static_cast<std::byte>((i * 131 + k * 7 + rank) & 0xFF);
      };
      ep.send(peer, 1, {});
      const std::vector<std::byte> odd(3, std::byte{0x5A});
      ep.send(peer, 2, std::span<const std::byte>(odd));
      for (std::size_t k = 0; k < a.bulk.size(); ++k) {
        std::vector<std::byte> big(a.bulk[k]);
        for (std::size_t i = 0; i < big.size(); ++i) big[i] = byte_at(i, k, ep.rank());
        ep.send(peer, static_cast<std::uint32_t>(3 + k), std::span<const std::byte>(big));
      }
      const auto msgs = ep.exchange();
      ASSERT_EQ(msgs.size(), 2 + a.bulk.size());
      EXPECT_EQ(msgs[0].source, peer);
      EXPECT_EQ(msgs[0].tag, 1u);
      EXPECT_TRUE(msgs[0].payload.empty());
      EXPECT_EQ(msgs[1].tag, 2u);
      EXPECT_EQ(msgs[1].payload, odd);
      for (std::size_t k = 0; k < a.bulk.size(); ++k) {
        const comm::message& m = msgs[2 + k];
        EXPECT_EQ(m.tag, 3 + k);
        ASSERT_EQ(m.payload.size(), a.bulk[k]);
        for (std::size_t i = 0; i < m.payload.size(); ++i) {
          ASSERT_EQ(m.payload[i], byte_at(i, k, peer)) << "record " << k << " at byte " << i;
        }
      }
    });
    const comm::wire_counters w = tr.wire();
    EXPECT_EQ(w.messages, 2 * (2 + a.bulk.size()));
    EXPECT_EQ(w.frames, a.frames);
    EXPECT_EQ(w.flushes_size, a.flushes_size);
    EXPECT_EQ(w.flushes_sync, 2u);
  }
}

TEST(SocketTransport, BulkBidirectionalTrafficAcrossSuperstepsDoesNotDeadlock) {
  // 8 MiB each way per superstep -- far beyond any socket buffer, so the
  // exchange loop must interleave reads and writes (a write-only rank
  // would deadlock against a full send buffer).  Two supersteps exercise
  // the one-step-ahead frame stash.
  comm::socket_transport tr(2);
  tr.run([](comm::endpoint& ep) {
    const std::uint32_t peer = 1 - ep.rank();
    std::vector<std::uint64_t> chunk(8192, 0);
    for (std::uint32_t step = 0; step < 2; ++step) {
      for (std::uint32_t i = 0; i < 128; ++i) {
        chunk.assign(chunk.size(), 1'000'000ull * ep.rank() + 1000 * step + i);
        ep.send_span(peer, i, std::span<const std::uint64_t>(chunk));
      }
      const auto msgs = ep.exchange();
      ASSERT_EQ(msgs.size(), 128u);
      for (std::uint32_t i = 0; i < 128; ++i) {
        EXPECT_EQ(msgs[i].tag, i);
        const auto words = msgs[i].as<std::uint64_t>();
        ASSERT_EQ(words.size(), chunk.size());
        EXPECT_EQ(words.front(), 1'000'000ull * peer + 1000 * step + i);
        EXPECT_EQ(words.back(), words.front());
      }
    }
  });
}

TEST(SocketTransport, AggregatorCoalescesSmallSendsOntoFewerFrames) {
  // The aggregator's reason to exist: a burst of tiny sends to one
  // destination rides one frame, not one frame per send.
  comm::socket_transport tr(4);
  tr.run([](comm::endpoint& ep) {
    const std::uint64_t x = ep.rank();
    for (std::uint32_t step = 0; step < 2; ++step) {
      for (std::uint32_t i = 0; i < 64; ++i) {
        for (std::uint32_t d = 0; d < ep.size(); ++d) {
          if (d != ep.rank()) ep.send_span(d, i, std::span<const std::uint64_t>(&x, 1));
        }
      }
      (void)ep.exchange();
    }
  });
  const comm::wire_counters on = tr.wire();

  // 64 sends x 3 peers x 4 ranks x 2 steps.
  EXPECT_EQ(on.messages, 64u * 3 * 4 * 2);
  // The whole per-peer burst (64 x 16-byte records = 1 KiB) fits one FIN
  // frame, so all flushes are sync flushes.
  EXPECT_EQ(on.frames, 3u * 4 * 2);
  EXPECT_EQ(on.flushes_size, 0u);
  EXPECT_EQ(on.flushes_sync, on.frames);
  EXPECT_GT(on.wire_bytes, 0u);
}

// --- owned sends (endpoint::send_owned) --------------------------------------

/// Forwards to a transport's endpoint and counts the payload bytes posted.
/// It overrides only `send`, as perfbench's accounting endpoint does, so
/// `send_owned` reaches it through the base class's copying default.
class send_counting_endpoint final : public comm::endpoint {
 public:
  explicit send_counting_endpoint(comm::endpoint& inner) : inner_(inner) {}

  [[nodiscard]] std::uint32_t rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] std::uint32_t size() const noexcept override { return inner_.size(); }
  void send(std::uint32_t dest, std::uint32_t tag, std::span<const std::byte> bytes) override {
    bytes_ += bytes.size();
    inner_.send(dest, tag, bytes);
  }
  [[nodiscard]] std::vector<comm::message> exchange() override { return inner_.exchange(); }

  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  comm::endpoint& inner_;
  std::uint64_t bytes_ = 0;
};

/// Body `i` of four from rank `src` to rank `dest`.  On the socket
/// transport the first is a one-record frame (written from the caller's
/// vector and received straight into the message), the empty and the odd
/// one are aggregated, and the last cuts a frame behind them (written in
/// place, parsed from the frame on receive).
std::vector<std::byte> owned_body(std::uint32_t src, std::uint32_t dest, std::uint32_t i) {
  constexpr std::size_t kSizes[] = {(std::size_t{1} << 20) + 7, 0, 3, (std::size_t{1} << 18) + 5};
  std::vector<std::byte> b(kSizes[i] + (kSizes[i] > 3 ? 16 * src + dest : 0));
  for (std::size_t k = 0; k < b.size(); ++k) {
    b[k] = static_cast<std::byte>((k * 131 + 7 * src + 3 * dest + i) & 0xFF);
  }
  return b;
}

void check_send_owned(comm::transport& tr) {
  tr.run([](comm::endpoint& ep) {
    const std::uint32_t p = ep.size();
    const std::uint32_t r = ep.rank();
    // Every rank posts the four bodies to every rank, itself included:
    // by send, by send_owned, and by send_owned through the decorator.
    const auto post_all = [&](const std::function<void(std::uint32_t, std::uint32_t,
                                                        std::vector<std::byte>)>& post) {
      for (std::uint32_t d = 0; d < p; ++d) {
        for (std::uint32_t i = 0; i < 4; ++i) post(d, i, owned_body(r, d, i));
      }
    };
    std::uint64_t posted = 0;
    post_all([&](std::uint32_t d, std::uint32_t tag, std::vector<std::byte> b) {
      posted += b.size();
      ep.send(d, tag, std::span<const std::byte>(b));
    });
    const std::vector<comm::message> by_send = ep.exchange();
    post_all([&](std::uint32_t d, std::uint32_t tag, std::vector<std::byte> b) {
      ep.send_owned(d, tag, std::move(b));
    });
    const std::vector<comm::message> by_owned = ep.exchange();
    send_counting_endpoint dec(ep);
    post_all([&](std::uint32_t d, std::uint32_t tag, std::vector<std::byte> b) {
      dec.send_owned(d, tag, std::move(b));
    });
    const std::vector<comm::message> by_dec = dec.exchange();

    EXPECT_EQ(dec.bytes(), posted) << "rank " << r;
    ASSERT_EQ(by_send.size(), 4u * p);
    for (std::size_t m = 0; m < by_send.size(); ++m) {
      const auto src = static_cast<std::uint32_t>(m / 4);
      const auto i = static_cast<std::uint32_t>(m % 4);
      EXPECT_EQ(by_send[m].source, src);
      EXPECT_EQ(by_send[m].tag, i);
      EXPECT_TRUE(by_send[m].payload == owned_body(src, r, i))
          << "rank " << r << " from " << src << ", body " << i;
    }
    for (const std::vector<comm::message>* got : {&by_owned, &by_dec}) {
      ASSERT_EQ(got->size(), by_send.size());
      for (std::size_t m = 0; m < by_send.size(); ++m) {
        EXPECT_EQ((*got)[m].source, by_send[m].source);
        EXPECT_EQ((*got)[m].tag, by_send[m].tag);
        EXPECT_TRUE((*got)[m].payload == by_send[m].payload) << "rank " << r << ", message " << m;
      }
    }
  });
}

TEST(Transport, SendOwnedReachesSendOnlyDecoratorsAndDeliversLikeSend) {
  comm::loopback_transport lo;
  check_send_owned(lo);
  comm::threaded_transport th(3);
  check_send_owned(th);
  comm::socket_transport so(3);
  check_send_owned(so);
}

/// Three supersteps in which every rank posts an 8 MiB body, more than
/// the kernel takes in one write, to every peer with send_owned.  The ranks
/// run at an uneven pace: in superstep s, rank r dawdles between posting
/// and exchanging when s + r is odd, and a rank posts as soon as its
/// previous superstep completes.  A peer's next body then sits half
/// written right behind the FIN its reader waits for, so the reader
/// completes s with a body of s + 1 still arriving.  Each body must arrive
/// in the superstep it was posted in.  (Filing the body by the superstep
/// current when its header arrives fails here every time.)  The checks
/// wait until the last superstep: between supersteps they would delay the
/// next post.
void check_bodies_keep_their_superstep(comm::transport& tr) {
  constexpr std::uint32_t kSteps = 3;
  tr.run([](comm::endpoint& ep) {
    const std::uint32_t p = ep.size();
    const std::uint32_t r = ep.rank();
    const auto body_size = [](std::uint32_t step, std::uint32_t src, std::uint32_t dest) {
      return (std::size_t{8} << 20) + 4096 * step + 64 * src + dest;
    };
    const auto fill = [](std::uint32_t step, std::uint32_t src) {
      return static_cast<std::byte>(16 * step + src + 1);
    };
    const auto bodies_for = [&](std::uint32_t step) {
      std::vector<std::vector<std::byte>> b(p);
      for (std::uint32_t d = 0; d < p; ++d) {
        if (d != r) b[d].assign(body_size(step, r, d), fill(step, r));
      }
      return b;
    };
    std::vector<std::vector<std::byte>> next = bodies_for(0);
    std::vector<std::vector<comm::message>> got(kSteps);
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      for (std::uint32_t d = 0; d < p; ++d) {
        if (d != r) ep.send_owned(d, step, std::move(next[d]));
      }
      if ((step + r) % 2 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (step + 1 < kSteps) next = bodies_for(step + 1);  // ready to post at once
      got[step] = ep.exchange();
    }
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      ASSERT_EQ(got[step].size(), p - 1) << "rank " << r << ", superstep " << step;
      for (const comm::message& m : got[step]) {
        EXPECT_EQ(m.tag, step) << "rank " << r << " from " << m.source;
        ASSERT_EQ(m.payload.size(), body_size(step, m.source, r));
        const std::byte want = fill(step, m.source);
        EXPECT_TRUE(std::all_of(m.payload.begin(), m.payload.end(),
                                [want](std::byte x) { return x == want; }))
            << "rank " << r << " from " << m.source << ", superstep " << step;
      }
    }
  });
}

TEST(Transport, LargeBodiesArriveInTheirOwnSuperstepAtUnevenPace) {
  comm::threaded_transport th(2);
  check_bodies_keep_their_superstep(th);
  comm::socket_transport so(2);
  for (int round = 0; round < 2; ++round) check_bodies_keep_their_superstep(so);
}

// The socket endpoint writes its queue with one sendmsg that gathers the
// framed bytes and the owned bodies spliced between them, at most eight
// segments per call.  Rank 0 queues a 16 MiB frame by copy, more than
// the kernel takes while rank 1 sleeps, then four 1 MiB owned bodies,
// each behind its own frame header, and the exchange queues its FIN
// frame last: nine segments, so the gather has to stop short of the FIN
// and leave it to the next call.  (Four bodies exactly: with a fifth the
// gather stops before the FIN anyway.  A gather that fills eight entries
// and then adds the FIN overflows its array, which only AddressSanitizer
// reports.)
TEST(SocketTransport, OwnedBodiesQueuedBehindAFullSocketArriveIntact) {
  constexpr std::uint32_t kBodies = 4;
  const auto body = [](std::uint32_t tag) {
    const std::size_t size = tag == 0 ? std::size_t{16} << 20 : (std::size_t{1} << 20) + tag;
    std::vector<std::byte> b(size);
    for (std::size_t k = 0; k < size; ++k) b[k] = static_cast<std::byte>((k * 131 + tag) & 0xFF);
    return b;
  };
  comm::socket_transport so(2);
  so.run([&](comm::endpoint& ep) {
    if (ep.rank() == 0) {
      const std::vector<std::byte> big = body(0);
      ep.send(1, 0, std::span<const std::byte>(big));
      for (std::uint32_t tag = 1; tag <= kBodies; ++tag) ep.send_owned(1, tag, body(tag));
      EXPECT_TRUE(ep.exchange().empty());
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::vector<comm::message> got = ep.exchange();
    ASSERT_EQ(got.size(), kBodies + 1);
    for (std::uint32_t tag = 0; tag <= kBodies; ++tag) {
      EXPECT_EQ(got[tag].source, 0u);
      EXPECT_EQ(got[tag].tag, tag);
      EXPECT_TRUE(got[tag].payload == body(tag)) << "body " << tag;
    }
  });
}

TEST(SocketTransportDeathTest, KilledRankAbortsTheJobLoudly) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A rank dying mid-superstep must take the whole job down with a
  // diagnostic, not leave the surviving ranks wedged in poll() forever.
  EXPECT_DEATH(
      {
        comm::socket_transport tr(4);
        tr.run([](comm::endpoint& ep) {
          if (ep.rank() == 2) throw std::runtime_error("rank down");
          (void)ep.exchange();
        });
      },
      "uncaught exception on transport rank 2");
}

TEST(TransportDeathTest, BarrierRefusesInFlightMessages) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // barrier() used to silently discard whatever the exchange delivered;
  // now it fails the loud way.
  EXPECT_DEATH(
      {
        comm::loopback_transport tr;
        tr.run([](comm::endpoint& ep) {
          const std::uint64_t x = 1;
          ep.send_span(0, 0, std::span<const std::uint64_t>(&x, 1));
          ep.barrier();
        });
      },
      "crossed in-flight messages");
}

TEST(Transport, MachineAdaptsExplicitTransportWithIdenticalAccounting) {
  // The simulator machine is an adapter: running the same SPMD program
  // over its default transport and over an explicitly injected one must
  // give identical draws, message contents, and resource accounting.
  const auto program = [](cgm::context& ctx) {
    const std::uint64_t token = ctx.rng()();
    ctx.send_value((ctx.id() + 1) % ctx.nprocs(), 5, token);
    ctx.charge(10 + ctx.id());
    ctx.sync();
    const auto msg = ctx.take((ctx.id() + ctx.nprocs() - 1) % ctx.nprocs(), 5);
    ASSERT_TRUE(msg.has_value());
  };

  cgm::machine dflt(4, 808);
  const auto s1 = dflt.run(program);

  comm::threaded_transport tr(4);
  cgm::machine adapted(tr, 808);
  EXPECT_EQ(adapted.nprocs(), 4u);
  EXPECT_EQ(&adapted.transport(), static_cast<comm::transport*>(&tr));
  const auto s2 = adapted.run(program);

  ASSERT_EQ(s1.per_proc.size(), s2.per_proc.size());
  for (std::size_t i = 0; i < s1.per_proc.size(); ++i) {
    EXPECT_EQ(s1.per_proc[i].compute_ops, s2.per_proc[i].compute_ops);
    EXPECT_EQ(s1.per_proc[i].words_sent, s2.per_proc[i].words_sent);
    EXPECT_EQ(s1.per_proc[i].words_received, s2.per_proc[i].words_received);
    EXPECT_EQ(s1.per_proc[i].rng_draws, s2.per_proc[i].rng_draws);
    EXPECT_EQ(s1.per_proc[i].supersteps, s2.per_proc[i].supersteps);
  }
  ASSERT_EQ(s1.supersteps.size(), s2.supersteps.size());
  for (std::size_t s = 0; s < s1.supersteps.size(); ++s) {
    EXPECT_EQ(s1.supersteps[s].max_compute, s2.supersteps[s].max_compute);
    EXPECT_EQ(s1.supersteps[s].max_words_in, s2.supersteps[s].max_words_in);
    EXPECT_EQ(s1.supersteps[s].total_words, s2.supersteps[s].total_words);
  }

  // permute_global over the adapted machine is the same simulator path.
  const auto pi = core::random_permutation_global(adapted, 512);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));
}

// --- rank-count / transport independence of the distributed engine ----------

std::vector<std::uint64_t> shuffled_iota(comm::transport& tr, std::uint64_t n,
                                         std::uint64_t seed,
                                         const cgm::distributed_options& opt) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  cgm::transport_shuffle(tr, std::span<std::uint64_t>(v), seed, opt);
  return v;
}

TEST(DistributedShuffle, IndependentOfRankCountAndTransport) {
  // n far above the (artificially small) leaf so several split levels
  // run; the permutation must not depend on p, on the transport, or on
  // the pool behind it.
  cgm::distributed_options opt;
  opt.engine.fan_out = 8;
  opt.engine.cache_items = 512;
  const std::uint64_t n = 30'000;

  smp::thread_pool pool(4);
  test_support::expect_bit_identical(
      10,
      [&](std::size_t variant) {
        switch (variant) {
          case 0: {
            comm::loopback_transport tr;
            return shuffled_iota(tr, n, 42, opt);
          }
          case 1: {
            comm::threaded_transport tr(1);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 2: {
            comm::threaded_transport tr(2);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 3: {
            comm::threaded_transport tr(4);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 4: {
            comm::threaded_transport tr(8);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 5: {
            comm::threaded_transport tr(4, &pool);
            return shuffled_iota(tr, n, 42, opt);
          }
          // The engine's output must not change when ranks talk over TCP,
          // at any rank count (framing is pure plumbing).
          case 6: {
            comm::socket_transport tr(1);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 7: {
            comm::socket_transport tr(2);
            return shuffled_iota(tr, n, 42, opt);
          }
          case 8: {
            comm::socket_transport tr(4);
            return shuffled_iota(tr, n, 42, opt);
          }
          default: {
            comm::socket_transport tr(8);
            return shuffled_iota(tr, n, 42, opt);
          }
        }
      },
      "distributed shuffle, p in {1,2,4,8} x {loopback,threaded,socket}");
}

TEST(DistributedShuffle, DeepDistributedLevelsStayRankIndependent) {
  // fan_out 2 with 8 ranks forces MULTIPLE distributed split levels
  // (buckets stay multi-rank for ~log2(p) levels) plus the gather path
  // for boundary-straddling small buckets.
  cgm::distributed_options opt;
  opt.engine.fan_out = 2;
  opt.engine.cache_items = 512;
  const std::uint64_t n = 30'000;
  test_support::expect_bit_identical(
      3,
      [&](std::size_t variant) {
        if (variant == 0) {
          comm::loopback_transport tr;
          return shuffled_iota(tr, n, 7, opt);
        }
        comm::threaded_transport tr(variant == 1 ? 8 : 5);  // 5: ragged blocks
        return shuffled_iota(tr, n, 7, opt);
      },
      "deep distributed recursion, p in {1, 8, 5}");
}

TEST(DistributedShuffle, MatchesSmpEngineAboveLeaf) {
  // Above the cache cutoff the distributed engine executes the exact
  // shared-memory law: same plans, same label streams, same leaf
  // engines.  smp::engine output == transport_shuffle output, any p.
  smp::engine_options eopt;
  eopt.fan_out = 8;
  eopt.cache_items = 512;
  eopt.threads = 2;
  smp::engine eng(eopt);

  const std::uint64_t n = 20'000;
  std::vector<std::uint64_t> smp_out(n);
  std::iota(smp_out.begin(), smp_out.end(), 0);
  eng.shuffle(std::span<std::uint64_t>(smp_out), 99);

  cgm::distributed_options dopt;
  dopt.engine = eopt;
  for (const std::uint32_t p : {1u, 4u}) {
    comm::threaded_transport tr(p);
    EXPECT_EQ(shuffled_iota(tr, n, 99, dopt), smp_out) << "p=" << p;
  }
}

// --- kept endpoints, ragged blocks, concurrent callers -----------------------

TEST(DistributedShuffle, ReusedTransportsMatchFreshOnes) {
  // The transports keep their rank threads and endpoint buffers across
  // runs.  Calls of mixed sizes -- distributed levels, gathers, root
  // leaves, a single-leaf n = 9 -- on one transport must each equal the
  // same call on a fresh transport: no run sees what an earlier one left.
  // Before each call, a program runs three supersteps and then posts
  // sends after its last exchange; they are never delivered, and the next
  // run must not see them either (each run is an independent BSP
  // computation).  A 1 MiB send cuts a socket frame at once and is partly
  // written before the run ends, so its bytes are still on the wire when
  // the next run starts; the owned one is written from its vector.
  cgm::distributed_options opt;
  opt.engine.fan_out = 8;
  opt.engine.cache_items = 512;
  comm::socket_transport sock(4);
  comm::threaded_transport thr(3);
  const auto leave_undelivered_sends = [](comm::transport& tr) {
    tr.run([](comm::endpoint& ep) {
      for (int s = 0; s < 3; ++s) (void)ep.exchange();
      const std::uint64_t word = 0xDEAD;
      for (std::uint32_t d = 0; d < ep.size(); ++d) {
        if (d == ep.rank()) continue;
        std::vector<std::byte> big(std::size_t{1} << 20, std::byte{0xBA});
        if (d % 2 == 0) {
          ep.send_owned(d, 0xBAD, std::move(big));
        } else {
          ep.send(d, 0xBAD, big);
        }
      }
      for (std::uint32_t d = 0; d < ep.size(); ++d) {
        ep.send_span(d, 0xBAD, std::span<const std::uint64_t>(&word, 1));
      }
    });
  };
  std::uint64_t seed = 500;
  for (const std::uint64_t n : {30'000ull, 700ull, 300ull, 30'000ull, 9ull, 100'000ull}) {
    ++seed;
    leave_undelivered_sends(sock);
    leave_undelivered_sends(thr);
    comm::socket_transport fresh_sock(4);
    EXPECT_EQ(shuffled_iota(sock, n, seed, opt), shuffled_iota(fresh_sock, n, seed, opt))
        << "socket, n=" << n;
    comm::threaded_transport fresh_thr(3);
    EXPECT_EQ(shuffled_iota(thr, n, seed, opt), shuffled_iota(fresh_thr, n, seed, opt))
        << "threaded, n=" << n;
  }

  // 16-byte records through the dispatch layer on the kept socket
  // transport follow the u64 law (value-independence).
  struct rec16 {
    std::uint64_t key;
    std::uint64_t tag;
  };
  core::backend_options bopt;
  bopt.which = core::backend::cgm;
  bopt.transport = &sock;
  bopt.cgm_engine = opt;
  const std::uint64_t n = 20'000;
  std::vector<rec16> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, ~i};
  core::make_executor(core::resolve_plan(n, sizeof(rec16), bopt), bopt)
      ->shuffle(std::span<rec16>(recs), 77);
  comm::socket_transport fresh(4);
  const std::vector<std::uint64_t> pi = shuffled_iota(fresh, n, 77, opt);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(recs[i].key, pi[i]) << "i=" << i;
    ASSERT_EQ(recs[i].tag, ~pi[i]) << "i=" << i;
  }
}

TEST(DistributedShuffle, RaggedAndEmptyRankBlocksMatchSmpEngine) {
  // n < p leaves rank blocks of 0 and 1 items, and p not dividing n
  // leaves ragged ones, so one label's slots can cross several block
  // ends -- some of them of empty blocks.  Every rank count and both
  // transports must still apply smp::engine's permutation.
  const auto check = [](std::uint64_t n, std::uint32_t p, std::uint32_t fan_out,
                        std::size_t cache_items) {
    smp::engine_options eopt;
    eopt.fan_out = fan_out;
    eopt.cache_items = cache_items;
    eopt.threads = 1;
    const std::vector<std::uint64_t> expected = smp::engine(eopt).random_permutation(n, 31);
    cgm::distributed_options dopt;
    dopt.engine = eopt;
    comm::threaded_transport thr(p);
    EXPECT_EQ(shuffled_iota(thr, n, 31, dopt), expected)
        << "threaded, n=" << n << " p=" << p << " fan_out=" << fan_out;
    comm::socket_transport sock(p);
    EXPECT_EQ(shuffled_iota(sock, n, 31, dopt), expected)
        << "socket, n=" << n << " p=" << p << " fan_out=" << fan_out;
  };
  for (const std::uint64_t n : {3ull, 5ull, 17ull}) check(n, 8, 2, 2);
  for (const std::uint32_t p : {3u, 7u}) {
    check(30'000, p, 2, 2);
    check(30'000, p, 8, 512);
  }
}

std::uint64_t digest(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t x : v) h = (h ^ x) * 0x100000001b3ull;
  return h;
}

/// Runs `body` on a helper thread and ends the test binary with a message
/// if it is still running after `limit`: a deadlocked transport must fail
/// the suite, not hang it.
void finishes_within(std::chrono::seconds limit, const char* what,
                     const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: still running after %lld s -- deadlocked?\n", what,
                 static_cast<long long>(limit.count()));
    std::_Exit(1);
  }
  worker.join();
}

/// Two threads each run `calls` shuffles through `shuffle(i)` (which must
/// be a pure function of i); every result must equal the serial one.
void expect_concurrent_callers_serialize(
    int calls, const std::function<std::vector<std::uint64_t>(int, int)>& shuffle,
    const char* what) {
  std::vector<std::uint64_t> serial(calls);
  for (int i = 0; i < calls; ++i) serial[i] = digest(shuffle(2, i));
  std::vector<std::vector<std::uint64_t>> got(2, std::vector<std::uint64_t>(calls));
  finishes_within(std::chrono::seconds(60), what, [&] {
    std::thread other([&] {
      for (int i = 0; i < calls; ++i) got[1][i] = digest(shuffle(1, i));
    });
    for (int i = 0; i < calls; ++i) got[0][i] = digest(shuffle(0, i));
    other.join();
  });
  EXPECT_EQ(got[0], serial) << what;
  EXPECT_EQ(got[1], serial) << what;
}

TEST(Transport, ConcurrentProgramsOnOneTransportWaitTheirTurn) {
  // Two contexts with the same seed share the registry's threaded
  // transport; their draws must be what each would get alone.
  context_options copt;
  copt.which = core::backend::cgm;
  copt.parallelism = 4;
  copt.seed = 4242;
  copt.engine.cgm_engine.engine.cache_items = 512;  // several supersteps per call
  constexpr int kCalls = 300;
  {
    std::vector<std::unique_ptr<cgp::context>> ctx;
    for (int c = 0; c < 3; ++c) ctx.push_back(std::make_unique<cgp::context>(copt));
    expect_concurrent_callers_serialize(
        kCalls,
        [&](int who, int) {
          std::vector<std::uint64_t> v(20'000);
          std::iota(v.begin(), v.end(), 0);
          (void)ctx[who]->shuffle(std::span<std::uint64_t>(v));
          return v;
        },
        "two contexts on shared_transport(4)");
  }

  // Two threads on one socket transport.
  comm::socket_transport sock(4);
  cgm::distributed_options dopt;
  dopt.engine.cache_items = 512;
  expect_concurrent_callers_serialize(
      kCalls,
      [&](int, int i) { return shuffled_iota(sock, 20'000, 9000 + i, dopt); },
      "two threads on socket_transport(4)");
}

// --- backend::cgm through the context ----------------------------------------

TEST(CgmBackend, MatchesSequentialAtAndBelowLeaf) {
  // At or below the cache cutoff the whole input is one leaf drawn from
  // philox(seed, 0) -- the sequential stream -- so backend::cgm over the
  // default loopback (p = 1) AND over threaded transports is bit-for-bit
  // backend::sequential (the em-with-memory>=n precedent).
  for (const std::uint64_t n : {2ull, 1000ull, 65536ull}) {
    test_support::expect_bit_identical(
        4,
        [&](std::size_t variant) {
          context_options copt;
          switch (variant) {
            case 0:
              copt.which = core::backend::sequential;
              break;
            case 1:
              copt.which = core::backend::cgm;  // parallelism 0 -> loopback
              break;
            case 2:
              copt.which = core::backend::cgm;
              copt.parallelism = 1;
              break;
            default:
              copt.which = core::backend::cgm;
              copt.parallelism = 4;  // still one leaf: still sequential
              break;
          }
          return cgp::context(copt).random_permutation(n, 1234);
        },
        "backend::cgm == backend::sequential at/below the leaf");
  }
}

TEST(CgmBackend, ExplicitTransportAndRecordTypesDispatch) {
  // 16-byte records through an explicitly injected threaded transport
  // agree with the u64 permutation law (value-independence): gathering
  // iota-tagged records reproduces fill_random_permutation.
  struct rec16 {
    std::uint64_t key;
    std::uint64_t tag;
  };
  comm::threaded_transport tr(4);
  context_options copt;
  copt.which = core::backend::cgm;
  copt.engine.transport = &tr;
  copt.engine.cgm_engine.engine.cache_items = 256;  // force distribution at n = 5000
  const cgp::context ctx(copt);

  const std::uint64_t n = 5000;
  std::vector<rec16> recs(n);
  for (std::uint64_t i = 0; i < n; ++i) recs[i] = {i, i ^ 0xABCDull};
  std::vector<rec16> shuffled = recs;
  const core::permutation_plan plan = ctx.shuffle(std::span<rec16>(shuffled), 77);
  EXPECT_EQ(plan.chosen, core::backend::cgm);
  EXPECT_EQ(plan.threads, 4u);

  const std::vector<std::uint64_t> pi = ctx.random_permutation(n, 77);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(shuffled[i].key, pi[i]);
    EXPECT_EQ(shuffled[i].tag, pi[i] ^ 0xABCDull);
  }
}

TEST(CgmBackend, BitIdenticalAcrossTransportsAndRankCounts) {
  // The dispatch-layer face of the acceptance grid: backend::cgm with an
  // injected socket transport draws the same permutation as the threaded
  // transport and the default loopback, at ranks {1, 2, 4}.
  const std::uint64_t n = 5000;
  context_options base;
  base.which = core::backend::cgm;
  base.engine.cgm_engine.engine.cache_items = 256;  // force distribution

  const auto reference = cgp::context(base).random_permutation(n, 77);  // loopback
  for (const std::uint32_t p : {1u, 2u, 4u}) {
    comm::threaded_transport th(p);
    context_options copt = base;
    copt.engine.transport = &th;
    EXPECT_EQ(cgp::context(copt).random_permutation(n, 77), reference) << "threaded p=" << p;

    comm::socket_transport so(p);
    copt.engine.transport = &so;
    EXPECT_EQ(cgp::context(copt).random_permutation(n, 77), reference) << "socket p=" << p;
  }
}

TEST(CgmBackend, UniformOverS4WithDistributedSplits) {
  // Tiny leaf (2) makes even n = 4 run the full distributed machinery
  // (matrix, label exchange, gathers) on 2 threaded ranks; the composed
  // pipeline must be exactly uniform over S4.
  comm::threaded_transport tr(2);
  cgm::distributed_options opt;
  opt.engine.fan_out = 2;
  opt.engine.cache_items = 2;
  test_support::expect_uniform_over_sk(
      [&](std::span<std::uint64_t> v, int rep) {
        cgm::transport_shuffle(tr, v, 5000 + static_cast<std::uint64_t>(rep), opt);
      },
      4, 3000);
}

TEST(CgmBackend, FixedPointLawOnDistributedRanks) {
  comm::threaded_transport tr(4);
  cgm::distributed_options opt;
  opt.engine.fan_out = 4;
  opt.engine.cache_items = 16;
  test_support::expect_fixed_point_law(
      [&](int rep) {
        std::vector<std::uint64_t> v(300);
        std::iota(v.begin(), v.end(), 0);
        cgm::transport_shuffle(tr, std::span<std::uint64_t>(v),
                               9000 + static_cast<std::uint64_t>(rep), opt);
        return v;
      },
      600);
}

// --- the planner's (p, g, L) cgm candidate -----------------------------------

core::machine_profile scale_out_profile(std::uint32_t ranks) {
  core::machine_profile prof;
  prof.threads = 8;
  prof.cache_items = 65536;
  prof.seq_ns_hit = 2.0;
  prof.seq_ns_miss = 10.0;
  prof.split_ns = 2.0;
  prof.em_ns_per_item_pass = 25.0;
  prof.comm_ranks = ranks;
  prof.comm_g_ns_per_word = 5.0;
  prof.comm_l_ns = 2.0e4;
  return prof;
}

TEST(Planner, CgmInfeasibleWithoutScaleOutProfile) {
  // detect() leaves comm_ranks at 1: the distributed candidate must be
  // listed but never feasible, so single-host plans are unchanged.
  core::workload w;
  w.n = 10'000'000;
  const auto plan = core::plan_permutation(w, scale_out_profile(1));
  EXPECT_NE(plan.chosen, core::backend::cgm);
  bool saw_cgm = false;
  for (const auto& c : plan.candidates) {
    if (c.which == core::backend::cgm) {
      saw_cgm = true;
      EXPECT_FALSE(c.feasible);
    }
  }
  EXPECT_TRUE(saw_cgm);
}

TEST(Planner, BudgetedWorkloadPicksCgmOverEmOnScaleOutProfile) {
  // 200k x 8B = 1.6 MB input under a 1 MB per-rank budget: the
  // RAM-resident candidates are infeasible, and with 8 ranks (each
  // holding ~200 KB x 3 staging) the BSP cost term beats the
  // out-of-core engine's streaming passes.
  core::workload w;
  w.n = 200'000;
  w.element_bytes = 8;
  w.memory_budget_bytes = 1 << 20;
  const auto plan = core::plan_permutation(w, scale_out_profile(8));
  EXPECT_EQ(plan.chosen, core::backend::cgm);
  EXPECT_EQ(plan.threads, 8u);
  for (const auto& c : plan.candidates) {
    if (c.which == core::backend::sequential || c.which == core::backend::smp) {
      EXPECT_FALSE(c.feasible);
    }
  }
  EXPECT_FALSE(plan.explain().empty());
}

TEST(Planner, AutomaticMatchesExplicitCgmBitForBit) {
  const core::machine_profile prof = scale_out_profile(8);
  context_options auto_opt;
  auto_opt.memory_budget_bytes = 1 << 20;
  auto_opt.engine.profile = &prof;
  const cgp::context via_auto(auto_opt);
  const auto pi = via_auto.random_permutation(200'000, 31337);
  const core::permutation_plan plan = via_auto.plan_for(200'000, 8);
  ASSERT_EQ(plan.chosen, core::backend::cgm);

  context_options explicit_opt;
  explicit_opt.which = core::backend::cgm;
  explicit_opt.parallelism = plan.threads;
  EXPECT_EQ(pi, cgp::context(explicit_opt).random_permutation(200'000, 31337));
}

// --- the context facade ------------------------------------------------------

TEST(ContextFacade, ShuffleDrawsAreIndependentAndReproducible) {
  context_options copt;
  copt.which = core::backend::sequential;
  copt.seed = 606;
  cgp::context a(copt);
  std::vector<std::uint64_t> v1(500), v2(500);
  std::iota(v1.begin(), v1.end(), 0);
  std::iota(v2.begin(), v2.end(), 0);
  (void)a.shuffle(std::span<std::uint64_t>(v1));
  (void)a.shuffle(std::span<std::uint64_t>(v2));
  EXPECT_NE(v1, v2);  // draw 0 and draw 1 are independent
  EXPECT_EQ(a.draws(), 2u);

  cgp::context b(copt);  // same base seed: replays call for call
  std::vector<std::uint64_t> w1(500), w2(500);
  std::iota(w1.begin(), w1.end(), 0);
  std::iota(w2.begin(), w2.end(), 0);
  (void)b.shuffle(std::span<std::uint64_t>(w1));
  (void)b.shuffle(std::span<std::uint64_t>(w2));
  EXPECT_EQ(v1, w1);
  EXPECT_EQ(v2, w2);

  // Draw 0 uses the base seed verbatim: it equals an explicit-seed draw
  // under the base seed.
  EXPECT_EQ(v1, a.random_permutation(500, 606));

  b.reseed(606);
  std::vector<std::uint64_t> w3(500);
  std::iota(w3.begin(), w3.end(), 0);
  (void)b.shuffle(std::span<std::uint64_t>(w3));
  EXPECT_EQ(v1, w3);
}

TEST(ContextFacade, ExplicitCgmContextUsesTransportRanks) {
  context_options copt;
  copt.which = core::backend::cgm;
  copt.parallelism = 4;
  copt.seed = 2026;
  cgp::context ctx(copt);
  EXPECT_EQ(ctx.transport().size(), 4u);

  const auto plan = ctx.plan_for(100'000, 8);
  EXPECT_EQ(plan.chosen, core::backend::cgm);
  EXPECT_EQ(plan.threads, 4u);

  const auto pi = ctx.random_permutation(100'000);
  EXPECT_TRUE(stats::is_permutation_of_iota(pi));

  // Same law as the raw engine over the registry's shared transport.
  cgm::distributed_options dopt;
  std::vector<std::uint64_t> direct(100'000);
  std::iota(direct.begin(), direct.end(), 0);
  cgm::transport_shuffle(core::shared_transport(4), std::span<std::uint64_t>(direct), 2026,
                         dopt);
  EXPECT_EQ(pi, direct);
}

// The rank count may come from the expert options alone; transport()
// must still name the transport the draws run on.
TEST(ContextFacade, EngineParallelismSetsTheContextTransport) {
  context_options copt;
  copt.which = core::backend::cgm;
  copt.engine.parallelism = 4;
  copt.seed = 2026;
  cgp::context ctx(copt);
  EXPECT_EQ(ctx.plan_for(100'000, 8).threads, 4u);
  EXPECT_EQ(&ctx.transport(), &core::shared_transport(4));
  EXPECT_EQ(ctx.transport().size(), 4u);
}

// A record of N bytes whose first three bytes spell its index, so every
// record of a 3,001-item array is distinct.
template <std::size_t N>
struct indexed_record {
  unsigned char bytes[N];
};

template <std::size_t N>
void expect_draws_equal_the_executor_path(const cgp::context& ctx, std::uint64_t n,
                                          std::uint64_t seed) {
  const core::backend_options o = ctx.execution_options();
  const char* name = core::backend_name(o.which);
  std::vector<indexed_record<N>> recs(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    for (std::size_t j = 0; j < N; ++j) {
      recs[r].bytes[j] = static_cast<unsigned char>((r >> (8 * (j % 3))) + j);
    }
  }
  std::vector<indexed_record<N>> via_exec = recs;
  core::make_executor(core::resolve_plan(n, N, o), o)
      ->shuffle_raw(via_exec.data(), n, static_cast<std::uint32_t>(N), seed);
  const core::permutation_plan plan = ctx.shuffle(std::span<indexed_record<N>>(recs), seed);
  EXPECT_EQ(plan.chosen, o.which) << name;
  EXPECT_EQ(std::memcmp(recs.data(), via_exec.data(), n * N), 0)
      << name << ", " << N << "-byte records";

  std::vector<std::uint64_t> pi(n);
  core::make_executor(core::resolve_plan(n, 8, o), o)->fill_random_permutation(pi, seed);
  EXPECT_EQ(ctx.random_permutation(n, seed), pi) << name;
}

TEST(ContextFacade, DrawsEqualTheExecutorPath) {
  // A context draw under seed s is resolve_plan -> make_executor -> run
  // under execution_options() with s, byte for byte: the path the
  // service's fill jobs and perfbench's replays take.  3-byte records take
  // the byte-wise fallbacks, 8- and 24-byte ones the typed kernels.
  comm::threaded_transport tr(3);
  for (const core::backend which : {core::backend::sequential, core::backend::smp,
                                    core::backend::em, core::backend::cgm, core::backend::prp}) {
    context_options copt;
    copt.which = which;
    copt.engine.smp_engine.cache_items = 256;        // smp: split levels at n = 3,001
    copt.engine.em_engine.memory_items = 256;        // em: n >> M, the out-of-core path
    copt.engine.em_block_items = 16;
    copt.engine.transport = &tr;                     // cgm: three threaded ranks
    copt.engine.cgm_engine.engine.cache_items = 256;  // cgm: force distribution
    const cgp::context ctx(copt);
    expect_draws_equal_the_executor_path<3>(ctx, 3001, 0xD4A3);
    expect_draws_equal_the_executor_path<8>(ctx, 3001, 0xD4A3);
    expect_draws_equal_the_executor_path<24>(ctx, 3001, 0xD4A3);
  }
}

}  // namespace
