// core/executor.hpp
//
// The executor half of the plan/executor core: a type-erased, span-based
// execution interface that every backend (sequential, smp, em, cgm, prp)
// implements uniformly.  Two entry points:
//
//   * `shuffle_raw` / `shuffle<T>` -- uniformly permute n records of
//     elem_bytes each IN PLACE.  The smp hot path runs straight on the
//     caller's span with zero extra allocation or copying; record types
//     are reconstituted from (pointer, elem_bytes) as fixed-size byte
//     structs (`detail::record<N>`), which move as one or two machine
//     words, so every path runs the machine code of its typed kernel.
//   * `fill_random_permutation` -- write a uniform permutation of
//     {0..n-1} into the caller's span.  The sequential and smp executors
//     iota the span and shuffle it in place (no copy-in/copy-out round
//     trip); the em executor streams it off the device with one bulk
//     read_items call straight into caller memory.
//
// Value-independence is what makes the type erasure exact: every engine
// moves records by POSITION (RNG-keyed labels, swaps, offsets), never by
// value, so permuting records as byte structs of the same size -- or
// gathering through the index permutation the same engine would produce
// -- yields bit-for-bit the result of permuting the typed records
// directly.
//
// Executors are cheap per-call shells; the expensive state (thread
// pools) comes from the process-wide registry (core/registry.hpp) unless
// the caller hands in an engine explicitly.
//
// A draw is three steps, run by `cgp::context` (core/context.hpp), and by
// the service layer's fill jobs (svc/server.cpp), which keep a streamed
// permutation on its device or cipher instead of filling a vector:
//
//   resolve_plan  -->  feedback_scope  -->  make_executor(plan)->run
//
// (feedback_scope lives beside the feedback rows, in core/registry.hpp.)
//
// Every backend but `prp` is exactly uniform (prp's law is a keyed cipher
// family; see prp_executor).  They draw from differently keyed streams,
// so equal seeds do *not* give equal permutations across backends (each
// backend is individually bit-reproducible in its seed).  One designed
// exception: `em` with memory >= n degenerates to a single in-memory
// Fisher-Yates from the very stream `sequential` uses, so the two agree
// bit for bit in that regime (tests/test_em_async.cpp).  And by
// construction `automatic` agrees bit for bit with whichever backend the
// plan names (tests/test_plan.cpp).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cgm/distributed.hpp"
#include "comm/transport.hpp"
#include "core/apply.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "em/async_shuffle.hpp"
#include "em/block_device.hpp"
#include "obs/trace.hpp"
#include "prp/cipher.hpp"
#include "rng/philox_batch.hpp"
#include "rng/uniform.hpp"
#include "seq/fisher_yates.hpp"
#include "smp/engine.hpp"
#include "util/assert.hpp"

namespace cgp::core {

/// Per-call execution options: what resolve_plan and make_executor read.
/// A context projects its own state onto them (context::execution_options).
struct backend_options {
  backend which = backend::smp;
  /// Degree of parallelism: transport ranks (cgm) or worker threads
  /// (smp, em); 0 picks a default (1 rank / hardware concurrency).
  /// Ignored by `sequential` and by `automatic` (the planner chooses).
  std::uint32_t parallelism = 0;
  /// SMP engine knobs (threads is overridden by `parallelism`).
  smp::engine_options smp_engine{};
  /// Transport the distributed cgm backend runs on; nullptr = the
  /// registry's shared transport for the resolved rank count (the
  /// loopback transport at one rank).  When set, it decides the rank
  /// count and `parallelism` is ignored for the cgm backend.
  comm::transport* transport = nullptr;
  /// Distributed cgm engine knobs (fan_out / cache_items / sampling
  /// define the permutation law, shared verbatim with the smp engine).
  cgm::distributed_options cgm_engine{};
  /// Reuse an existing SMP engine (and its thread pool) instead of the
  /// registry's shared one; when set, `parallelism` and `smp_engine` are
  /// ignored for the smp backend, and the em backend runs its computation
  /// on the engine's pool.
  smp::engine* engine = nullptr;
  /// Out-of-core engine knob (em only): M, the memory in items.
  em::async_options em_engine{};
  /// Items per simulated device block, the B of the I/O model (em only).
  /// em_engine.memory_items must stay >= 4 * em_block_items.
  std::uint32_t em_block_items = 4096;
  /// Cipher knobs of the prp backend (round count; the permutation is a
  /// function of them).
  prp::cipher_options prp_engine{};

  // --- planner inputs (backend::automatic) ------------------------------
  /// RAM budget in bytes; 0 = unconstrained.  Below n * sizeof(T) the
  /// planner is forced out of core.
  std::uint64_t memory_budget_bytes = 0;
  /// Expected draws of this shape (amortizes dispatch overhead in the
  /// planner's smp estimate).
  std::uint64_t repetitions = 1;
  /// Fraction of the output the caller will actually read, in (0, 1];
  /// 1.0 = dense (the default).  Declaring < 1.0 lets the planner offer
  /// the O(1)-memory prp backend, which pays only for positions read
  /// (see workload::accessed_fraction for the law caveat).
  double accessed_fraction = 1.0;
  /// Machine profile for the planner; nullptr = machine_profile::detect().
  /// Point at a machine_profile::calibrate() result for measured costs.
  const machine_profile* profile = nullptr;
};

namespace detail {

/// An N-byte record as a plain byte struct.  Not std::array: its swap is
/// a byte-wise swap_ranges, where the struct's implicit copy moves as
/// whole words.  Not uint64_t or a word-aligned struct either: the struct
/// keeps alignment 1, so shuffle_raw accepts a caller's buffer at any
/// address.
template <std::size_t N>
struct record {
  unsigned char bytes[N];
};

/// Reconstitute a typed span from (pointer, elem_bytes) for the common
/// record sizes; `fallback()` handles the rest.  Viewing a trivially
/// copyable T through same-sized byte structs is the standard
/// type-erasure idiom: every byte of a record is an unsigned char (which
/// may alias anything), and the engines only ever swap/copy whole
/// records.  Strictly, pointer arithmetic on the punned struct type is
/// outside the letter of the aliasing rules; it is universally supported
/// (allocator/storage-reuse code depends on it) and the alternative --
/// memcpy through typed temporaries -- would forfeit the zero-copy span
/// contract.
template <typename F, typename G>
void with_record_span(void* data, std::uint64_t n, std::uint32_t elem_bytes, F&& f,
                      G&& fallback) {
  const auto span_of = [&](auto tag) {
    using R = decltype(tag);
    return std::span<R>(static_cast<R*>(data), static_cast<std::size_t>(n));
  };
  switch (elem_bytes) {
    case 1: f(span_of(record<1>{})); return;
    case 2: f(span_of(record<2>{})); return;
    case 4: f(span_of(record<4>{})); return;
    case 8: f(span_of(record<8>{})); return;
    case 12: f(span_of(record<12>{})); return;
    case 16: f(span_of(record<16>{})); return;
    case 24: f(span_of(record<24>{})); return;
    case 32: f(span_of(record<32>{})); return;
    default: fallback(); return;
  }
}

/// Fisher-Yates on raw records of arbitrary size: the identical draw
/// sequence as seq::fisher_yates (one uniform_below per step, consumed
/// whether or not the swap is trivial), so it extends the sequential
/// backend's bit-exact behaviour to record sizes outside the instantiated
/// set.
template <rng::random_engine64 Engine>
void fisher_yates_raw(Engine& engine, unsigned char* base, std::uint64_t n,
                      std::uint32_t elem_bytes) {
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng::uniform_below(engine, i);
    if (j != i - 1) {
      unsigned char* a = base + (i - 1) * elem_bytes;
      unsigned char* b = base + j * elem_bytes;
      std::swap_ranges(a, a + elem_bytes, b);
    }
  }
}

/// In-place in-RAM gather through an index permutation: data[i] becomes
/// data[pi[i]], staging one full payload copy.  Shared by the smp and cgm
/// fallbacks for record sizes outside the instantiated set -- exact
/// because those engines move records by position, never by value.
inline void gather_in_ram(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                          std::span<const std::uint64_t> pi) {
  auto* base = static_cast<unsigned char*>(data);
  const std::vector<unsigned char> tmp(base, base + n * elem_bytes);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::memcpy(base + i * elem_bytes, tmp.data() + pi[i] * elem_bytes, elem_bytes);
  }
}

}  // namespace detail

/// Type-erased execution interface all backends implement.
class executor {
 public:
  virtual ~executor() = default;

  [[nodiscard]] virtual backend kind() const noexcept = 0;

  /// Uniformly permute `n` records of `elem_bytes` bytes each, in place.
  virtual void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                           std::uint64_t seed) = 0;

  /// Write a uniform permutation of {0..out.size()-1} into `out` in place.
  virtual void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) = 0;

  /// Typed convenience over shuffle_raw (zero-copy: runs on the span).
  template <typename T>
  void shuffle(std::span<T> data, std::uint64_t seed) {
    static_assert(std::is_trivially_copyable_v<T>);
    shuffle_raw(data.data(), data.size(), static_cast<std::uint32_t>(sizeof(T)), seed);
  }
};

/// seq::fisher_yates on the stream philox(seed, 0), drawn in batches.
class sequential_executor final : public executor {
 public:
  [[nodiscard]] backend kind() const noexcept override { return backend::sequential; }

  void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                   std::uint64_t seed) override {
    const obs::span sp("fisher-yates", "exec");
    rng::batched_philox e(seed, 0);
    detail::with_record_span(
        data, n, elem_bytes, [&](auto span) { seq::fisher_yates(e, span); },
        [&] { detail::fisher_yates_raw(e, static_cast<unsigned char*>(data), n, elem_bytes); });
  }

  void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) override {
    const obs::span sp("fisher-yates", "exec");
    std::iota(out.begin(), out.end(), 0);
    rng::batched_philox e(seed, 0);
    seq::fisher_yates(e, out);
  }
};

/// The native shared-memory engine (borrowed from the registry or the
/// caller); bit-reproducible in (seed, engine options), thread-count
/// independent.
class smp_executor final : public executor {
 public:
  explicit smp_executor(smp::engine& eng) : eng_(eng) {}

  [[nodiscard]] backend kind() const noexcept override { return backend::smp; }

  void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                   std::uint64_t seed) override {
    detail::with_record_span(
        data, n, elem_bytes, [&](auto span) { eng_.shuffle(span, seed); },
        [&] {
          // Record sizes outside the instantiated set: gather through the
          // engine's index permutation -- identical output, one extra pass.
          detail::gather_in_ram(data, n, elem_bytes, eng_.random_permutation(n, seed));
        });
  }

  void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) override {
    std::iota(out.begin(), out.end(), 0);
    eng_.shuffle(out, seed);
  }

 private:
  smp::engine& eng_;
};

/// The distributed CGM engine over a pluggable transport
/// (cgm/distributed.hpp): the real coarse-grained backend.  Output is a
/// pure function of (seed, n, engine options) -- independent of the rank
/// count and the transport -- and inputs at or below the cache cutoff
/// reproduce `backend::sequential` bit for bit (they are one leaf on
/// philox(seed, 0)).
class cgm_executor final : public executor {
 public:
  cgm_executor(comm::transport& transport, cgm::distributed_options opt)
      : transport_(transport), opt_(opt) {}

  [[nodiscard]] backend kind() const noexcept override { return backend::cgm; }

  void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                   std::uint64_t seed) override {
    if (n < 2) return;
    detail::with_record_span(
        data, n, elem_bytes,
        [&](auto span) { cgm::transport_shuffle(transport_, span, seed, opt_); },
        [&] {
          // Record sizes outside the instantiated set: gather through the
          // index permutation the same engine produces over the same
          // transport -- identical output by value-independence.
          std::vector<std::uint64_t> pi(n);
          std::iota(pi.begin(), pi.end(), 0);
          cgm::transport_shuffle(transport_, std::span<std::uint64_t>(pi), seed, opt_);
          detail::gather_in_ram(data, n, elem_bytes, pi);
        });
  }

  void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) override {
    std::iota(out.begin(), out.end(), 0);
    cgm::transport_shuffle(transport_, out, seed, opt_);
  }

 private:
  comm::transport& transport_;
  cgm::distributed_options opt_;
};

/// The O(1)-memory cipher backend (src/prp/): pi is EVALUATED, never
/// stored.  `fill_random_permutation` writes eval_range(0, out) of a
/// prp::cipher keyed by (seed, n) -- the same (seed, n) contract as every
/// other backend, bit-reproducible across SIMD paths and hosts -- and
/// `shuffle_raw` gathers through the same cipher in O(chunk) index
/// memory (one staged payload copy, like the in-RAM gather fallbacks, but
/// never a materialized index vector).  The full power of the backend is
/// the library surface on top: cipher::pi / pi_inverse point lookups and
/// prp::shard_view lazy slices, where nothing of size n ever exists.
///
/// Law caveat: the output law is a keyed PRP family -- chi-square-uniform
/// (tests/test_prp.cpp) but not the exact-uniform law of the
/// materializing engines -- which is why the planner only offers this
/// backend to workloads declaring sparse access.
class prp_executor final : public executor {
 public:
  explicit prp_executor(prp::cipher_options opt) : opt_(opt) {}

  [[nodiscard]] backend kind() const noexcept override { return backend::prp; }

  void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                   std::uint64_t seed) override {
    if (n < 2) return;
    const obs::span sp("cipher-gather", "exec");
    const prp::cipher c(seed, n, opt_);
    // data[i] <- tmp[pi(i)], pi evaluated in O(chunk) batches: shuffling
    // an iota span therefore reproduces fill_random_permutation exactly.
    auto* base = static_cast<unsigned char*>(data);
    const std::vector<unsigned char> tmp(base, base + n * elem_bytes);
    std::array<std::uint64_t, 4096> idx;
    for (std::uint64_t at = 0; at < n; at += idx.size()) {
      const std::uint64_t take = std::min<std::uint64_t>(idx.size(), n - at);
      c.eval_range(at, std::span<std::uint64_t>(idx.data(), take));
      for (std::uint64_t j = 0; j < take; ++j) {
        std::memcpy(base + (at + j) * elem_bytes, tmp.data() + idx[j] * elem_bytes,
                    elem_bytes);
      }
    }
  }

  void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) override {
    if (out.empty()) return;
    const obs::span sp("cipher-eval", "exec");
    const prp::cipher c(seed, out.size(), opt_);
    c.eval_range(0, out);
  }

 private:
  prp::cipher_options opt_;
};

/// The resolved em execution configuration: plan geometry with
/// per-option fallbacks, plus the compute pool.  The single source of
/// truth shared by make_executor's em branch and the service layer's
/// device-backed streams (svc/server.cpp) -- resolving through one
/// function is what keeps a streamed job's device content bit-identical
/// to what fill_random_permutation would read back.
struct em_exec_config {
  em::async_options aopt{};
  std::uint32_t block_items = 0;
  smp::thread_pool* pool = nullptr;
};

[[nodiscard]] inline em_exec_config resolve_em_config(const permutation_plan& plan,
                                                      const backend_options& opt) {
  em_exec_config cfg;
  cfg.aopt.memory_items =
      plan.em_memory_items != 0 ? plan.em_memory_items : opt.em_engine.memory_items;
  cfg.block_items = plan.em_block_items != 0 ? plan.em_block_items : opt.em_block_items;
  cfg.pool = opt.engine != nullptr ? &opt.engine->pool() : &shared_pool(plan.threads);
  return cfg;
}

/// A fresh device holding a uniform permutation of {0..n-1}: what the
/// identity streamed on and shuffled in place by the em engine
/// would leave, built by em::async_em_permutation without writing the
/// identity or reading it back -- the em executor's native fill mode up
/// to (but not including) its final bulk readback.  Its values are below
/// n, so for n <= 2^32 it stores 4 bytes per item.  `rep_out`, if given,
/// receives the engine report (the readback, if any, is the caller's to
/// count).
[[nodiscard]] inline std::unique_ptr<em::block_device> em_shuffled_identity_device(
    std::uint64_t n, std::uint64_t seed, const em_exec_config& cfg,
    em::async_report* rep_out = nullptr) {
  auto dev = std::make_unique<em::block_device>(n, cfg.block_items,
                                                em::item_bytes_for(n == 0 ? 0 : n - 1));
  em::async_report rep;
  {
    const obs::span sp("shuffle", "exec");
    rep = em::async_em_permutation(*dev, n, seed, *cfg.pool, cfg.aopt);
  }
  if (rep_out != nullptr) *rep_out = rep;
  return dev;
}

/// The out-of-core engine behind a streaming apply layer (core/apply.hpp):
/// payloads of <= 8 bytes stream onto the device one record per word and
/// are shuffled there directly; larger records gather through an on-device
/// index permutation streamed in O(M) chunks.  Either way no full-n index
/// vector ever exists in RAM, and every transfer goes through the
/// accounted bulk item-range calls.
class em_executor final : public executor {
 public:
  /// `report_out`, if given, receives each run's transfer accounting,
  /// including the payload / identity streaming onto and off the device.
  em_executor(em::async_options aopt, std::uint32_t block_items, smp::thread_pool& pool,
              em::async_report* report_out = nullptr)
      : aopt_(aopt), block_items_(block_items), pool_(pool), report_out_(report_out) {}

  [[nodiscard]] backend kind() const noexcept override { return backend::em; }

  void shuffle_raw(void* data, std::uint64_t n, std::uint32_t elem_bytes,
                   std::uint64_t seed) override {
    if (n < 2) return;
    auto* base = static_cast<unsigned char*>(data);
    em::async_report rep;
    if (words_per_record(elem_bytes) == 1) {
      // Records of <= 8 bytes: the payload itself streams onto the device
      // one record per word, is shuffled there and streams back.  A record
      // of <= 4 bytes fills only a little-endian word's low half, so the
      // device stores it in 4.
      const bool narrow = elem_bytes <= 4 && std::endian::native == std::endian::little;
      em::block_device dev(n, block_items_, narrow ? 4 : 8);
      {
        const obs::span sp("fill", "exec");
        write_records_streamed(dev, base, n, elem_bytes, aopt_.memory_items);
      }
      const std::uint64_t filled = dev.stats().transfers();
      {
        const obs::span sp("shuffle", "exec");
        rep = em::async_em_shuffle(dev, n, seed, pool_, aopt_);
      }
      const std::uint64_t t = dev.stats().transfers();
      {
        const obs::span sp("readback", "exec");
        read_records_streamed(dev, base, n, elem_bytes, aopt_.memory_items);
      }
      rep.block_transfers += filled + (dev.stats().transfers() - t);
    } else {
      // Records wider than a device word: the payload streams onto its
      // own device (whole words per record), the index permutation is
      // built out of core, and the gather reads each source record back
      // off the payload device -- O(M) resident staging end to end, no
      // full-n pi vector and no RAM payload copy, at the price of
      // Theta(n) random-read transfers for the gather (see
      // core/apply.hpp).
      em::block_device payload_dev(n * words_per_record(elem_bytes), block_items_);
      {
        const obs::span sp("fill", "exec");
        write_records_streamed(payload_dev, base, n, elem_bytes, aopt_.memory_items);
      }
      const auto pi_dev =
          em_shuffled_identity_device(n, seed, {aopt_, block_items_, &pool_}, &rep);
      const std::uint64_t t = pi_dev->stats().transfers();
      {
        const obs::span sp("readback", "exec");
        gather_records_streamed(*pi_dev, payload_dev, base, n, elem_bytes, aopt_.memory_items);
      }
      rep.block_transfers +=
          (pi_dev->stats().transfers() - t) + payload_dev.stats().transfers();
    }
    if (report_out_ != nullptr) *report_out_ = rep;
  }

  void fill_random_permutation(std::span<std::uint64_t> out, std::uint64_t seed) override {
    const std::uint64_t n = out.size();
    em::async_report rep;
    const auto dev = em_shuffled_identity_device(n, seed, {aopt_, block_items_, &pool_}, &rep);
    const std::uint64_t t = dev->stats().transfers();
    {
      const obs::span sp("readback", "exec");
      dev->read_items(0, out);  // one bulk call, straight into caller memory
    }
    rep.block_transfers += dev->stats().transfers() - t;
    if (report_out_ != nullptr) *report_out_ = rep;
  }

 private:
  em::async_options aopt_;
  std::uint32_t block_items_;
  smp::thread_pool& pool_;
  em::async_report* report_out_;
};

/// Resolve the plan for a request: explicit backends get a trivial plan
/// mirroring their options (so the em geometry and the real worker count
/// are always visible); `automatic` asks the process-wide plan cache
/// (core::cached_plan), which answers bit-identically to the cost-model
/// planner and skips it for repeated shapes.  Every request -- a
/// cgp::context draw, a service job -- plans here.
[[nodiscard]] inline permutation_plan resolve_plan(std::uint64_t n, std::uint32_t elem_bytes,
                                                   const backend_options& opt) {
  if (opt.which == backend::automatic) {
    workload w;
    w.n = n;
    w.element_bytes = elem_bytes;
    w.memory_budget_bytes = opt.memory_budget_bytes;
    w.repetitions = opt.repetitions;
    w.accessed_fraction = opt.accessed_fraction;
    return cached_plan(w, opt.profile != nullptr ? *opt.profile : machine_profile::detect());
  }
  // Normalize 0 (= "default") to the count the executor will actually
  // run with, so the plan reports real worker counts for explicit
  // backends too.
  const auto hw_threads = [](std::uint32_t t) {
    if (t != 0) return t;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  };
  permutation_plan plan;
  plan.chosen = opt.which;
  switch (opt.which) {
    case backend::cgm:
      // The transport decides the rank count; without one, parallelism
      // (default 1: the loopback transport, where cgm == sequential).
      plan.threads = opt.transport != nullptr ? opt.transport->size()
                     : opt.parallelism != 0   ? opt.parallelism
                                              : 1;
      break;
    case backend::smp:
      plan.threads = opt.engine != nullptr
                         ? opt.engine->threads()
                         : hw_threads(opt.parallelism != 0 ? opt.parallelism
                                                           : opt.smp_engine.threads);
      break;
    case backend::em:
      plan.threads = opt.engine != nullptr ? opt.engine->threads() : hw_threads(opt.parallelism);
      plan.em_memory_items = opt.em_engine.memory_items;
      plan.em_block_items = opt.em_block_items;
      break;
    case backend::prp:
      plan.threads = 1;
      plan.accessed_fraction = opt.accessed_fraction;
      break;
    default:
      plan.threads = 1;
      break;
  }
  return plan;
}

/// Build the executor that realizes `plan` under the per-call options.
[[nodiscard]] inline std::unique_ptr<executor> make_executor(const permutation_plan& plan,
                                                             const backend_options& opt) {
  switch (plan.chosen) {
    case backend::sequential:
      return std::make_unique<sequential_executor>();
    case backend::smp: {
      if (opt.engine != nullptr) return std::make_unique<smp_executor>(*opt.engine);
      smp::engine_options eopt = opt.smp_engine;
      if (opt.which == backend::automatic) {
        eopt.threads = plan.threads;
      } else if (opt.parallelism != 0) {
        eopt.threads = opt.parallelism;
      }
      return std::make_unique<smp_executor>(shared_engine(eopt));
    }
    case backend::cgm: {
      comm::transport& tr =
          opt.transport != nullptr ? *opt.transport : shared_transport(plan.threads);
      return std::make_unique<cgm_executor>(tr, opt.cgm_engine);
    }
    case backend::em: {
      const em_exec_config cfg = resolve_em_config(plan, opt);
      return std::make_unique<em_executor>(cfg.aopt, cfg.block_items, *cfg.pool);
    }
    case backend::prp:
      return std::make_unique<prp_executor>(opt.prp_engine);
    case backend::automatic:
    default:
      CGP_ASSERT(false && "resolve_plan never leaves backend::automatic in a plan");
      return std::make_unique<sequential_executor>();
  }
}

}  // namespace cgp::core
