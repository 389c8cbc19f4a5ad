// prp/cipher.cpp — key schedule + batched evaluation of the swap-or-not PRP.
//
// Batched evaluation (eval_many, eval_range) is one lane-block loop: load
// up to kLanes indices, run every round over the block through a round
// kernel, and queue the lanes that landed outside [0, n) for another
// pass.  Stragglers are compacted into whole blocks and sent back through
// the same kernel, so a cycle walk never runs as a serial chain of
// rounds.  The kernel follows rng::active_simd_path(), like the keystream:
//
//   * scalar -- rounds outer, lanes inner: kLanes independent chains per
//     round.  Every other kernel must match it bit for bit; so must the
//     one-element `encrypt` behind pi() and pi_inverse(), which stays the
//     reference.
//   * avx512 -- 8 lanes per vector, 8 vectors in flight (vpmullq).
//   * avx2 -- 4 lanes per vector, 64x64 products built from 32-bit
//     partials (vpmuludq).
//
// The vector kernels compute only the decision bit, not all of mix64.
// With a = y ^ (y >> 27) and z = a * C2, the bit is z_0 ^ z_31, and the
// low 32 bits of z depend only on the low 32 bits of a and C2, so the
// second multiply is a 32x32 product.  NEON and any other host run the
// scalar kernel.
#include "prp/cipher.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "rng/philox_batch.hpp"
#include "rng/stream.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CGP_HAVE_X86_ROUNDS 1
#endif

namespace cgp::prp {
namespace {

obs::counter& evals_counter() {
  static obs::counter& c = obs::get_counter("prp.evals");
  return c;
}

obs::counter& retries_counter() {
  static obs::counter& c = obs::get_counter("prp.cycle_walk_retries");
  return c;
}

/// Elements a batch pass keeps in flight.  64 lanes of 8 bytes is one
/// 512-byte working set (L1-resident) and enough independent chains to
/// hide the mix64 latency of each round, scalar or in vectors.
constexpr std::size_t kLanes = 64;

/// The round material a kernel reads.
struct schedule {
  const std::uint64_t* key;
  const std::uint64_t* tweak;
  std::uint32_t rounds;
  std::uint64_t mask;
};

/// x[j] = encrypt(x[j]) for j < count: one forward pass of every round.
using round_kernel = void (*)(const schedule&, std::uint64_t*, std::size_t) noexcept;

void rounds_scalar(const schedule& s, std::uint64_t* x, std::size_t count) noexcept {
  for (std::uint32_t r = 0; r < s.rounds; ++r) {
    const std::uint64_t k = s.key[r];
    const std::uint64_t t = s.tweak[r];
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t v = x[j];
      const std::uint64_t partner = (k - v) & s.mask;
      const std::uint64_t hi = v > partner ? v : partner;
      x[j] = (rng::mix64(hi ^ t) & 1) != 0 ? partner : v;
    }
  }
}

#if defined(CGP_HAVE_X86_ROUNDS)

/// mix64's two multipliers (rng/splitmix64.hpp).
constexpr std::uint64_t kMul1 = 0xBF58476D1CE4E5B9ull;
constexpr std::uint64_t kMul2 = 0x94D049BB133111EBull;

// GCC 12's -Wmaybe-uninitialized fires inside avx512fintrin.h (the
// unmasked wrappers pass _mm512_undefined_epi32() as the masked-out
// source; see rng/philox_batch.cpp).  False positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define CGP_AVX512 __attribute__((target("avx512f,avx512dq")))

CGP_AVX512 inline __m512i round8(__m512i x, __m512i k, __m512i t, __m512i m) noexcept {
  const __m512i partner = _mm512_and_si512(_mm512_sub_epi64(k, x), m);
  __m512i z = _mm512_xor_si512(_mm512_max_epu64(x, partner), t);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         _mm512_set1_epi64(static_cast<long long>(kMul1)));
  z = _mm512_mul_epu32(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                       _mm512_set1_epi64(static_cast<long long>(kMul2)));
  const __mmask8 swap = _mm512_test_epi64_mask(_mm512_xor_si512(z, _mm512_srli_epi64(z, 31)),
                                               _mm512_set1_epi64(1));
  return _mm512_mask_blend_epi64(swap, x, partner);
}

/// All rounds over x[0, count), 64 lanes (8 vectors) in flight at a time.
/// A short last group loads zeros into its dead lanes and stores through a
/// mask, so it touches nothing at or past count.
CGP_AVX512 void rounds_avx512(const schedule& s, std::uint64_t* x, std::size_t count) noexcept {
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(s.mask));
  for (std::size_t at = 0; at < count; at += 64) {
    __mmask8 live[8];
    __m512i v[8];
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t lo = std::min(count, at + 8 * i);
      live[i] = static_cast<__mmask8>((1u << std::min<std::size_t>(8, count - lo)) - 1);
      v[i] = _mm512_maskz_loadu_epi64(live[i], x + lo);
    }
    for (std::uint32_t r = 0; r < s.rounds; ++r) {
      const __m512i k = _mm512_set1_epi64(static_cast<long long>(s.key[r]));
      const __m512i t = _mm512_set1_epi64(static_cast<long long>(s.tweak[r]));
      for (auto& vi : v) vi = round8(vi, k, t, m);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      _mm512_mask_storeu_epi64(x + std::min(count, at + 8 * i), live[i], v[i]);
    }
  }
}

#undef CGP_AVX512
#pragma GCC diagnostic pop

#define CGP_AVX2 __attribute__((target("avx2")))

/// Domains are at most 2^63 (bit_ceil(n) must fit), so every value is
/// below 2^63 and the signed 64-bit compare orders them correctly.
CGP_AVX2 inline __m256i round4(__m256i x, __m256i k, __m256i t, __m256i m) noexcept {
  const __m256i mul1_lo = _mm256_set1_epi64x(static_cast<long long>(kMul1 & 0xFFFFFFFFu));
  const __m256i mul1_hi = _mm256_set1_epi64x(static_cast<long long>(kMul1 >> 32));
  const __m256i mul2_lo = _mm256_set1_epi64x(static_cast<long long>(kMul2 & 0xFFFFFFFFu));
  const __m256i partner = _mm256_and_si256(_mm256_sub_epi64(k, x), m);
  const __m256i hi = _mm256_blendv_epi8(partner, x, _mm256_cmpgt_epi64(x, partner));
  __m256i z = _mm256_xor_si256(hi, t);
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(z, mul1_hi),
                                         _mm256_mul_epu32(_mm256_srli_epi64(z, 32), mul1_lo));
  z = _mm256_add_epi64(_mm256_mul_epu32(z, mul1_lo), _mm256_slli_epi64(cross, 32));
  z = _mm256_mul_epu32(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), mul2_lo);
  // The decision bit moved to the sign bit, which blendv_pd reads.
  const __m256i swap = _mm256_slli_epi64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 31)), 63);
  return _mm256_castpd_si256(_mm256_blendv_pd(_mm256_castsi256_pd(x),
                                              _mm256_castsi256_pd(partner),
                                              _mm256_castsi256_pd(swap)));
}

/// The lanes of a vector starting at x[lo] that lie below count.
CGP_AVX2 inline __m256i live4(std::size_t lo, std::size_t count) noexcept {
  const auto n = static_cast<long long>(std::min<std::size_t>(4, count - lo));
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
}

/// All rounds over x[0, count), 32 lanes (8 vectors) in flight at a time;
/// a short last group is masked as in rounds_avx512.
CGP_AVX2 void rounds_avx2(const schedule& s, std::uint64_t* x, std::size_t count) noexcept {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(s.mask));
  for (std::size_t at = 0; at < count; at += 32) {
    __m256i v[8];
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t lo = std::min(count, at + 4 * i);
      v[i] = _mm256_maskload_epi64(reinterpret_cast<const long long*>(x + lo), live4(lo, count));
    }
    for (std::uint32_t r = 0; r < s.rounds; ++r) {
      const __m256i k = _mm256_set1_epi64x(static_cast<long long>(s.key[r]));
      const __m256i t = _mm256_set1_epi64x(static_cast<long long>(s.tweak[r]));
      for (auto& vi : v) vi = round4(vi, k, t, m);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t lo = std::min(count, at + 4 * i);
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(x + lo), live4(lo, count), v[i]);
    }
  }
}

#undef CGP_AVX2

#endif  // CGP_HAVE_X86_ROUNDS

round_kernel active_kernel() noexcept {
#if defined(CGP_HAVE_X86_ROUNDS)
  switch (rng::active_simd_path()) {
    case rng::simd_path::avx512: return rounds_avx512;
    case rng::simd_path::avx2: return rounds_avx2;
    default: break;
  }
#endif
  return rounds_scalar;
}

/// The one batched-evaluation loop: out[j] = pi(load(j)), a lane block at
/// a time.  `load(j0, lanes, take)` writes the block's inputs.  A lane
/// that lands at or above n is parked, with its output slot, in the walk
/// queue; whole blocks of parked lanes go back through the kernel until
/// each lands in [0, n).  Each pass over a parked lane is one extra
/// encryption, exactly as in pi()'s loop, so the retry count is too.
template <typename Load>
std::uint64_t eval_blocks(const schedule& s, std::uint64_t n, std::span<std::uint64_t> out,
                          Load&& load) {
  const round_kernel kernel = active_kernel();
  std::array<std::uint64_t, 2 * kLanes> walk;
  std::array<std::uint64_t*, 2 * kLanes> slot;
  std::size_t parked = 0;
  std::uint64_t retries = 0;
  // One kernel pass over the first (at most kLanes) parked lanes.
  const auto walk_pass = [&] {
    const std::size_t take = std::min(parked, kLanes);
    kernel(s, walk.data(), take);
    retries += take;
    std::size_t keep = 0;
    for (std::size_t j = 0; j < parked; ++j) {
      if (j < take && walk[j] < n) {
        *slot[j] = walk[j];
      } else {
        walk[keep] = walk[j];
        slot[keep++] = slot[j];
      }
    }
    parked = keep;
  };
  for (std::size_t done = 0; done < out.size(); done += kLanes) {
    const std::size_t take = std::min(kLanes, out.size() - done);
    std::uint64_t* lanes = out.data() + done;
    load(done, lanes, take);
    kernel(s, lanes, take);
    for (std::size_t j = 0; j < take; ++j) {
      if (lanes[j] >= n) {
        walk[parked] = lanes[j];
        slot[parked++] = lanes + j;
      }
    }
    while (parked >= kLanes) walk_pass();
  }
  while (parked > 0) walk_pass();
  return retries;
}

void count_evals(std::uint64_t evals, std::uint64_t retries, eval_stats* stats) {
  if (stats != nullptr) {
    stats->evals += evals;
    stats->walk_retries += retries;
  }
  evals_counter().add(evals);
  if (retries != 0) retries_counter().add(retries);
}

}  // namespace

cipher::cipher(std::uint64_t seed, std::uint64_t n, cipher_options opt)
    : n_(n),
      mask_(n > 1 ? std::bit_ceil(n) - 1 : 0),
      rounds_(opt.rounds != 0 ? opt.rounds : kDefaultRounds) {
  // The whole key schedule -- 2 words per round -- comes out of ONE
  // batched keystream call: the same philox4x64_batch engine the label
  // loops ride, keyed by (seed, nested_stream('prp', n, 0)) so ciphers of
  // different domains under one seed are independent streams.
  const auto key = rng::philox4x64::derive_key(
      seed, rng::nested_stream(kKeySalt, n_, 0));
  const std::uint64_t words = 2ull * rounds_;
  const std::uint64_t nblocks = (words + 3) / 4;
  std::vector<std::uint64_t> ks(4 * nblocks);
  rng::philox4x64_batch({0, 0, 0, 0}, key, nblocks, ks.data());

  round_key_.resize(rounds_);
  round_tweak_.resize(rounds_);
  for (std::uint32_t r = 0; r < rounds_; ++r) {
    round_key_[r] = ks[2ull * r] & mask_;
    round_tweak_[r] = ks[2ull * r + 1];
  }

  static obs::gauge& rounds_gauge = obs::get_gauge("prp.rounds");
  rounds_gauge.set(static_cast<std::int64_t>(rounds_));
}

void cipher::eval_many(std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
                       eval_stats* stats) const {
  CGP_EXPECTS(out.size() >= in.size());
  const schedule s{round_key_.data(), round_tweak_.data(), rounds_, mask_};
  const std::uint64_t retries =
      eval_blocks(s, n_, out.first(in.size()),
                  [&](std::size_t j0, std::uint64_t* lanes, std::size_t take) {
                    std::copy_n(in.data() + j0, take, lanes);
                  });
  count_evals(in.size(), retries, stats);
}

void cipher::eval_range(std::uint64_t first, std::span<std::uint64_t> out,
                        eval_stats* stats) const {
  CGP_EXPECTS(first + out.size() >= first);  // no wraparound
  CGP_EXPECTS(out.empty() || first + out.size() <= n_);
  const schedule s{round_key_.data(), round_tweak_.data(), rounds_, mask_};
  const std::uint64_t retries =
      eval_blocks(s, n_, out, [&](std::size_t j0, std::uint64_t* lanes, std::size_t take) {
        for (std::size_t j = 0; j < take; ++j) lanes[j] = first + j0 + j;
      });
  count_evals(out.size(), retries, stats);
}

}  // namespace cgp::prp
