// core/apply.hpp
//
// The streaming apply layer: move arbitrary trivially-copyable records
// between RAM spans and a block device in O(chunk)-resident slices, using
// ONLY the device's bulk item-range transfers (read_items/write_items --
// every word moved here is visible to the device's I/O accounting, unlike
// the poke/peek test hooks the old dispatch path abused).
//
// This is what lets the out-of-core backend hold at most O(M) staging in
// RAM:
//
//   * records of <= 8 bytes take one device word each (zero-padded), so
//     the payload itself streams onto the device, is shuffled there by the
//     out-of-core engine, and streams back -- no index permutation exists
//     at all;
//   * larger records go through an on-device index permutation that is
//     *streamed* through `for_each_pi_chunk` in O(chunk) slices -- the
//     full-n pi vector never materializes in RAM.
//
// Shuffle-vs-gather equivalence (why the one-word path is exact): the
// engine's data movement is value-independent -- labels are keyed by
// (seed, level, bucket, index) and leaves swap positions by RNG draws --
// so shuffling the payload in place lands record k exactly where
// shuffling the identity would send index k.  shuffle(data) ==
// gather(data, shuffle(iota)), bit for bit, for the same seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "em/block_device.hpp"
#include "util/assert.hpp"

namespace cgp::core {

/// Write the identity 0..n-1 onto the device in `chunk_items`-resident
/// slices of bulk write_items calls (one blind write per covered block;
/// at most two boundary RMWs per slice).  Followed by em::async_em_shuffle
/// it is the two-step reference em::async_em_permutation must match.
inline void fill_iota_streamed(em::block_device& dev, std::uint64_t n,
                               std::uint64_t chunk_items) {
  CGP_EXPECTS(n <= dev.item_capacity());
  chunk_items = std::max<std::uint64_t>(chunk_items, dev.block_items());
  std::vector<std::uint64_t> stage;
  for (std::uint64_t lo = 0; lo < n; lo += chunk_items) {
    const std::uint64_t hi = std::min(n, lo + chunk_items);
    stage.resize(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t i = lo; i < hi; ++i) stage[static_cast<std::size_t>(i - lo)] = i;
    dev.write_items(lo, stage);
  }
}

/// Stream the index permutation held by `pi_dev` (pi[i] at device item i)
/// through `body(i, pi_i)` in O(chunk_items)-resident slices -- the pi
/// vector never exists whole in RAM.
template <typename Body>
void for_each_pi_chunk(em::block_device& pi_dev, std::uint64_t n, std::uint64_t chunk_items,
                       Body&& body) {
  CGP_EXPECTS(n <= pi_dev.item_capacity());
  chunk_items = std::max<std::uint64_t>(chunk_items, pi_dev.block_items());
  std::vector<std::uint64_t> stage;
  for (std::uint64_t lo = 0; lo < n; lo += chunk_items) {
    const std::uint64_t hi = std::min(n, lo + chunk_items);
    stage.resize(static_cast<std::size_t>(hi - lo));
    pi_dev.read_items(lo, stage);
    for (std::uint64_t i = lo; i < hi; ++i) {
      body(i, stage[static_cast<std::size_t>(i - lo)]);
    }
  }
}

/// Device words per record of `elem_bytes` (records wider than a word
/// occupy consecutive whole words, zero-padded).
[[nodiscard]] constexpr std::uint64_t words_per_record(std::uint32_t elem_bytes) noexcept {
  return (std::uint64_t{elem_bytes} + 7) / 8;
}

/// Stream `n` raw records of `elem_bytes` each onto the device at
/// words_per_record words apiece, in O(chunk_items)-resident slices of
/// bulk write_items calls.
/// AUDIT NOTE (record sizes that do not divide the block): when wpr does
/// not divide dev.block_items() (e.g. 24-byte records, wpr = 3, on
/// B = 4096), records straddle block boundaries and every streamed slice
/// below starts and ends mid-block.  That is correct by construction:
/// write_items merge-writes the at-most-two partial boundary blocks of a
/// slice atomically (read + patch + write under the device lock), and
/// read_items assembles straddling ranges from whole-block reads.  The
/// regression tests in tests/test_em_async.cpp (BackendEmApply.*) pin
/// this for B = 4096.
inline void write_records_streamed(em::block_device& dev, const unsigned char* src,
                                   std::uint64_t n, std::uint32_t elem_bytes,
                                   std::uint64_t chunk_items) {
  CGP_EXPECTS(elem_bytes >= 1);
  const std::uint64_t wpr = words_per_record(elem_bytes);
  CGP_EXPECTS(n * wpr <= dev.item_capacity());
  const std::uint64_t chunk_records =
      std::max<std::uint64_t>(1, std::max(chunk_items, std::uint64_t{dev.block_items()}) / wpr);
  std::vector<std::uint64_t> stage;
  for (std::uint64_t lo = 0; lo < n; lo += chunk_records) {
    const std::uint64_t hi = std::min(n, lo + chunk_records);
    stage.assign(static_cast<std::size_t>((hi - lo) * wpr), 0);
    for (std::uint64_t i = lo; i < hi; ++i) {
      std::memcpy(stage.data() + (i - lo) * wpr, src + i * elem_bytes, elem_bytes);
    }
    dev.write_items(lo * wpr, stage);
  }
}

/// The mirror of write_records_streamed: stream `n` records of
/// `elem_bytes` each back off the device into `dst`, in the same slices.
inline void read_records_streamed(em::block_device& dev, unsigned char* dst, std::uint64_t n,
                                  std::uint32_t elem_bytes, std::uint64_t chunk_items) {
  CGP_EXPECTS(elem_bytes >= 1);
  const std::uint64_t wpr = words_per_record(elem_bytes);
  CGP_EXPECTS(n * wpr <= dev.item_capacity());
  const std::uint64_t chunk_records =
      std::max<std::uint64_t>(1, std::max(chunk_items, std::uint64_t{dev.block_items()}) / wpr);
  std::vector<std::uint64_t> stage;
  for (std::uint64_t lo = 0; lo < n; lo += chunk_records) {
    const std::uint64_t hi = std::min(n, lo + chunk_records);
    stage.resize(static_cast<std::size_t>((hi - lo) * wpr));
    dev.read_items(lo * wpr, stage);
    for (std::uint64_t i = lo; i < hi; ++i) {
      std::memcpy(dst + i * elem_bytes, stage.data() + (i - lo) * wpr, elem_bytes);
    }
  }
}

/// dst[i] = payload[pi[i]] over raw records, with pi streamed off its
/// device in bulk chunks and each source record read from the payload
/// device on demand.  O(chunk_items + words_per_record) resident -- the
/// memory-bounded wide-record apply.  The per-record reads are random
/// access, so this pays Theta(n) transfers; a transfer-optimal record
/// apply would bucket-distribute the records themselves (future work,
/// see DESIGN.md section 5).
inline void gather_records_streamed(em::block_device& pi_dev, em::block_device& payload_dev,
                                    unsigned char* dst, std::uint64_t n,
                                    std::uint32_t elem_bytes, std::uint64_t chunk_items) {
  CGP_EXPECTS(elem_bytes >= 1);
  const std::uint64_t wpr = words_per_record(elem_bytes);
  CGP_EXPECTS(n * wpr <= payload_dev.item_capacity());
  std::vector<std::uint64_t> rec(static_cast<std::size_t>(wpr));
  for_each_pi_chunk(pi_dev, n, chunk_items, [&](std::uint64_t i, std::uint64_t pi_i) {
    CGP_ASSERT(pi_i < n);
    payload_dev.read_items(pi_i * wpr, rec);
    std::memcpy(dst + i * elem_bytes, rec.data(), elem_bytes);
  });
}

}  // namespace cgp::core
