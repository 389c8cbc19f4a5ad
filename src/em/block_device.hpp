// em/block_device.hpp
//
// The external-memory substrate for the paper's Section 6 outlook: "In
// view of the idea to use efficient coarse grained algorithms also for the
// context of external memory, see Cormen and Goodrich [1996], Dehne et al.
// [1997] ..." -- coarse-grained supersteps map onto scan passes of a disk,
// with the I/O count playing the role of communication volume.
//
// `block_device` simulates a disk of fixed-size blocks with exact I/O
// accounting; `buffer_pool` puts an LRU cache of `frames` blocks in front
// of it (the "M" of the I/O model, in blocks).  Algorithms built on top
// are measured in *block transfers*, the currency of the Aggarwal-Vitter
// I/O model.
//
// Item width: a device stores each item in 4 or 8 bytes, fixed by its
// creator from the largest value it will hold (`item_bytes_for`); every
// call still moves `u64` values, widened or narrowed in the copy loops
// the calls already run.  Block geometry and transfer counts do not
// depend on the width.  Writing a value that does not fit aborts.
//
// Thread safety: `read_block` / `write_block` / `read_items` /
// `write_items` serialize on an internal mutex -- one transfer at a time
// per device, like one disk arm -- and the partial-block read-modify-write
// of `write_items` holds the lock for the whole RMW cycle, so concurrent
// writers patching disjoint item slices of the same boundary block can
// never lose each other's update.  The out-of-core engine's parallel
// scatter and leaves call the device from every pool worker and depend on
// exactly that; the mutex is the only lock they share.  `buffer_pool`
// itself is single-caller.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace cgp::em {

/// I/O statistics of a device or pool.
struct io_stats {
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t cache_hits = 0;

  [[nodiscard]] std::uint64_t transfers() const noexcept { return block_reads + block_writes; }
};

/// The item width, in bytes, of a device whose largest value is `largest`:
/// 4 when it fits in 32 bits, else 8.
[[nodiscard]] constexpr std::uint32_t item_bytes_for(std::uint64_t largest) noexcept {
  return largest >> 32 == 0 ? 4 : 8;
}

/// A simulated disk of `u64` items grouped into blocks of `block_items`,
/// stored zero-filled in RAM at `item_bytes` (4 or 8) per item.  All access
/// is whole-block; partial blocks at the end are materialized at full size
/// (standard device behaviour).  The bytes every live device holds are
/// summed in the obs gauge `em.device_bytes`.
class block_device {
 public:
  block_device(std::uint64_t item_capacity, std::uint32_t block_items,
               std::uint32_t item_bytes = 8);
  ~block_device();

  [[nodiscard]] std::uint32_t block_items() const noexcept { return block_items_; }
  [[nodiscard]] std::uint64_t item_capacity() const noexcept { return item_capacity_; }
  [[nodiscard]] std::uint64_t block_count() const noexcept { return blocks_; }
  [[nodiscard]] std::uint32_t item_bytes() const noexcept { return item_bytes_; }
  /// The bytes the device holds: every block at full size.
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return blocks_ * block_items_ * item_bytes_;
  }
  [[nodiscard]] io_stats stats() const;
  void reset_stats();

  /// Read block `b` into `out` (size == block_items).  Counts one read.
  void read_block(std::uint64_t b, std::span<std::uint64_t> out);

  /// Write block `b` from `in` (size == block_items).  Counts one write.
  void write_block(std::uint64_t b, std::span<const std::uint64_t> in);

  /// Read the item range [item_lo, item_lo + out.size()) through whole-block
  /// transfers: one read per covered block.
  void read_items(std::uint64_t item_lo, std::span<std::uint64_t> out);

  /// Write the item range [item_lo, item_lo + in.size()): fully covered
  /// blocks are written blind (one write); the at-most-two partial boundary
  /// blocks are merge-written (read + patch + write) ATOMICALLY per block,
  /// so concurrent writers of disjoint item ranges compose correctly.
  void write_items(std::uint64_t item_lo, std::span<const std::uint64_t> in);

  /// Test helpers: bulk item access WITHOUT I/O accounting (used by tests
  /// to load/verify content, never by algorithms).
  void poke(std::uint64_t item, std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t peek(std::uint64_t item) const noexcept;

 private:
  /// Copy the stored items [at, at + count) out to `out`, widened.
  void load(std::uint64_t at, std::uint64_t* out, std::uint64_t count) const noexcept;
  /// Store `count` values at item `at`, narrowed; returns the OR of their
  /// bits above the item width (0 when every value fit).
  [[nodiscard]] std::uint64_t store(std::uint64_t at, const std::uint64_t* in,
                                    std::uint64_t count) noexcept;

  std::uint64_t item_capacity_;
  std::uint32_t block_items_;
  std::uint64_t blocks_;
  std::uint32_t item_bytes_;
  std::vector<std::uint32_t> narrow_;  ///< the items, when item_bytes_ == 4
  std::vector<std::uint64_t> wide_;    ///< the items, when item_bytes_ == 8
  io_stats stats_;
  mutable std::mutex mutex_;
};

/// LRU buffer pool over a device: `frames` cached blocks ("M/B" of the I/O
/// model).  Item-granular access; dirty blocks write back on eviction and
/// flush().  Cache hits are counted separately from device transfers (the
/// device's own stats see only the misses).
class buffer_pool {
 public:
  buffer_pool(block_device& dev, std::uint32_t frames);
  ~buffer_pool();

  buffer_pool(const buffer_pool&) = delete;
  buffer_pool& operator=(const buffer_pool&) = delete;

  [[nodiscard]] std::uint64_t read_item(std::uint64_t item);
  void write_item(std::uint64_t item, std::uint64_t value);

  /// Write back every dirty frame.
  void flush();

  [[nodiscard]] std::uint32_t frames() const noexcept { return frames_; }
  [[nodiscard]] const io_stats& stats() const noexcept { return stats_; }

 private:
  struct frame {
    std::uint64_t block = 0;
    bool dirty = false;
    std::vector<std::uint64_t> data;
  };

  /// Pin the frame holding `block`, loading/evicting as needed; returns
  /// its index and bumps it to most-recently-used.
  std::size_t touch(std::uint64_t block);

  block_device& dev_;
  std::uint32_t frames_;
  std::vector<frame> pool_;
  std::list<std::size_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::size_t>::iterator> where_;
  io_stats stats_;
};

}  // namespace cgp::em
