#include "em/block_device.hpp"

#include <algorithm>
#include <mutex>

#include "obs/metrics.hpp"

namespace cgp::em {

namespace {

// Process-wide I/O metrics, shared across every simulated device
// (per-run accounting stays in io_stats).  References are resolved once;
// mutations are relaxed atomic adds.
obs::counter& io_reads_counter() {
  static obs::counter& c = obs::get_counter("em.io.reads");
  return c;
}
obs::counter& io_writes_counter() {
  static obs::counter& c = obs::get_counter("em.io.writes");
  return c;
}

// Namespace-scope and trivially destructible: a device may be freed at
// exit, possibly after the metrics registry is gone.
std::mutex g_device_mu;
std::int64_t g_device_bytes = 0;
bool g_gauge_gone = false;

/// Mirror the bytes all live devices hold into the gauge `em.device_bytes`.
void note_device_bytes(std::int64_t delta) {
  const std::lock_guard<std::mutex> lock(g_device_mu);
  g_device_bytes += delta;
  if (g_gauge_gone) return;
  // Built after the metrics registry, so destroyed before it; from then
  // on the gauge is left alone.
  static struct gauge_ref {
    obs::gauge& g = obs::get_gauge("em.device_bytes");
    ~gauge_ref() { g_gauge_gone = true; }
  } ref;
  ref.g.set(g_device_bytes);
  ref.g.note_peak(g_device_bytes);
}

}  // namespace

block_device::block_device(std::uint64_t item_capacity, std::uint32_t block_items,
                           std::uint32_t item_bytes)
    : item_capacity_(item_capacity),
      block_items_(block_items),
      blocks_((item_capacity + block_items - 1) / block_items),
      item_bytes_(item_bytes) {
  CGP_EXPECTS(block_items >= 1);
  CGP_EXPECTS(item_bytes == 4 || item_bytes == 8);
  const std::uint64_t items = blocks_ * block_items_;
  if (item_bytes == 4) {
    narrow_.assign(items, 0);
  } else {
    wide_.assign(items, 0);
  }
  note_device_bytes(static_cast<std::int64_t>(bytes()));
}

block_device::~block_device() { note_device_bytes(-static_cast<std::int64_t>(bytes())); }

void block_device::load(std::uint64_t at, std::uint64_t* out,
                        std::uint64_t count) const noexcept {
  if (item_bytes_ == 8) {
    std::copy_n(wide_.data() + at, count, out);
    return;
  }
  const std::uint32_t* src = narrow_.data() + at;
  for (std::uint64_t i = 0; i < count; ++i) out[i] = src[i];
}

std::uint64_t block_device::store(std::uint64_t at, const std::uint64_t* in,
                                  std::uint64_t count) noexcept {
  if (item_bytes_ == 8) {
    std::copy_n(in, count, wide_.data() + at);
    return 0;
  }
  std::uint32_t* dst = narrow_.data() + at;
  std::uint64_t high = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    high |= in[i];
    dst[i] = static_cast<std::uint32_t>(in[i]);
  }
  return high >> 32;
}

io_stats block_device::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void block_device::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = io_stats{};
}

void block_device::read_block(std::uint64_t b, std::span<std::uint64_t> out) {
  CGP_EXPECTS(b < blocks_);
  CGP_EXPECTS(out.size() == block_items_);
  const std::lock_guard<std::mutex> lock(mutex_);
  load(b * block_items_, out.data(), block_items_);
  ++stats_.block_reads;
  io_reads_counter().add();
}

void block_device::write_block(std::uint64_t b, std::span<const std::uint64_t> in) {
  CGP_EXPECTS(b < blocks_);
  CGP_EXPECTS(in.size() == block_items_);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t high = store(b * block_items_, in.data(), block_items_);
  CGP_EXPECTS(high == 0);  // every value fits the item width
  ++stats_.block_writes;
  io_writes_counter().add();
}

void block_device::read_items(std::uint64_t item_lo, std::span<std::uint64_t> out) {
  if (out.empty()) return;  // no phantom transfers on empty ranges
  const std::uint64_t hi = item_lo + out.size();
  CGP_EXPECTS(hi <= blocks_ * block_items_);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint64_t blk = item_lo / block_items_; blk * block_items_ < hi; ++blk) {
    const std::uint64_t first = blk * block_items_;
    const std::uint64_t lo = std::max<std::uint64_t>(first, item_lo);
    const std::uint64_t up = std::min<std::uint64_t>(first + block_items_, hi);
    load(lo, out.data() + (lo - item_lo), up - lo);
    ++stats_.block_reads;
  }
  io_reads_counter().add((hi - 1) / block_items_ - item_lo / block_items_ + 1);
}

void block_device::write_items(std::uint64_t item_lo, std::span<const std::uint64_t> in) {
  if (in.empty()) return;  // no phantom transfers on empty ranges
  const std::uint64_t hi = item_lo + in.size();
  CGP_EXPECTS(hi <= blocks_ * block_items_);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t high = 0;
  for (std::uint64_t blk = item_lo / block_items_; blk * block_items_ < hi; ++blk) {
    const std::uint64_t first = blk * block_items_;
    const std::uint64_t lo = std::max<std::uint64_t>(first, item_lo);
    const std::uint64_t up = std::min<std::uint64_t>(first + block_items_, hi);
    const bool partial = lo != first || up != first + block_items_;
    // A partial boundary block is a read-modify-write (one extra read);
    // holding the lock across the whole cycle makes the patch atomic.
    if (partial) {
      ++stats_.block_reads;
      io_reads_counter().add();
    }
    high |= store(lo, in.data() + (lo - item_lo), up - lo);
    ++stats_.block_writes;
  }
  CGP_EXPECTS(high == 0);  // every value fits the item width
  io_writes_counter().add((hi - 1) / block_items_ - item_lo / block_items_ + 1);
}

void block_device::poke(std::uint64_t item, std::uint64_t value) noexcept {
  CGP_ASSERT(item < item_capacity_);
  const std::uint64_t high = store(item, &value, 1);
  CGP_EXPECTS(high == 0);  // the value fits the item width
}

std::uint64_t block_device::peek(std::uint64_t item) const noexcept {
  CGP_ASSERT(item < item_capacity_);
  std::uint64_t value = 0;
  load(item, &value, 1);
  return value;
}

buffer_pool::buffer_pool(block_device& dev, std::uint32_t frames) : dev_(dev), frames_(frames) {
  CGP_EXPECTS(frames >= 1);
  pool_.reserve(frames);
}

buffer_pool::~buffer_pool() { flush(); }

std::size_t buffer_pool::touch(std::uint64_t block) {
  if (const auto it = where_.find(block); it != where_.end()) {
    ++stats_.cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
    return *it->second;
  }

  std::size_t idx;
  if (pool_.size() < frames_) {
    idx = pool_.size();
    pool_.emplace_back();
    pool_[idx].data.assign(dev_.block_items(), 0);
  } else {
    // Evict the least recently used frame.
    idx = lru_.back();
    lru_.pop_back();
    frame& victim = pool_[idx];
    where_.erase(victim.block);
    if (victim.dirty) {
      dev_.write_block(victim.block, victim.data);
      ++stats_.block_writes;
      victim.dirty = false;
    }
  }

  frame& f = pool_[idx];
  f.block = block;
  dev_.read_block(block, f.data);
  ++stats_.block_reads;
  lru_.push_front(idx);
  where_[block] = lru_.begin();
  return idx;
}

std::uint64_t buffer_pool::read_item(std::uint64_t item) {
  const std::uint64_t block = item / dev_.block_items();
  const std::size_t idx = touch(block);
  return pool_[idx].data[item % dev_.block_items()];
}

void buffer_pool::write_item(std::uint64_t item, std::uint64_t value) {
  const std::uint64_t block = item / dev_.block_items();
  const std::size_t idx = touch(block);
  pool_[idx].data[item % dev_.block_items()] = value;
  pool_[idx].dirty = true;
}

void buffer_pool::flush() {
  for (auto& f : pool_) {
    if (f.dirty) {
      dev_.write_block(f.block, f.data);
      ++stats_.block_writes;
      f.dirty = false;
    }
  }
}

}  // namespace cgp::em
