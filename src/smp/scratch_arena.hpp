// smp/scratch_arena.hpp
//
// The scratch buffers an smp::engine keeps across calls.  A split level
// scatters n items into an n-item scratch buffer; allocated per call,
// a buffer above glibc's 32 MiB mmap ceiling is a fresh mapping whose
// every page faults in again.  The arena keeps its buffers instead, the
// grow-only `reserve` idiom: a buffer is only ever replaced by a bigger
// one.
//
// Lease rule: each concurrent caller leases its own buffer, the smallest
// free one that fits.  When none fits, the largest free buffer is
// released before the bigger one is allocated, so the arena holds at
// most one buffer per concurrent caller and never two where the heap
// would have held one.  Buffers are 64-byte aligned and never
// value-initialized: the scatter writes every slot before it reads it.
// They are freed with the arena.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

namespace cgp::smp {

class scratch_arena {
 public:
  scratch_arena() = default;
  scratch_arena(const scratch_arena&) = delete;
  scratch_arena& operator=(const scratch_arena&) = delete;
  /// Frees every buffer; none may still be leased.
  ~scratch_arena();

  /// A buffer of at least `bytes` bytes, held until destruction.
  class lease {
   public:
    lease(scratch_arena& arena, std::size_t bytes);
    ~lease();
    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;

    /// The first n objects of the buffer (n * sizeof(T) <= the bytes asked for).
    template <typename T>
    [[nodiscard]] std::span<T> as(std::size_t n) const noexcept {
      return {static_cast<T*>(data_), n};
    }

   private:
    scratch_arena& arena_;
    void* data_ = nullptr;
  };

  /// Bytes of every buffer the arena holds, leased or free.
  [[nodiscard]] std::size_t retained_bytes() const;

 private:
  struct slot {
    void* data;
    std::size_t bytes;
    bool leased;
  };

  mutable std::mutex mu_;
  std::vector<slot> slots_;
};

}  // namespace cgp::smp
