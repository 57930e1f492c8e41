#pragma once
// BufferPool: size-class cache of freed tier buffers.
//
// Implements the paper's §IV-C future-work optimization: "the creating
// of space in destination memory could be avoided if we maintain a
// memory pool in each memory type".  Freed buffers are parked in
// per-size free lists instead of going back to the arena; a matching
// later allocation reuses one without touching the arena free list.
//
// Buffers are pooled by their exact rounded size.  HPC block sizes are
// highly repetitive (a chare's sub-grid, a matmul tile), so exact-size
// matching has a near-100% hit rate for the workloads in the paper.
// The pool is a cache, not a reservation: its owner drains it back to
// the arena when an allocation of another size would otherwise fail.
//
// Not thread-safe: the owning MemoryManager serializes access per tier.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace hmr::mem {

class BufferPool {
public:
  /// Park a buffer of `bytes` for reuse.
  void put(void* p, std::uint64_t bytes);

  /// Retrieve a parked buffer of exactly `bytes`; nullptr on miss.
  void* get(std::uint64_t bytes);

  /// Bytes currently parked.
  std::uint64_t pooled_bytes() const { return pooled_bytes_; }
  /// Buffers currently parked.
  std::uint64_t pooled_buffers() const { return pooled_buffers_; }

  /// Remove every parked buffer, invoking `release(ptr)` on each.
  template <typename F>
  void drain(F&& release) {
    for (auto& [sz, list] : classes_) {
      for (void* p : list) release(p);
      pooled_bytes_ -= sz * list.size();
      pooled_buffers_ -= list.size();
      list.clear();
    }
    classes_.clear();
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

private:
  std::unordered_map<std::uint64_t, std::vector<void*>> classes_;
  std::uint64_t pooled_bytes_ = 0;
  std::uint64_t pooled_buffers_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

} // namespace hmr::mem
