#pragma once
// ContentionStats: per-slot lock acquisition / lock-wait counters.
//
// The threaded runtime wants to report how much of its wall time is
// spent waiting on its engine mutex (one slot).  Each slot gets its
// own cache line of atomic counters so the instrumentation itself
// never contends; the fast path (uncontended try_lock) costs one
// relaxed fetch_add.
//
// bench/rt_contention reads these to print the engine lock-wait
// fraction.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hmr::trace {

class ContentionStats {
public:
  struct Totals {
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0; // acquisitions that had to wait
    double wait_s = 0;           // total time spent blocked
  };

  explicit ContentionStats(std::size_t shards = 1);

  std::size_t shards() const { return slots_.size(); }

  void count_uncontended(std::size_t shard) {
    auto& s = slots_[shard];
    s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  }

  void count_wait(std::size_t shard, std::uint64_t wait_ns) {
    auto& s = slots_[shard];
    s.acquisitions.fetch_add(1, std::memory_order_relaxed);
    s.contended.fetch_add(1, std::memory_order_relaxed);
    s.wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  }

  Totals shard_totals(std::size_t shard) const;
  Totals totals() const; // summed over all shards

  void reset();

private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> contended{0};
    std::atomic<std::uint64_t> wait_ns{0};
  };

  std::vector<Slot> slots_;
};

/// Lock `mu`, charging any wait to `cs` shard `shard` (cs may be null).
template <class Mutex>
inline void lock_counted(Mutex& mu, ContentionStats* cs, std::size_t shard) {
  if (cs == nullptr) {
    mu.lock();
    return;
  }
  if (mu.try_lock()) {
    cs->count_uncontended(shard);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  mu.lock();
  const auto dt = std::chrono::steady_clock::now() - t0;
  cs->count_wait(
      shard, static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                     .count()));
}

} // namespace hmr::trace
