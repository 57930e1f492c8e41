#pragma once
// ContentionStats: per-slot lock acquisition / lock-wait counters, and
// lock_counted, the runtime's engine-lock acquire.
//
// The threaded runtime wants to report how much of its wall time is
// spent waiting on its engine mutex (one slot).  Each slot gets its
// own cache line of atomic counters so the instrumentation itself
// never contends; the fast path (uncontended try_lock) costs one
// relaxed fetch_add.
//
// The engine lock is held for a few microseconds per visit (one
// step_batch), far less than a futex sleep/wake round trip on a VM, so
// a waiter that blocks right away pays the wake latency, not the hold
// time.  lock_counted therefore spins — a CPU pause, then try_lock —
// for a bounded kLockSpinIters iterations (about 16 µs at 16 ns per
// x86 `pause`) before it blocks in lock().  The whole wait, spin plus
// block, is charged as one contended acquisition, so the lock-wait
// fraction keeps meaning "time a thread could not get the lock".
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

/// Spin-wait hint: x86 `pause`, aarch64 `yield`, nothing elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Pause + try_lock rounds lock_counted spins before it blocks.
inline constexpr int kLockSpinIters = 1000;

/// Lock `mu`, charging any wait (spin and block) to `cs` shard `shard`
/// (cs may be null).
template <class Mutex>
inline void lock_counted(Mutex& mu, ContentionStats* cs, std::size_t shard) {
  if (mu.try_lock()) {
    if (cs != nullptr) cs->count_uncontended(shard);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  bool locked = false;
  for (int i = 0; i < kLockSpinIters && !locked; ++i) {
    cpu_relax();
    locked = mu.try_lock();
  }
  if (!locked) mu.lock();
  if (cs == nullptr) return;
  const auto dt = std::chrono::steady_clock::now() - t0;
  cs->count_wait(
      shard, static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                     .count()));
}

} // namespace hmr::trace
