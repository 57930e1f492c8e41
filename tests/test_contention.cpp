// lock_counted / ContentionStats: the engine lock's wait accounting.
// A waiter spins (pause + try_lock) for a bounded time before it
// blocks; the whole wait, spin plus block, must be charged as one
// contended acquisition, and an acquisition that never waited must
// count as uncontended.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "trace/contention.hpp"

namespace hmr::trace {
namespace {

/// A lock whose holder the test controls and which reports what
/// lock_counted did to it.  `held` stands for another thread owning the
/// lock; it is a flag rather than a std::mutex so that a test can let
/// go of it from any thread at an exact point of the waiter's spin,
/// even when holder and waiter share one core.
struct ProbedLock {
  std::atomic<bool> held{false};
  std::atomic<int> failed_try_locks{0};
  std::atomic<int> blocking_locks{0};
  /// The holder keeps the lock 1 ms into the waiter's spin, then lets
  /// go on this failed try_lock (-1 = never): a release inside the
  /// spin window, after a wait that only the spin can have measured.
  int release_after = -1;

  bool grab() {
    bool expected = false;
    return held.compare_exchange_strong(expected, true);
  }
  bool try_lock() {
    if (grab()) return true;
    if (failed_try_locks.fetch_add(1) + 1 == release_after) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      held = false;
    }
    return false;
  }
  void lock() {
    blocking_locks.fetch_add(1);
    // A scripted release that the spin never reached happens now, so a
    // waiter that blocks too early fails the test instead of hanging.
    if (release_after >= 0) held = false;
    while (!grab()) std::this_thread::yield();
  }
  void unlock() { held = false; }
};

TEST(ContentionStats, UncontendedAcquisitionIsNotAWait) {
  ContentionStats cs;
  ProbedLock pl;
  lock_counted(pl, &cs, 0);
  pl.unlock();
  const auto t = cs.totals();
  EXPECT_EQ(t.acquisitions, 1u);
  EXPECT_EQ(t.contended, 0u);
  EXPECT_EQ(t.wait_s, 0.0);
  EXPECT_EQ(pl.failed_try_locks.load(), 0);
  EXPECT_EQ(pl.blocking_locks.load(), 0);
}

TEST(ContentionStats, ReleaseInsideTheSpinStillCountsAsContended) {
  // The holder lets go at the waiter's second failed try_lock, 1 ms
  // into its spin: the waiter takes the lock from its spin without
  // blocking, and the acquisition is charged as a contended 1-ms wait.
  ContentionStats cs;
  ProbedLock pl;
  pl.held = true;
  pl.release_after = 2;
  lock_counted(pl, &cs, 0);
  pl.unlock();
  const auto t = cs.totals();
  EXPECT_EQ(t.acquisitions, 1u);
  EXPECT_EQ(t.contended, 1u);
  EXPECT_GE(t.wait_s, 1e-3);
  EXPECT_EQ(pl.failed_try_locks.load(), 2);
  EXPECT_EQ(pl.blocking_locks.load(), 0);
}

TEST(ContentionStats, LongHoldIsChargedAsOneWait) {
  // A holder thread keeps the lock 5 ms after the waiter started
  // waiting: far past the spin bound (about 16 µs), so the waiter
  // blocks after exactly kLockSpinIters spin rounds, and the recorded
  // wait covers the spin and the block together.
  ContentionStats cs;
  ProbedLock pl;
  pl.held = true;
  std::thread holder([&pl] {
    // The second failed try_lock (or a block, with no spin at all)
    // proves the waiter's wait clock is running.
    while (pl.failed_try_locks.load() < 2 && pl.blocking_locks.load() == 0) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pl.unlock();
  });
  lock_counted(pl, &cs, 0);
  holder.join();
  pl.unlock();
  const auto t = cs.totals();
  EXPECT_EQ(t.acquisitions, 1u);
  EXPECT_EQ(t.contended, 1u);
  EXPECT_GE(t.wait_s, 5e-3);
  EXPECT_EQ(pl.blocking_locks.load(), 1);
  EXPECT_EQ(pl.failed_try_locks.load(), 1 + kLockSpinIters);
}

TEST(ContentionStats, StdMutexWaiterWithoutStats) {
  // The runtime's lock type, with no stats slot: a waiter that finds
  // the mutex held still gets it once the holder lets go.
  std::mutex mu;
  std::atomic<bool> waiting{false};
  mu.lock();
  std::thread waiter([&] {
    waiting = true;
    lock_counted(mu, static_cast<ContentionStats*>(nullptr), 0);
    mu.unlock();
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  mu.unlock();
  waiter.join();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

} // namespace
} // namespace hmr::trace
