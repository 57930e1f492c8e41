#pragma once
// TierBudget: a sharded, mostly lock-free byte budget for one bounded
// memory tier (née HbmBudget).
//
// The PolicyEngine accounts tier capacity with a single counter that
// its caller serializes, and no in-tree engine uses TierBudget.  It
// remains as the measured alternative (the benchmark's
// ooc.budget_claim_ns probe): the capacity is split into per-shard
// sub-budgets with atomic claim/release, so claimants on different
// shards never touch the same cache line.  When a shard's local slack
// is insufficient, the claim falls back to a serialized work-stealing
// pass that pulls slack from the other shards — a claim therefore
// fails only when the whole node genuinely lacks the bytes, exactly
// like the single counter, while the common case stays
// contention-free.
//
// Invariant: sum over shards of available() never exceeds capacity, and
// claimed bytes are always returned to some shard via release().

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hmr::ooc {

class TierBudget {
public:
  TierBudget(std::uint64_t capacity, std::int32_t num_shards);

  TierBudget(const TierBudget&) = delete;
  TierBudget& operator=(const TierBudget&) = delete;

  /// Claim `bytes` on behalf of `shard`.  Tries the shard's local
  /// sub-budget first; on a miss it steals slack from the other shards
  /// under a mutex (slow path).  All-or-nothing: false means the claim
  /// left every sub-budget untouched.
  bool try_claim(std::int32_t shard, std::uint64_t bytes);

  /// Return `bytes` to `shard`'s sub-budget.
  void release(std::int32_t shard, std::uint64_t bytes);

  std::uint64_t capacity() const { return capacity_; }
  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }

  /// Bytes currently claimed node-wide (approximate under concurrency:
  /// each term is read atomically but not the sum).
  std::uint64_t used() const;

  /// Bytes available in one shard's sub-budget.
  std::uint64_t available(std::int32_t shard) const;

  /// Slow-path claims that had to steal slack from other shards.
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> avail{0};
  };

  /// Atomically take up to `want` bytes from `s`; returns bytes taken.
  static std::uint64_t take(Shard& s, std::uint64_t want);

  std::uint64_t capacity_;
  std::vector<Shard> shards_;
  std::mutex steal_mu_; // serializes the cross-shard slow path
  std::atomic<std::uint64_t> steals_{0};
};

} // namespace hmr::ooc
