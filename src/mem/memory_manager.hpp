#pragma once
// MemoryManager: the node-level heterogeneous-memory substrate.
//
// Owns one TierArena per memory tier plus a registry of *blocks* — the
// unit the runtime migrates (the paper's CkIOHandle-backed data blocks).
// Migration follows the paper's §IV-C recipe exactly:
//
//   1. numa_alloc_onnode on the destination tier   (alloc_on_tier)
//   2. memcpy src -> dst                           (real bytes move)
//   3. numa_free the source buffer                 (free_on_tier)
//
// migrate_batch() is the one implementation of that recipe, and it
// runs the steps over a whole batch at a time: the runtime's IO
// threads hand it every command one wakeup drained, and a single
// migrate() is a one-element batch.  A batch takes the block table's
// lock once to validate and mark its blocks, each destination tier's
// lock once for all of step 1, no lock for step 2, each source tier's
// lock once for all of step 3, and the block table's lock once more
// to publish pointers, tiers and traffic stats — where migrating the
// same blocks one at a time takes five locks per block.
//
// A per-tier pooling allocator implements the paper's stated future
// optimization ("the creating of space in destination memory could be
// avoided if we maintain a memory pool in each memory type").  The
// threaded runtime always turns it on; bench/abl_pool_migrate measures
// it against the unpooled path.  Freed block buffers park in the pool
// by exact rounded size, and a later allocation of that size reuses
// one without touching the first-fit arena.  The pool is a cache, not
// a reservation: an allocation that misses both pool and arena first
// drains the tier's pool back into the arena (which coalesces it) and
// retries, so pooled bytes never make an allocation fail, and usage()
// counts them only under `pooled`, never under `used`.
//
// Thread safety: all metadata operations take an internal mutex.  The
// memcpy itself runs outside the lock, so concurrent migrations of
// *different* blocks proceed in parallel.  Callers (the ooc policy)
// guarantee a block is never migrated concurrently with itself or with
// a task reading it — that is precisely the refcount/state protocol the
// paper's runtime enforces.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/machine_model.hpp"
#include "mem/arena.hpp"
#include "mem/chunked_copy.hpp"
#include "mem/pool.hpp"

namespace hmr::mem {

using hw::TierId;

/// Handle for a registered, migratable data block.
using BlockId = std::uint64_t;
inline constexpr BlockId kInvalidBlock = ~0ull;

/// One migration of a batch: move `block` to tier `dst`.
/// `copy_contents = false` skips the memcpy (valid only when the next
/// access is write-only — the writeonly_nocopy optimization); the
/// destination buffer's contents are then indeterminate.
struct MigrateOp {
  BlockId block = kInvalidBlock;
  TierId dst = 0;
  bool copy_contents = true;
};

/// Outcome and timing breakdown of one migration (for bench/fig07,
/// abl_pool and the runtime's trace intervals).  The step times are
/// this migration's own, batched or not: a batch reads the clock once
/// after each op's allocation, copy and free, so the time to take a
/// step's lock lands on the first op served under it.
struct MigrateResult {
  bool ok = false;       // false: destination tier had no space
  std::uint64_t bytes = 0; // the block's size (set even when !ok)
  double alloc_s = 0;    // step 1, including any retry (pool hits: ~0)
  double copy_s = 0;     // step 2 (0 without a copy)
  double free_s = 0;     // step 3 (0 when the source stays as a shadow)
  bool pooled = false;   // destination buffer came from the pool
  bool chunked = false;  // step 2 went through the ChunkRing
  bool zero_copy = false; // admitted via a retained shadow: no memcpy
  std::uint32_t chunks = 0;          // chunks copied (chunked only)
  std::uint32_t assisted_chunks = 0; // copied by assisting threads
  double total() const { return alloc_s + copy_s + free_s; }
};

struct TierUsage {
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;        // live blocks + shadows; excludes pooled
  std::uint64_t pooled = 0;      // bytes parked in the pool (free to reuse
                                 // by any size: drained on a miss)
  std::uint64_t shadow = 0;      // bytes held by zero-copy shadows
  std::uint64_t high_water = 0;  // arena peak, pooled bytes included
  std::uint64_t live_blocks = 0; // arena allocations that are not pooled
};

struct MigrationStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class MemoryManager {
public:
  struct TierSpec {
    std::string name;
    std::uint64_t capacity = 0;
    TierArena::Backing backing = TierArena::Backing::NewDelete;
    bool hugepage = true; ///< MADV_HUGEPAGE when backing == Mmap
    int numa_node = -1;   ///< libnuma binding (HMR_NUMA builds only)
  };

  explicit MemoryManager(std::vector<TierSpec> tiers,
                         bool enable_pool = false);

  /// Tier specs shaped like `model`, scaled by `scale` (e.g. 1/1024
  /// turns the 16 GB / 96 GB KNL node into a 16 MiB / 96 MiB testbed).
  static std::vector<TierSpec> specs_from_model(const hw::MachineModel& model,
                                                double scale);

  /// Convenience: construct directly from a scaled model.
  static MemoryManager from_model(const hw::MachineModel& model,
                                  double scale, bool enable_pool = false);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  std::size_t num_tiers() const { return arenas_.size(); }

  // ---- raw numa_alloc_onnode-shaped API ----

  /// Allocate `bytes` on tier `t`; nullptr when the tier is full.
  void* alloc_on_tier(std::uint64_t bytes, TierId t);
  void free_on_tier(void* p, TierId t);

  // ---- block registry (the unit of prefetch/eviction) ----

  /// Register a new block and allocate its storage on `initial`.
  /// Returns kInvalidBlock when the tier has no space.
  BlockId register_block(std::uint64_t bytes, TierId initial);

  /// Release a block's storage and forget it.
  void unregister_block(BlockId b);

  void* block_ptr(BlockId b) const;
  std::uint64_t block_bytes(BlockId b) const;
  TierId block_tier(BlockId b) const;

  /// Migrate every op of `ops` (alloc + memcpy + free); `out[i]`
  /// receives ops[i]'s result and `out.size()` must equal `ops.size()`.
  /// Each op means what migrate() means alone: ok=false leaves its
  /// block untouched when its destination has no space, and a block
  /// already on its destination is a no-op success.  The ops share
  /// the lock sections (see the file comment).  A destination the
  /// batch's allocation pass cannot fill is retried after the batch's
  /// sources are freed and published, one op at a time, through the
  /// pool drain and shadow reclaim — so an op fails only when its tier
  /// cannot hold it at that point.  A block may appear once per batch;
  /// a repeat dies like any concurrent migration of one block.
  void migrate_batch(std::span<const MigrateOp> ops,
                     std::span<MigrateResult> out);

  /// migrate_batch() of the single op {b, dst, copy_contents}.
  MigrateResult migrate(BlockId b, TierId dst, bool copy_contents = true);

  // ---- cooperative chunked copies ----
  //
  // With chunking enabled, migrate() streams copies of at least
  // `threshold` bytes through a ChunkRing in `chunk` -byte pieces, and
  // idle threads (the runtime's IO threads) can join in via
  // assist_copies() so several cores share one large transfer.

  /// Enable (threshold > 0) or disable (threshold = 0) chunked copies.
  /// `on_chunked_copy`, when set, runs before each chunked copy starts
  /// (the runtime wakes its idle IO threads there, so they assist).
  /// Not thread-safe against concurrent migrate(): configure before
  /// the executor starts moving data.
  void set_chunked_copy(std::uint64_t threshold, std::uint64_t chunk,
                        std::function<void()> on_chunked_copy = {});

  bool chunked_copy_enabled() const { return chunk_threshold_ > 0; }
  std::uint64_t chunk_threshold() const { return chunk_threshold_; }

  /// Copy chunks of any in-flight chunked migration; returns chunks
  /// copied (0 = nothing pending).  Safe from any thread.
  std::size_t assist_copies();

  /// Cheap poll for IO-thread idle loops.
  bool copy_assist_pending() const;

  /// The ring's monotonic counters (jobs / chunks / assisted chunks).
  const ChunkRing& chunk_ring() const { return ring_; }

  // ---- zero-copy admission (docs/PERF.md §4) ----
  //
  // With zero-copy enabled, a copying migration retains the *source*
  // buffer as the block's "shadow": a byte-identical stale residence.
  // A later migration whose destination still holds a valid shadow is
  // admitted by swapping primary and shadow — no alloc, no memcpy, no
  // free — which covers both a re-fetch of a block that was demoted
  // unmodified and a demotion returning to where the block came from.
  // Shadows are invalidated by writes (the runtime calls mark_dirty
  // after every writing task) and reclaimed transparently when their
  // tier runs out of space for real allocations.  One shadow per
  // block: a newer residence replaces an older one.

  /// Enable/disable shadow retention.  Configure before traffic;
  /// disabling does not free already-retained shadows.
  void set_zero_copy(bool on) { zero_copy_ = on; }
  bool zero_copy_enabled() const { return zero_copy_; }

  /// The block's contents changed: drop its shadow (if any).  Must be
  /// called between a write and the block's next migration; the
  /// runtime does this for every ReadWrite/WriteOnly dependency.
  void mark_dirty(BlockId b);

  /// Migrations admitted without a copy, and the bytes they skipped.
  std::uint64_t zero_copy_admissions() const {
    return zero_copy_admissions_.load(std::memory_order_relaxed);
  }
  std::uint64_t zero_copy_bytes() const {
    return zero_copy_bytes_.load(std::memory_order_relaxed);
  }
  /// Shadows dropped by mark_dirty (writes) and by capacity reclaim.
  std::uint64_t shadow_invalidations() const {
    return shadow_invalidations_.load(std::memory_order_relaxed);
  }

  // ---- introspection ----

  TierUsage usage(TierId t) const;
  /// Migration traffic observed from tier `src` to tier `dst`.
  MigrationStats migration_stats(TierId src, TierId dst) const;

  bool pool_enabled() const { return pool_enabled_; }
  /// Buffer-pool hit/miss counters for tier `t`.
  PoolStats pool_stats(TierId t) const;

  /// The arena backing tier `t` (backing mode / NUMA introspection).
  const TierArena& tier_arena(TierId t) const;

private:
  struct BlockRec {
    void* ptr = nullptr;
    std::uint64_t bytes = 0;
    TierId tier = 0;
    bool live = false;
    bool migrating = false; // guards the paper's "one migration at a time"
    // Zero-copy shadow: a stale residence whose contents are
    // byte-identical to ptr's (or nullptr).  Guarded by blocks_mu_.
    void* shadow = nullptr;
    TierId shadow_tier = 0;
  };

  struct TierState {
    std::unique_ptr<TierArena> arena;
    BufferPool pool;
    mutable std::mutex mu;
  };

  /// A batch op's scratch state between lock sections (.cpp only).
  struct Slot;

  /// Steps 1-3 for every Move slot of ops[0, n), then the closing
  /// blocks_mu_ section that publishes all n.  `retry` allocates
  /// through alloc_on (pool drain + shadow reclaim) and turns a miss
  /// into Failed; otherwise a miss becomes Retry.
  void run_moves(const MigrateOp* ops, Slot* slots, MigrateResult* out,
                 std::size_t n, bool retry);

  /// Pool, then arena, then drain the pool into the arena and retry.
  /// Caller holds ts.mu.  nullptr = no room even without the pool.
  void* alloc_locked(TierState& ts, std::uint64_t bytes, bool* from_pool);
  void free_locked(TierState& ts, void* p, std::uint64_t bytes);
  /// Allocate on tier `t`; when that fails under zero-copy, free every
  /// shadow on the tier and try once more.  nullptr = out of room.
  void* alloc_on(TierId t, std::uint64_t bytes, bool* from_pool);
  /// Free `rec`'s shadow, if any.  Caller holds blocks_mu_.
  void drop_shadow_locked(BlockRec& rec);
  // Lock order: blocks_mu_ -> a tier's mu (never the reverse), and a
  // batch holds at most one tier's mu at a time.  A shadow is detached
  // and freed inside one blocks_mu_ section, so a reclaim never finds
  // a shadow gone while its bytes are still taken.

  std::vector<std::unique_ptr<TierState>> arenas_;
  bool pool_enabled_;
  bool zero_copy_ = false;
  std::uint64_t chunk_threshold_ = 0; // 0 = chunking off
  std::function<void()> on_chunked_copy_;
  ChunkRing ring_;

  std::atomic<std::uint64_t> zero_copy_admissions_{0};
  std::atomic<std::uint64_t> zero_copy_bytes_{0};
  std::atomic<std::uint64_t> shadow_invalidations_{0};

  mutable std::mutex blocks_mu_;
  std::vector<BlockRec> blocks_;
  std::vector<std::uint64_t> shadow_bytes_; // per tier, under blocks_mu_
  // stats_[src * num_tiers + dst], under blocks_mu_: a batch publishes
  // its traffic in the same section as its pointers.
  std::vector<MigrationStats> stats_;
};

} // namespace hmr::mem
