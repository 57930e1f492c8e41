#include "mem/memory_manager.hpp"

#include <chrono>
#include <cmath>

#include "mem/copy_kernel.hpp"
#include "util/check.hpp"

namespace hmr::mem {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

MemoryManager::MemoryManager(std::vector<TierSpec> tiers, bool enable_pool)
    : pool_enabled_(enable_pool) {
  HMR_CHECK_MSG(!tiers.empty(), "need at least one tier");
  arenas_.reserve(tiers.size());
  for (auto& spec : tiers) {
    auto ts = std::make_unique<TierState>();
    TierArena::Options opts;
    opts.backing = spec.backing;
    opts.hugepage = spec.hugepage;
    opts.numa_node = spec.numa_node;
    ts->arena = std::make_unique<TierArena>(spec.name, spec.capacity,
                                            /*alignment=*/64, opts);
    arenas_.push_back(std::move(ts));
  }
  stats_.resize(arenas_.size() * arenas_.size());
  shadow_bytes_.resize(arenas_.size(), 0);
}

std::vector<MemoryManager::TierSpec> MemoryManager::specs_from_model(
    const hw::MachineModel& model, double scale) {
  HMR_CHECK(scale > 0);
  std::vector<TierSpec> specs;
  specs.reserve(model.tiers.size());
  for (const auto& t : model.tiers) {
    TierSpec spec;
    spec.name = t.name;
    spec.capacity = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(t.capacity) * scale));
    spec.numa_node = t.numa_node;
    specs.push_back(std::move(spec));
  }
  return specs;
}

MemoryManager MemoryManager::from_model(const hw::MachineModel& model,
                                        double scale, bool enable_pool) {
  return MemoryManager(specs_from_model(model, scale), enable_pool);
}

void* MemoryManager::alloc_locked(TierState& ts, std::uint64_t bytes,
                                  bool* from_pool) {
  if (from_pool) *from_pool = false;
  if (pool_enabled_) {
    if (void* p = ts.pool.get(ts.arena->round_up(bytes))) {
      if (from_pool) *from_pool = true;
      return p;
    }
  }
  if (void* p = ts.arena->alloc(bytes)) return p;
  if (ts.pool.pooled_buffers() == 0) return nullptr;
  // The pool is a cache, not a reservation: parked buffers of other
  // sizes go back to the arena, which coalesces them, and the
  // allocation retries in the same critical section so no other
  // thread can take the released room first.
  ts.pool.drain([&](void* p) { ts.arena->free(p); });
  return ts.arena->alloc(bytes);
}

void MemoryManager::free_locked(TierState& ts, void* p,
                                std::uint64_t bytes) {
  if (pool_enabled_ && bytes > 0) {
    ts.pool.put(p, ts.arena->round_up(bytes));
  } else {
    ts.arena->free(p);
  }
}

void* MemoryManager::alloc_on_tier(std::uint64_t bytes, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  return alloc_locked(ts, bytes, nullptr);
}

void MemoryManager::free_on_tier(void* p, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  // Raw frees bypass the pool: callers of the numa-style API manage
  // exact lifetimes themselves.
  ts.arena->free(p);
}

BlockId MemoryManager::register_block(std::uint64_t bytes, TierId initial) {
  HMR_CHECK_MSG(initial < arenas_.size(), "bad tier id");
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  void* p = alloc_on(initial, bytes, nullptr);
  if (!p) return kInvalidBlock;
  std::lock_guard lock(blocks_mu_);
  blocks_.push_back({p, bytes, initial, /*live=*/true, /*migrating=*/false});
  return static_cast<BlockId>(blocks_.size() - 1);
}

void MemoryManager::unregister_block(BlockId b) {
  void* p = nullptr;
  std::uint64_t bytes = 0;
  TierId tier = 0;
  {
    std::lock_guard lock(blocks_mu_);
    HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live,
                  "unregistering dead block");
    HMR_CHECK_MSG(!blocks_[b].migrating, "unregistering mid-migration");
    p = blocks_[b].ptr;
    bytes = blocks_[b].bytes;
    tier = blocks_[b].tier;
    blocks_[b].live = false;
    blocks_[b].ptr = nullptr;
    drop_shadow_locked(blocks_[b]);
  }
  TierState& ts = *arenas_[tier];
  std::lock_guard lock(ts.mu);
  free_locked(ts, p, bytes);
}

void* MemoryManager::block_ptr(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].ptr;
}

std::uint64_t MemoryManager::block_bytes(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].bytes;
}

TierId MemoryManager::block_tier(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].tier;
}

MigrateResult MemoryManager::migrate(BlockId b, TierId dst,
                                     bool copy_contents) {
  HMR_CHECK_MSG(dst < arenas_.size(), "bad tier id");
  MigrateResult r;

  void* src_ptr = nullptr;
  std::uint64_t bytes = 0;
  TierId src_tier = 0;
  {
    std::lock_guard lock(blocks_mu_);
    HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
    BlockRec& rec = blocks_[b];
    HMR_CHECK_MSG(!rec.migrating,
                  "concurrent migration of one block (policy bug)");
    if (rec.tier == dst) {
      r.ok = true;
      return r;
    }
    src_tier = rec.tier;
    bytes = rec.bytes;

    // Zero-copy admission: the destination still holds this block's
    // shadow — a byte-identical stale residence — so the migration is
    // a pointer swap.  No alloc, no copy, no free; the old primary
    // stays behind as the new shadow.  (With copy_contents == false
    // the writer is about to rewrite the block, so the swapped-out
    // primary is dropped instead of retained: its contents will no
    // longer match.)
    if (rec.shadow != nullptr && rec.shadow_tier == dst) {
      std::swap(rec.ptr, rec.shadow);
      rec.shadow_tier = src_tier;
      shadow_bytes_[dst] -= bytes;
      shadow_bytes_[src_tier] += bytes;
      if (!copy_contents) drop_shadow_locked(rec);
      rec.tier = dst;
      zero_copy_admissions_.fetch_add(1, std::memory_order_relaxed);
      zero_copy_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      r.ok = true;
      r.zero_copy = true;
    } else {
      rec.migrating = true;
      src_ptr = rec.ptr;
      // A single shadow per block: this migration will retain the
      // source buffer (or none), so any older shadow goes now — before
      // step 1, since it may be holding the very capacity the
      // destination alloc needs.
      drop_shadow_locked(rec);
    }
  }
  if (r.zero_copy) {
    std::lock_guard lock(stats_mu_);
    // The logical migration still happened: traffic stats stay
    // identical with zero-copy on or off (equivalence contract).
    MigrationStats& s = stats_[src_tier * arenas_.size() + dst];
    ++s.count;
    s.bytes += bytes;
    return r;
  }

  // Step 1: create space on the destination (numa_alloc_onnode).
  const double t_alloc = now_s();
  void* dst_ptr = alloc_on(dst, bytes, &r.pooled);
  r.alloc_s = now_s() - t_alloc;
  if (!dst_ptr) {
    std::lock_guard lock(blocks_mu_);
    blocks_[b].migrating = false;
    r.ok = false;
    return r;
  }

  // Step 2: move the data, outside any lock so migrations of distinct
  // blocks overlap.  Skipped for write-only destinations.  Large
  // copies stream through the ChunkRing so idle IO threads can assist
  // (several cores cooperating on one block).
  if (copy_contents) {
    const double t0 = now_s();
    if (chunk_threshold_ > 0 && bytes >= chunk_threshold_) {
      const CopyOutcome co = ring_.run(dst_ptr, src_ptr, bytes);
      r.chunked = true;
      r.chunks = co.chunks;
      r.assisted_chunks = co.assisted_chunks;
    } else {
      copy(dst_ptr, src_ptr, bytes);
    }
    r.copy_s = now_s() - t0;
  }

  // Step 3: free the source buffer (numa_free) — unless zero-copy
  // retention keeps it as the block's shadow for a later swap back.
  const bool retain = zero_copy_ && copy_contents;
  if (!retain) {
    const double t0 = now_s();
    TierState& ts = *arenas_[src_tier];
    std::lock_guard lock(ts.mu);
    free_locked(ts, src_ptr, bytes);
    r.free_s = now_s() - t0;
  }

  {
    std::lock_guard lock(blocks_mu_);
    BlockRec& rec = blocks_[b];
    rec.ptr = dst_ptr;
    rec.tier = dst;
    rec.migrating = false;
    if (retain) {
      HMR_DCHECK(rec.shadow == nullptr);
      rec.shadow = src_ptr;
      rec.shadow_tier = src_tier;
      shadow_bytes_[src_tier] += bytes;
    }
  }
  {
    std::lock_guard lock(stats_mu_);
    MigrationStats& s = stats_[src_tier * arenas_.size() + dst];
    ++s.count;
    s.bytes += bytes;
  }
  r.ok = true;
  return r;
}

void MemoryManager::mark_dirty(BlockId b) {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  BlockRec& rec = blocks_[b];
  if (rec.shadow == nullptr) return;
  drop_shadow_locked(rec);
  shadow_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryManager::drop_shadow_locked(BlockRec& rec) {
  if (rec.shadow == nullptr) return;
  shadow_bytes_[rec.shadow_tier] -= rec.bytes;
  TierState& ts = *arenas_[rec.shadow_tier];
  std::lock_guard lock(ts.mu);
  free_locked(ts, rec.shadow, rec.bytes);
  rec.shadow = nullptr;
}

void* MemoryManager::alloc_on(TierId t, std::uint64_t bytes,
                              bool* from_pool) {
  TierState& ts = *arenas_[t];
  {
    std::lock_guard lock(ts.mu);
    if (void* p = alloc_locked(ts, bytes, from_pool)) return p;
  }
  if (!zero_copy_) return nullptr;
  // Shadows are a cache, not a reservation: other blocks' stale
  // residences on the tier yield to a real allocation.  Reclaim and
  // retry in one critical section (shadows are only retained under
  // blocks_mu_, buffers only allocated under the tier's mu), so no
  // thread can take the reclaimed room back in between.
  std::lock_guard lock(blocks_mu_);
  std::lock_guard tlock(ts.mu);
  for (BlockRec& rec : blocks_) {
    if (!rec.live || rec.shadow == nullptr || rec.shadow_tier != t) {
      continue;
    }
    // Straight to the arena (bypassing the pool): reclaim exists to
    // release capacity, and a pooled buffer only helps same-size
    // requests.
    ts.arena->free(rec.shadow);
    rec.shadow = nullptr;
    shadow_bytes_[t] -= rec.bytes;
    shadow_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  return alloc_locked(ts, bytes, from_pool);
}

void MemoryManager::set_chunked_copy(std::uint64_t threshold,
                                     std::uint64_t chunk) {
  chunk_threshold_ = threshold;
  if (threshold > 0) {
    HMR_CHECK_MSG(chunk > 0, "chunk size must be positive");
    ring_.set_chunk_bytes(chunk);
  }
}

std::size_t MemoryManager::assist_copies() { return ring_.assist(); }

bool MemoryManager::copy_assist_pending() const {
  return chunk_threshold_ > 0 && ring_.assist_pending();
}

TierUsage MemoryManager::usage(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierUsage u;
  {
    const TierState& ts = *arenas_[t];
    std::lock_guard lock(ts.mu);
    u.capacity = ts.arena->capacity();
    u.pooled = ts.pool.pooled_bytes();
    u.used = ts.arena->used() - u.pooled;
    u.high_water = ts.arena->high_water();
    u.live_blocks = ts.arena->live_allocations() - ts.pool.pooled_buffers();
  }
  {
    std::lock_guard lock(blocks_mu_);
    u.shadow = shadow_bytes_[t];
  }
  return u;
}

const TierArena& MemoryManager::tier_arena(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  return *arenas_[t]->arena;
}

MigrationStats MemoryManager::migration_stats(TierId src, TierId dst) const {
  HMR_CHECK(src < arenas_.size() && dst < arenas_.size());
  std::lock_guard lock(stats_mu_);
  return stats_[src * arenas_.size() + dst];
}

PoolStats MemoryManager::pool_stats(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  const TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  return {ts.pool.hits(), ts.pool.misses()};
}

} // namespace hmr::mem
