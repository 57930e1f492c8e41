#include "mem/memory_manager.hpp"

#include <array>
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

/// A batch op's progress between lock sections.
enum class Step : std::uint8_t {
  Noop,    // already on its destination
  Swapped, // zero-copy admission, done in the validation section
  Move,    // steps 1-3 pending (or done, once published)
  Retry,   // allocation pass failed: retried after the batch publishes
  Failed,  // no room even after the retry
};

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

struct MemoryManager::Slot {
  Step step = Step::Noop;
  TierId src_tier = 0;
  void* src = nullptr;
  void* dst = nullptr;
};

MigrateResult MemoryManager::migrate(BlockId b, TierId dst,
                                     bool copy_contents) {
  const MigrateOp op{b, dst, copy_contents};
  MigrateResult r;
  migrate_batch({&op, 1}, {&r, 1});
  return r;
}

void MemoryManager::migrate_batch(std::span<const MigrateOp> ops,
                                  std::span<MigrateResult> out) {
  HMR_CHECK_MSG(out.size() == ops.size(), "one result per migration");
  const std::size_t n = ops.size();
  if (n == 0) return;
  // Per-op scratch: on the stack for a runtime-sized batch (the IO
  // threads drain at most 16 commands per wakeup).
  std::array<Slot, 16> local;
  std::unique_ptr<Slot[]> heap;
  Slot* slots = local.data();
  if (n > local.size()) {
    heap = std::make_unique<Slot[]>(n);
    slots = heap.get();
  }

  // Validate and mark every block in one section.  Marking makes a
  // block's second op in this batch die like a concurrent migration.
  {
    std::lock_guard lock(blocks_mu_);
    for (std::size_t i = 0; i < n; ++i) {
      const MigrateOp& op = ops[i];
      HMR_CHECK_MSG(op.dst < arenas_.size(), "bad tier id");
      HMR_CHECK_MSG(op.block < blocks_.size() && blocks_[op.block].live,
                    "dead block");
      BlockRec& rec = blocks_[op.block];
      HMR_CHECK_MSG(!rec.migrating,
                    "concurrent migration of one block (policy bug)");
      rec.migrating = true;
      MigrateResult& r = out[i];
      r = MigrateResult{};
      r.bytes = rec.bytes;
      Slot& s = slots[i];
      s = Slot{};
      s.src_tier = rec.tier;
      if (rec.tier == op.dst) {
        r.ok = true;
        continue;
      }
      // Zero-copy admission: the destination still holds this block's
      // shadow — a byte-identical stale residence — so the migration
      // is a pointer swap.  No alloc, no copy, no free; the old
      // primary stays behind as the new shadow.  (With copy_contents
      // == false the writer is about to rewrite the block, so the
      // swapped-out primary is dropped instead of retained: its
      // contents will no longer match.)
      if (rec.shadow != nullptr && rec.shadow_tier == op.dst) {
        std::swap(rec.ptr, rec.shadow);
        rec.shadow_tier = s.src_tier;
        shadow_bytes_[op.dst] -= rec.bytes;
        shadow_bytes_[s.src_tier] += rec.bytes;
        if (!op.copy_contents) drop_shadow_locked(rec);
        rec.tier = op.dst;
        zero_copy_admissions_.fetch_add(1, std::memory_order_relaxed);
        zero_copy_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
        r.ok = true;
        r.zero_copy = true;
        s.step = Step::Swapped;
        continue;
      }
      s.step = Step::Move;
      s.src = rec.ptr;
      // A single shadow per block: this migration will retain the
      // source buffer (or none), so any older shadow goes now — before
      // step 1, since it may be holding the very capacity the
      // destination alloc needs.
      drop_shadow_locked(rec);
    }
  }

  run_moves(ops.data(), slots, out.data(), n, /*retry=*/false);
  // Allocations the first pass could not place, now that the batch's
  // sources are back in their tiers (and its retained sources are
  // shadows a reclaim may take), one op at a time.
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].step != Step::Retry) continue;
    slots[i].step = Step::Move;
    run_moves(&ops[i], &slots[i], &out[i], 1, /*retry=*/true);
  }
}

void MemoryManager::run_moves(const MigrateOp* ops, Slot* slots,
                              MigrateResult* out, std::size_t n,
                              bool retry) {
  const auto moving = [&](std::size_t i) {
    return slots[i].step == Step::Move;
  };
  const auto retained = [&](std::size_t i) {
    return zero_copy_ && ops[i].copy_contents;
  };
  bool any_move = false;
  for (std::size_t i = 0; i < n && !any_move; ++i) any_move = moving(i);

  if (any_move) {
    // One clock read per op and step: each read closes the previous
    // op's interval, so the step times tile the batch's work.
    double t = now_s();
    const auto lap = [&t] {
      const double t1 = now_s();
      const double d = t1 - t;
      t = t1;
      return d;
    };

    // Step 1: create space on each destination (numa_alloc_onnode),
    // one lock section per destination tier.
    if (retry) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!moving(i)) continue;
        slots[i].dst = alloc_on(ops[i].dst, out[i].bytes, &out[i].pooled);
        out[i].alloc_s += lap();
        if (!slots[i].dst) slots[i].step = Step::Failed;
      }
    } else {
      for (TierId k = 0; k < arenas_.size(); ++k) {
        TierState& ts = *arenas_[k];
        std::unique_lock<std::mutex> lock(ts.mu, std::defer_lock);
        for (std::size_t i = 0; i < n; ++i) {
          if (!moving(i) || ops[i].dst != k) continue;
          if (!lock.owns_lock()) lock.lock();
          slots[i].dst = alloc_locked(ts, out[i].bytes, &out[i].pooled);
          out[i].alloc_s = lap();
          if (!slots[i].dst) slots[i].step = Step::Retry;
        }
      }
    }

    // Step 2: move the data, outside any lock so migrations of
    // distinct blocks overlap.  Skipped for write-only destinations.
    // Large copies stream through the ChunkRing so idle IO threads can
    // assist (several cores cooperating on one block).
    for (std::size_t i = 0; i < n; ++i) {
      if (!moving(i) || !ops[i].copy_contents) continue;
      MigrateResult& r = out[i];
      if (chunk_threshold_ > 0 && r.bytes >= chunk_threshold_) {
        if (on_chunked_copy_) on_chunked_copy_();
        const CopyOutcome co = ring_.run(slots[i].dst, slots[i].src, r.bytes);
        r.chunked = true;
        r.chunks = co.chunks;
        r.assisted_chunks = co.assisted_chunks;
      } else {
        copy(slots[i].dst, slots[i].src, r.bytes);
      }
      r.copy_s = lap();
    }

    // Step 3: free the source buffers (numa_free), one lock section
    // per source tier — except those zero-copy retention keeps as the
    // block's shadow for a later swap back.
    for (TierId k = 0; k < arenas_.size(); ++k) {
      TierState& ts = *arenas_[k];
      std::unique_lock<std::mutex> lock(ts.mu, std::defer_lock);
      for (std::size_t i = 0; i < n; ++i) {
        if (!moving(i) || slots[i].src_tier != k || retained(i)) continue;
        if (!lock.owns_lock()) lock.lock();
        free_locked(ts, slots[i].src, out[i].bytes);
        out[i].free_s = lap();
      }
    }
  }

  // Publish pointers, tiers and traffic in one closing section.  The
  // logical migration of a zero-copy swap counts too: traffic stats
  // stay identical with zero-copy on or off (equivalence contract).
  std::lock_guard lock(blocks_mu_);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    if (s.step == Step::Retry) continue; // still marked: retried next
    BlockRec& rec = blocks_[ops[i].block];
    rec.migrating = false;
    if (s.step == Step::Noop || s.step == Step::Failed) continue;
    if (s.step == Step::Move) {
      rec.ptr = s.dst;
      rec.tier = ops[i].dst;
      if (retained(i)) {
        HMR_DCHECK(rec.shadow == nullptr);
        rec.shadow = s.src;
        rec.shadow_tier = s.src_tier;
        shadow_bytes_[s.src_tier] += rec.bytes;
      }
      out[i].ok = true;
    }
    MigrationStats& st = stats_[s.src_tier * arenas_.size() + ops[i].dst];
    ++st.count;
    st.bytes += rec.bytes;
  }
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
                                     std::uint64_t chunk,
                                     std::function<void()> on_chunked_copy) {
  chunk_threshold_ = threshold;
  on_chunked_copy_ = std::move(on_chunked_copy);
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
  std::lock_guard lock(blocks_mu_);
  return stats_[src * arenas_.size() + dst];
}

PoolStats MemoryManager::pool_stats(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  const TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  return {ts.pool.hits(), ts.pool.misses()};
}

} // namespace hmr::mem
