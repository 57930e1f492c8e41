// Tests for the MemoryManager: numa-style allocation, block registry,
// migration (alloc + memcpy + free), pooling, and concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "mem/memory_manager.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hmr::mem {
namespace {

MemoryManager make_two_tier(bool pool = false) {
  return MemoryManager({{"DDR4", 8 * MiB}, {"MCDRAM", 2 * MiB}}, pool);
}

TEST(MemoryManager, RawAllocRespectsTierCapacity) {
  auto mm = make_two_tier();
  void* p = mm.alloc_on_tier(1 * MiB, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mm.alloc_on_tier(2 * MiB, 1), nullptr); // fast tier full
  EXPECT_NE(mm.alloc_on_tier(2 * MiB, 0), nullptr); // slow tier has room
  mm.free_on_tier(p, 1);
  EXPECT_EQ(mm.usage(1).used, 0u);
}

TEST(MemoryManager, FromModelScalesCapacities) {
  const auto model = hw::knl_flat_all_to_all();
  auto mm = MemoryManager::from_model(model, 1.0 / 1024);
  EXPECT_EQ(mm.usage(model.fast).capacity, 16 * MiB);
  EXPECT_EQ(mm.usage(model.slow).capacity, 96 * MiB);
}

TEST(MemoryManager, RegisterAndQueryBlock) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_NE(b, kInvalidBlock);
  EXPECT_EQ(mm.block_bytes(b), 256 * KiB);
  EXPECT_EQ(mm.block_tier(b), 0u);
  EXPECT_NE(mm.block_ptr(b), nullptr);
  mm.unregister_block(b);
}

TEST(MemoryManager, RegisterFailsWhenTierFull) {
  auto mm = make_two_tier();
  EXPECT_EQ(mm.register_block(4 * MiB, 1), kInvalidBlock);
}

TEST(MemoryManager, MigratePreservesContents) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(128 * KiB, 0);
  auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
  Xoshiro256 rng(3);
  std::vector<unsigned char> pattern(128 * KiB);
  for (auto& c : pattern) c = static_cast<unsigned char>(rng());
  std::memcpy(p, pattern.data(), pattern.size());

  const auto r = mm.migrate(b, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(mm.block_tier(b), 1u);
  auto* q = static_cast<unsigned char*>(mm.block_ptr(b));
  EXPECT_NE(q, p);
  EXPECT_EQ(std::memcmp(q, pattern.data(), pattern.size()), 0);

  // Round trip back.
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), pattern.data(), pattern.size()), 0);
}

TEST(MemoryManager, MigrateMovesCapacityAccounting) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(512 * KiB, 0);
  EXPECT_EQ(mm.usage(0).used, 512 * KiB);
  EXPECT_EQ(mm.usage(1).used, 0u);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_EQ(mm.usage(0).used, 0u);
  EXPECT_EQ(mm.usage(1).used, 512 * KiB);
}

TEST(MemoryManager, MigrateToFullTierFailsCleanly) {
  auto mm = make_two_tier();
  const BlockId filler = mm.register_block(2 * MiB, 1);
  ASSERT_NE(filler, kInvalidBlock);
  const BlockId b = mm.register_block(512 * KiB, 0);
  const auto r = mm.migrate(b, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(mm.block_tier(b), 0u); // untouched
  EXPECT_EQ(mm.usage(0).used, 512 * KiB);
}

TEST(MemoryManager, MigrateToSameTierIsNoop) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  void* before = mm.block_ptr(b);
  const auto r = mm.migrate(b, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(mm.block_ptr(b), before);
}

TEST(MemoryManager, MigrationStatsTracked) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(mm.migration_stats(0, 1).count, 1u);
  EXPECT_EQ(mm.migration_stats(0, 1).bytes, 64 * KiB);
  EXPECT_EQ(mm.migration_stats(1, 0).count, 1u);
}

// Fills block `b` with a pattern unique to (b, salt).
void fill(MemoryManager& mm, BlockId b, std::uint64_t salt) {
  auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
  Xoshiro256 rng(b * 7919 + salt);
  for (std::uint64_t i = 0; i < mm.block_bytes(b); ++i) {
    p[i] = static_cast<unsigned char>(rng());
  }
}

std::vector<unsigned char> contents(const MemoryManager& mm, BlockId b) {
  const auto* p = static_cast<const unsigned char*>(mm.block_ptr(b));
  return {p, p + mm.block_bytes(b)};
}

void expect_same_usage(const MemoryManager& a, const MemoryManager& b,
                       TierId t) {
  const TierUsage ua = a.usage(t);
  const TierUsage ub = b.usage(t);
  EXPECT_EQ(ua.capacity, ub.capacity);
  EXPECT_EQ(ua.used, ub.used) << "tier " << t;
  EXPECT_EQ(ua.pooled, ub.pooled) << "tier " << t;
  EXPECT_EQ(ua.shadow, ub.shadow) << "tier " << t;
  EXPECT_EQ(ua.high_water, ub.high_water) << "tier " << t;
  EXPECT_EQ(ua.live_blocks, ub.live_blocks) << "tier " << t;
}

// A batch is the same migrations, only with shared lock sections.
// Blocks of one size always move together, in one direction, so no op
// of a batch can reuse a buffer another op of it parks in the pool:
// the pooled run's hit/miss sequence is then the sequential one too.
TEST(MemoryManager, BatchMatchesSequentialMigrations) {
  constexpr std::uint64_t kSizes[] = {1 * KiB, 16 * KiB, 48 * KiB,
                                      80 * KiB};
  constexpr int kPerSize = 3;
  auto batched = make_two_tier(/*pool=*/true);
  auto serial = make_two_tier(/*pool=*/true);
  std::vector<BlockId> ids;
  for (const std::uint64_t sz : kSizes) {
    for (int i = 0; i < kPerSize; ++i) {
      const BlockId b = batched.register_block(sz, 0);
      ASSERT_EQ(serial.register_block(sz, 0), b);
      fill(batched, b, 1);
      fill(serial, b, 1);
      ids.push_back(b);
    }
  }
  Xoshiro256 rng(11);
  for (int round = 0; round < 40; ++round) {
    // A random nonempty set of size classes changes tier: a batch of
    // fetches (0 -> 1) and evictions (1 -> 0) in shuffled order.
    const unsigned mask = 1 + static_cast<unsigned>(rng() % 15);
    std::vector<MigrateOp> ops;
    for (const BlockId b : ids) {
      if ((mask >> (b / kPerSize) & 1u) == 0) continue;
      ops.push_back({b, batched.block_tier(b) == 0 ? TierId{1} : TierId{0}});
    }
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[static_cast<std::size_t>(rng() % i)]);
    }
    std::vector<MigrateResult> res(ops.size());
    batched.migrate_batch(ops, res);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const MigrateResult one = serial.migrate(ops[i].block, ops[i].dst);
      ASSERT_TRUE(res[i].ok);
      ASSERT_TRUE(one.ok);
      EXPECT_EQ(res[i].bytes, one.bytes);
      EXPECT_EQ(res[i].pooled, one.pooled);
      EXPECT_FALSE(res[i].chunked || res[i].zero_copy);
    }
    for (const BlockId b : ids) {
      ASSERT_EQ(batched.block_tier(b), serial.block_tier(b));
      ASSERT_EQ(contents(batched, b), contents(serial, b)) << "block " << b;
    }
    for (TierId t = 0; t < 2; ++t) {
      expect_same_usage(batched, serial, t);
      EXPECT_EQ(batched.pool_stats(t).hits, serial.pool_stats(t).hits);
      EXPECT_EQ(batched.pool_stats(t).misses, serial.pool_stats(t).misses);
      for (TierId u = 0; u < 2; ++u) {
        EXPECT_EQ(batched.migration_stats(t, u).count,
                  serial.migration_stats(t, u).count);
        EXPECT_EQ(batched.migration_stats(t, u).bytes,
                  serial.migration_stats(t, u).bytes);
      }
    }
  }
  EXPECT_GT(batched.pool_stats(1).hits, 0u);
}

// An untimed batch reads no clock and leaves every step time 0;
// everything else — results, placements, shadows, pool and traffic
// stats — is the timed batch's.  migrate() stays timed.
TEST(MemoryManager, UntimedBatchMatchesTimed) {
  constexpr std::uint64_t kSizes[] = {1 * KiB, 16 * KiB, 80 * KiB};
  constexpr int kPerSize = 3;
  MemoryManager timed = make_two_tier(/*pool=*/true);
  MemoryManager untimed = make_two_tier(/*pool=*/true);
  // Each tier's first allocation sits at its arena's base: pointers
  // are compared as offsets from it.
  std::uintptr_t base[2][2];
  MemoryManager* mms[2] = {&timed, &untimed};
  for (int m = 0; m < 2; ++m) {
    mms[m]->set_zero_copy(true);
    mms[m]->set_chunked_copy(64 * KiB, 16 * KiB);
    for (TierId t = 0; t < 2; ++t) {
      void* p = mms[m]->alloc_on_tier(64, t);
      base[m][t] = reinterpret_cast<std::uintptr_t>(p);
      mms[m]->free_on_tier(p, t);
    }
  }
  std::vector<BlockId> ids;
  for (const std::uint64_t sz : kSizes) {
    for (int i = 0; i < kPerSize; ++i) {
      const BlockId b = timed.register_block(sz, 0);
      ASSERT_EQ(untimed.register_block(sz, 0), b);
      fill(timed, b, 1);
      fill(untimed, b, 1);
      ids.push_back(b);
    }
  }
  const auto offset = [&](int m, BlockId b) {
    const MemoryManager& mm = *mms[m];
    return reinterpret_cast<std::uintptr_t>(mm.block_ptr(b)) -
           base[m][mm.block_tier(b)];
  };
  Xoshiro256 rng(23);
  double timed_work = 0;
  for (int round = 0; round < 40; ++round) {
    // A random set of blocks changes tier; some moves are write-only
    // (no copy, no retained shadow), and the writer then rewrites the
    // block in both managers.
    std::vector<MigrateOp> ops;
    for (const BlockId b : ids) {
      if (rng() % 2 == 0) continue;
      const TierId dst = timed.block_tier(b) == 0 ? TierId{1} : TierId{0};
      ops.push_back({b, dst, rng() % 4 != 0});
    }
    std::vector<MigrateResult> rt(ops.size()), ru(ops.size());
    timed.migrate_batch(ops, rt);
    untimed.migrate_batch(ops, ru, /*timed=*/false);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "round " << round << " op " << i);
      EXPECT_TRUE(rt[i].ok);
      EXPECT_EQ(ru[i].ok, rt[i].ok);
      EXPECT_EQ(ru[i].bytes, rt[i].bytes);
      EXPECT_EQ(ru[i].pooled, rt[i].pooled);
      EXPECT_EQ(ru[i].zero_copy, rt[i].zero_copy);
      EXPECT_EQ(ru[i].chunked, rt[i].chunked);
      EXPECT_EQ(ru[i].chunks, rt[i].chunks);
      EXPECT_EQ(ru[i].alloc_s, 0.0);
      EXPECT_EQ(ru[i].copy_s, 0.0);
      EXPECT_EQ(ru[i].free_s, 0.0);
      timed_work += rt[i].total();
      if (!ops[i].copy_contents) {
        fill(timed, ops[i].block, 100 + round);
        fill(untimed, ops[i].block, 100 + round);
      }
    }
    for (const BlockId b : ids) {
      ASSERT_EQ(untimed.block_tier(b), timed.block_tier(b));
      ASSERT_EQ(offset(1, b), offset(0, b)) << "block " << b;
      ASSERT_EQ(contents(untimed, b), contents(timed, b)) << "block " << b;
    }
    for (TierId t = 0; t < 2; ++t) {
      expect_same_usage(untimed, timed, t); // shadow bytes included
      EXPECT_EQ(untimed.pool_stats(t).hits, timed.pool_stats(t).hits);
      EXPECT_EQ(untimed.pool_stats(t).misses, timed.pool_stats(t).misses);
      for (TierId u = 0; u < 2; ++u) {
        EXPECT_EQ(untimed.migration_stats(t, u).count,
                  timed.migration_stats(t, u).count);
        EXPECT_EQ(untimed.migration_stats(t, u).bytes,
                  timed.migration_stats(t, u).bytes);
      }
    }
    EXPECT_EQ(untimed.zero_copy_admissions(), timed.zero_copy_admissions());
    EXPECT_EQ(untimed.shadow_invalidations(), timed.shadow_invalidations());
  }
  EXPECT_GT(timed_work, 0.0);
  EXPECT_GT(timed.zero_copy_admissions(), 0u);
  EXPECT_GT(timed.chunk_ring().jobs(), 0u);

  // A single migrate() is a timed batch: a copying move fills its
  // step times.
  const BlockId big = ids.back();
  untimed.mark_dirty(big); // no shadow: the move really copies
  const TierId dst = untimed.block_tier(big) == 0 ? TierId{1} : TierId{0};
  const MigrateResult one = untimed.migrate(big, dst);
  ASSERT_TRUE(one.ok);
  EXPECT_FALSE(one.zero_copy);
  EXPECT_GT(one.copy_s, 0.0);
  EXPECT_GT(one.total(), 0.0);
}

// The allocation pass runs before any source is freed, so on a full
// tier a fetch placed behind an eviction from that tier can only fit
// on the retry.  An op that still does not fit fails alone and leaves
// its block untouched.
TEST(MemoryManager, BatchRetriesAllocationAfterItsFrees) {
  for (const bool pool : {false, true}) {
    SCOPED_TRACE(pool ? "pooled" : "unpooled");
    MemoryManager mm({{"DDR4", 1 * MiB}, {"MCDRAM", 64 * KiB}}, pool);
    const BlockId out = mm.register_block(64 * KiB, 1); // fills the tier
    const BlockId in = mm.register_block(64 * KiB, 0);
    const BlockId late = mm.register_block(32 * KiB, 0);
    for (const BlockId b : {out, in, late}) fill(mm, b, 2);
    const auto in_ref = contents(mm, in);
    const auto out_ref = contents(mm, out);
    const auto late_ref = contents(mm, late);

    const MigrateOp ops[] = {{in, 1}, {out, 0}, {late, 1}};
    MigrateResult res[3];
    mm.migrate_batch(ops, res);
    EXPECT_TRUE(res[0].ok);
    EXPECT_TRUE(res[1].ok);
    EXPECT_FALSE(res[2].ok); // the tier is full again after the retry
    EXPECT_EQ(res[2].bytes, 32 * KiB);
    EXPECT_EQ(mm.block_tier(in), 1u);
    EXPECT_EQ(mm.block_tier(out), 0u);
    EXPECT_EQ(mm.block_tier(late), 0u);
    EXPECT_EQ(contents(mm, in), in_ref);
    EXPECT_EQ(contents(mm, out), out_ref);
    EXPECT_EQ(contents(mm, late), late_ref);
    EXPECT_EQ(mm.usage(1).used, 64 * KiB);
    EXPECT_EQ(mm.migration_stats(0, 1).count, 1u);
    EXPECT_EQ(mm.migration_stats(1, 0).count, 1u);
    // The failed op left no mark: it migrates once there is room.
    ASSERT_TRUE(mm.migrate(in, 0).ok);
    ASSERT_TRUE(mm.migrate(late, 1).ok);
    EXPECT_EQ(contents(mm, late), late_ref);
  }
}

TEST(MemoryManager, PoolReusesBuffers) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok); // slow buffer parked in pool
  EXPECT_EQ(mm.usage(0).pooled, 256 * KiB);
  const auto r = mm.migrate(b, 0); // should hit the pool
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.pooled);
}

TEST(MemoryManager, PooledBytesYieldToAllocation) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId a = mm.register_block(1 * MiB, 1);
  const BlockId b = mm.register_block(1 * MiB, 1);
  ASSERT_TRUE(mm.migrate(a, 0).ok);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  // Both fast-tier buffers are parked: reusable, but not in use.
  EXPECT_EQ(mm.usage(1).pooled, 2 * MiB);
  EXPECT_EQ(mm.usage(1).used, 0u);
  EXPECT_EQ(mm.usage(1).live_blocks, 0u);

  // No parked buffer has this size, and it fits only once the two
  // 1 MiB buffers go back to the arena and coalesce.
  const BlockId c = mm.register_block(1536 * KiB, 1);
  ASSERT_NE(c, kInvalidBlock);
  EXPECT_EQ(mm.usage(1).pooled, 0u);
  EXPECT_EQ(mm.usage(1).used, 1536 * KiB);
  EXPECT_EQ(mm.usage(1).live_blocks, 1u);
}

TEST(MemoryManager, ConcurrentMigrationsOfDistinctBlocks) {
  MemoryManager mm({{"DDR4", 32 * MiB}, {"MCDRAM", 32 * MiB}}, false);
  constexpr int kBlocks = 16;
  std::vector<BlockId> ids;
  for (int i = 0; i < kBlocks; ++i) {
    const BlockId b = mm.register_block(256 * KiB, 0);
    ASSERT_NE(b, kInvalidBlock);
    auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
    std::memset(p, i + 1, 256 * KiB);
    ids.push_back(b);
  }
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kBlocks; i += 4) {
        const BlockId b = ids[static_cast<std::size_t>(i)];
        for (int round = 0; round < 8; ++round) {
          ASSERT_TRUE(mm.migrate(b, 1).ok);
          ASSERT_TRUE(mm.migrate(b, 0).ok);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kBlocks; ++i) {
    auto* p = static_cast<unsigned char*>(
        mm.block_ptr(ids[static_cast<std::size_t>(i)]));
    for (std::size_t j = 0; j < 256 * KiB; j += 4096) {
      ASSERT_EQ(p[j], i + 1);
    }
  }
}

// The pool is a cache: buffers parked by one thread never make another
// thread's migration of a different size fail.  Each thread keeps at
// most one block on the fast tier, inside a shared byte budget; the
// tier holds the budget plus the worst first-fit split one resident
// block can cause (a + 2b for sizes a, b), so only pooled bytes could
// stand in the way.
//
// Batched, each step is one batch that fetches the thread's next block
// and evicts its previous one, with no budget: a fetch that finds no
// room is retried once the eviction's source is back, and then meets
// at most the other thread's two blocks (128 KiB in three holes), so
// a tier of 128 KiB + 3 x 80 KiB always has room for it.
TEST(MemoryManager, ConcurrentPooledMigrationsNeverFail) {
  constexpr std::uint64_t kSizes[] = {16 * KiB, 48 * KiB, 80 * KiB};
  constexpr int kThreads = 2;
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "one at a time");
    const std::uint64_t fast = batched ? 368 * KiB : 208 * KiB;
    MemoryManager mm({{"DDR4", 8 * MiB}, {"MCDRAM", fast}},
                     /*enable_pool=*/true);
    std::vector<std::vector<BlockId>> blocks(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (const std::uint64_t sz : kSizes) {
        const BlockId b = mm.register_block(sz, 0);
        ASSERT_NE(b, kInvalidBlock);
        std::memset(mm.block_ptr(b), static_cast<int>(b + 1), sz);
        blocks[static_cast<std::size_t>(t)].push_back(b);
      }
    }
    std::atomic<std::int64_t> budget{128 * KiB};
    std::atomic<int> failures{0};
    const auto intact = [&mm](BlockId b, std::uint64_t bytes) {
      const auto* p = static_cast<const unsigned char*>(mm.block_ptr(b));
      return p[0] == static_cast<unsigned char>(b + 1) &&
             p[bytes - 1] == static_cast<unsigned char>(b + 1);
    };
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const auto& own = blocks[static_cast<std::size_t>(t)];
        std::size_t prev = own.size(); // none resident yet
        for (int it = 0; it < 3000; ++it) {
          // The two threads walk the sizes in opposite orders so the
          // pool always holds sizes the other thread is not asking for.
          const std::size_t k =
              t == 0 ? static_cast<std::size_t>(it) % own.size()
                     : own.size() - 1 -
                           static_cast<std::size_t>(it) % own.size();
          const BlockId b = own[k];
          if (batched) {
            std::vector<MigrateOp> ops{{b, 1}};
            if (prev < own.size()) ops.push_back({own[prev], 0});
            std::vector<MigrateResult> res(ops.size());
            mm.migrate_batch(ops, res);
            for (const MigrateResult& r : res) {
              if (!r.ok) failures.fetch_add(1);
            }
            if (!intact(b, kSizes[k])) failures.fetch_add(1);
            prev = k;
            continue;
          }
          const auto need = static_cast<std::int64_t>(kSizes[k]);
          std::int64_t avail = budget.load();
          while (avail < need ||
                 !budget.compare_exchange_weak(avail, avail - need)) {
            if (avail < need) std::this_thread::yield();
            avail = budget.load();
          }
          if (!mm.migrate(b, 1).ok) failures.fetch_add(1);
          if (!intact(b, kSizes[k])) failures.fetch_add(1);
          if (!mm.migrate(b, 0).ok) failures.fetch_add(1);
          budget.fetch_add(need);
        }
        if (prev < own.size() && !mm.migrate(own[prev], 0).ok) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mm.usage(1).used, 0u);
    EXPECT_EQ(mm.usage(1).live_blocks, 0u);
    EXPECT_LE(mm.usage(1).pooled, mm.usage(1).capacity);
    EXPECT_GT(mm.pool_stats(1).hits, 0u);
  }
}

// ------------------------------------------------ zero-copy admission

TEST(MemoryManagerZeroCopy, RoundTripMigrationBecomesSwap) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(256 * KiB, 0);
  auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
  std::memset(p, 0x5A, 256 * KiB);

  // First hop copies (no shadow yet) but retains the source buffer.
  const auto up = mm.migrate(b, 1);
  ASSERT_TRUE(up.ok);
  EXPECT_FALSE(up.zero_copy);
  EXPECT_EQ(mm.usage(0).shadow, 256 * KiB);

  // The hop back lands where the shadow lives: pointer swap, no copy.
  const auto down = mm.migrate(b, 0);
  ASSERT_TRUE(down.ok);
  EXPECT_TRUE(down.zero_copy);
  EXPECT_EQ(mm.zero_copy_admissions(), 1u);
  EXPECT_EQ(mm.zero_copy_bytes(), 256 * KiB);

  // Data must be byte-identical through the swap.
  p = static_cast<unsigned char*>(mm.block_ptr(b));
  for (std::size_t i = 0; i < 256 * KiB; i += 997) ASSERT_EQ(p[i], 0x5A);

  // Ping-pong stays zero-copy: the displaced buffer is the new shadow.
  EXPECT_TRUE(mm.migrate(b, 1).zero_copy);
  EXPECT_TRUE(mm.migrate(b, 0).zero_copy);
  EXPECT_EQ(mm.zero_copy_admissions(), 3u);

  // Inside one batch: a swap, a copy that retains its source, and a
  // write-only move whose source is dropped (its contents go stale).
  const BlockId c = mm.register_block(64 * KiB, 0);
  const BlockId w = mm.register_block(32 * KiB, 0);
  std::memset(mm.block_ptr(c), 0x3C, 64 * KiB);
  const MigrateOp up_ops[] = {{b, 1}, {c, 1}, {w, 1, false}};
  MigrateResult up_res[3];
  mm.migrate_batch(up_ops, up_res);
  EXPECT_TRUE(up_res[0].ok && up_res[0].zero_copy);
  EXPECT_TRUE(up_res[1].ok && !up_res[1].zero_copy);
  EXPECT_TRUE(up_res[2].ok && !up_res[2].zero_copy);
  EXPECT_EQ(up_res[2].copy_s, 0.0);
  EXPECT_EQ(mm.usage(0).shadow, 256 * KiB + 64 * KiB);
  EXPECT_EQ(mm.migration_stats(0, 1).count, 5u);

  // And back: both retained residences are swapped in.
  const MigrateOp down_ops[] = {{b, 0}, {c, 0}, {w, 0}};
  MigrateResult down_res[3];
  mm.migrate_batch(down_ops, down_res);
  EXPECT_TRUE(down_res[0].zero_copy && down_res[1].zero_copy);
  EXPECT_FALSE(down_res[2].zero_copy);
  EXPECT_EQ(mm.zero_copy_admissions(), 6u);
  p = static_cast<unsigned char*>(mm.block_ptr(b));
  for (std::size_t i = 0; i < 256 * KiB; i += 997) ASSERT_EQ(p[i], 0x5A);
  p = static_cast<unsigned char*>(mm.block_ptr(c));
  for (std::size_t i = 0; i < 64 * KiB; i += 997) ASSERT_EQ(p[i], 0x3C);
}

TEST(MemoryManagerZeroCopy, LogicalStatsMatchCopyingRun) {
  // The equivalence contract: migration_stats() counts logical moves,
  // so a zero-copy run reports exactly what the copying run would.
  auto run = [](bool zc) {
    auto mm = make_two_tier();
    mm.set_zero_copy(zc);
    const BlockId b = mm.register_block(128 * KiB, 0);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(mm.migrate(b, 1).ok);
      EXPECT_TRUE(mm.migrate(b, 0).ok);
    }
    return std::pair{mm.migration_stats(0, 1), mm.migration_stats(1, 0)};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.first.count, on.first.count);
  EXPECT_EQ(off.first.bytes, on.first.bytes);
  EXPECT_EQ(off.second.count, on.second.count);
  EXPECT_EQ(off.second.bytes, on.second.bytes);
}

TEST(MemoryManagerZeroCopy, MarkDirtyInvalidatesShadow) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  std::memset(mm.block_ptr(b), 1, 64 * KiB);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_EQ(mm.usage(0).shadow, 64 * KiB);

  // A write makes the shadow stale; the next hop must copy.
  std::memset(mm.block_ptr(b), 2, 64 * KiB);
  mm.mark_dirty(b);
  EXPECT_EQ(mm.shadow_invalidations(), 1u);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  const auto down = mm.migrate(b, 0);
  ASSERT_TRUE(down.ok);
  EXPECT_FALSE(down.zero_copy);
  EXPECT_EQ(static_cast<unsigned char*>(mm.block_ptr(b))[0], 2);
}

TEST(MemoryManagerZeroCopy, MarkDirtyWithoutShadowIsANoop) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  mm.mark_dirty(b);
  EXPECT_EQ(mm.shadow_invalidations(), 0u);
}

TEST(MemoryManagerZeroCopy, ShadowsAreReclaimedUnderPressure) {
  // Fast tier: 2 MiB.  Park a 1 MiB shadow there, then demand more
  // fast memory than remains free — the shadow must be sacrificed
  // rather than failing the allocation.
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId a = mm.register_block(1 * MiB, 1);
  ASSERT_TRUE(mm.migrate(a, 0).ok); // leaves a 1 MiB shadow on fast
  ASSERT_EQ(mm.usage(1).shadow, 1 * MiB);

  const BlockId b = mm.register_block(1536 * KiB, 1);
  ASSERT_NE(b, kInvalidBlock);
  EXPECT_EQ(mm.usage(1).shadow, 0u); // reclaimed to make room
  EXPECT_GE(mm.shadow_invalidations(), 1u);
  mm.unregister_block(b);
  mm.unregister_block(a);
}

TEST(MemoryManagerZeroCopy, UnregisterFreesShadowCapacity) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(512 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_EQ(mm.usage(0).shadow, 512 * KiB);
  mm.unregister_block(b);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  EXPECT_EQ(mm.usage(0).used, 0u);
  EXPECT_EQ(mm.usage(1).used, 0u);
}

// Shadows are a cache: a caller that never holds more fast-tier
// primaries than the tier fits (the policy engine's budget contract)
// must never see a migration fail, even while other threads reclaim
// or drop shadows on the same tier.
TEST(MemoryManagerZeroCopy, ConcurrentReclaimNeverFailsBudgetedMigration) {
  constexpr std::uint64_t kBytes = 64 * KiB;
  constexpr int kSlots = 4; // fast-tier primaries the budget allows
  constexpr int kThreads = 4;
  constexpr int kBlocksPerThread = 4;
  MemoryManager mm({{"DDR4", 8 * MiB}, {"MCDRAM", kSlots * kBytes}});
  mm.set_zero_copy(true);
  std::vector<std::vector<BlockId>> blocks(kThreads);
  for (auto& own : blocks) {
    for (int i = 0; i < kBlocksPerThread; ++i) {
      own.push_back(mm.register_block(kBytes, 0));
    }
  }
  std::atomic<int> budget{kSlots};
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int it = 0; it < 10000; ++it) {
        const BlockId b =
            blocks[static_cast<std::size_t>(t)]
                  [static_cast<std::size_t>(it % kBlocksPerThread)];
        int avail = budget.load();
        while (avail == 0 || !budget.compare_exchange_weak(avail, avail - 1)) {
          if (avail == 0) std::this_thread::yield();
          avail = budget.load();
        }
        if (!mm.migrate(b, 1).ok) failures.fetch_add(1);
        if (it % 3 == 0) mm.mark_dirty(b);
        if (!mm.migrate(b, 0).ok) failures.fetch_add(1);
        budget.fetch_add(1);
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(mm.usage(1).used, kSlots * kBytes);
}

TEST(MemoryManagerZeroCopy, DisabledManagerNeverRetains) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(128 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(mm.zero_copy_admissions(), 0u);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  EXPECT_EQ(mm.usage(1).shadow, 0u);
}

TEST(MemoryManager, DeadBlockAccessDies) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  mm.unregister_block(b);
  EXPECT_DEATH((void)mm.block_ptr(b), "dead block");
  EXPECT_DEATH((void)mm.migrate(b, 1), "dead block");
}

TEST(MemoryManager, RepeatedBlockInOneBatchDies) {
  auto mm = make_two_tier();
  const BlockId a = mm.register_block(64 * KiB, 0);
  const BlockId b = mm.register_block(64 * KiB, 0);
  const MigrateOp ops[] = {{a, 1}, {b, 1}, {a, 0}};
  MigrateResult res[3];
  EXPECT_DEATH(mm.migrate_batch(ops, res),
               "concurrent migration of one block");
}

TEST(MemoryManager, BadTierDies) {
  auto mm = make_two_tier();
  EXPECT_DEATH((void)mm.alloc_on_tier(64, 7), "bad tier");
}

} // namespace
} // namespace hmr::mem
