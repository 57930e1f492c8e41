// Tests for the MemoryManager: numa-style allocation, block registry,
// migration (alloc + memcpy + free), pooling, and concurrency.

#include <gtest/gtest.h>

#include <atomic>
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

TEST(MemoryManager, PoolReusesBuffers) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok); // slow buffer parked in pool
  EXPECT_EQ(mm.usage(0).pooled, 256 * KiB);
  const auto r = mm.migrate(b, 0); // should hit the pool
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.pooled);
}

TEST(MemoryManager, PooledBytesOccupyCapacity) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId b = mm.register_block(1 * MiB, 1);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  // The fast-tier buffer is parked, still holding capacity.
  EXPECT_EQ(mm.usage(1).pooled, 1 * MiB);
  EXPECT_EQ(mm.usage(1).used, 1 * MiB);
  mm.trim_pools();
  EXPECT_EQ(mm.usage(1).pooled, 0u);
  EXPECT_EQ(mm.usage(1).used, 0u);
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

TEST(MemoryManager, BadTierDies) {
  auto mm = make_two_tier();
  EXPECT_DEATH((void)mm.alloc_on_tier(64, 7), "bad tier");
}

} // namespace
} // namespace hmr::mem
