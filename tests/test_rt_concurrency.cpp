// Concurrency tests for the runtime hot path: the work-stealing
// TierBudget, batched message delivery, and a multithreaded stress of
// the MultiIo configuration (PE and IO threads sharing one policy
// engine under its mutex).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ooc/tier_budget.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"

namespace hmr {
namespace {

// ---------------------------------------------------------------- budget

TEST(TierBudget, LocalClaimAndRelease) {
  ooc::TierBudget b(/*capacity=*/1000, /*num_shards=*/4);
  EXPECT_EQ(b.capacity(), 1000u);
  EXPECT_EQ(b.used(), 0u);
  EXPECT_TRUE(b.try_claim(0, 100));
  EXPECT_EQ(b.used(), 100u);
  b.release(0, 100);
  EXPECT_EQ(b.used(), 0u);
}

TEST(TierBudget, StealsAcrossShardsExactly) {
  // 4 shards x 250.  A 900-byte claim must gather from every shard.
  ooc::TierBudget b(1000, 4);
  EXPECT_TRUE(b.try_claim(1, 900));
  EXPECT_EQ(b.used(), 900u);
  EXPECT_GE(b.steals(), 1u);
  // Exactly 100 left node-wide: 101 fails, 100 succeeds.
  EXPECT_FALSE(b.try_claim(2, 101));
  EXPECT_EQ(b.used(), 900u); // failed claim restored every byte
  EXPECT_TRUE(b.try_claim(2, 100));
  EXPECT_EQ(b.used(), 1000u);
  b.release(1, 900);
  b.release(2, 100);
  EXPECT_EQ(b.used(), 0u);
}

TEST(TierBudget, UnevenCapacitySplitStillSumsToCapacity) {
  ooc::TierBudget b(1003, 4); // remainder lands on shard 0
  std::uint64_t total = 0;
  for (std::int32_t s = 0; s < b.num_shards(); ++s) {
    total += b.available(s);
  }
  EXPECT_EQ(total, 1003u);
  EXPECT_TRUE(b.try_claim(3, 1003));
  EXPECT_FALSE(b.try_claim(0, 1));
}

TEST(TierBudget, ConcurrentClaimReleaseConservesBytes) {
  ooc::TierBudget b(1 << 20, 8);
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&b, &go, t] {
      while (!go.load()) std::this_thread::yield();
      const std::int32_t home = t % b.num_shards();
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t n = 64 + static_cast<std::uint64_t>(
                                         (i * 37 + t * 101) % 4096);
        if (b.try_claim(home, n)) b.release(home, n);
      }
    });
  }
  go.store(true);
  for (auto& t : ts) t.join();
  EXPECT_EQ(b.used(), 0u); // every claimed byte came back
}

// --------------------------------------------------- runtime level tests

TEST(RtConcurrency, BatchedSendsExecuteInOrder) {
  rt::Runtime::Config cfg;
  cfg.num_pes = 1;
  cfg.mem_scale = 1.0 / 4096;
  rt::Runtime rt(cfg);
  std::vector<int> order;
  std::vector<rt::Runtime::Body> bodies;
  for (int i = 0; i < 64; ++i) {
    bodies.push_back([&order, i] { order.push_back(i); });
  }
  rt.send_batch(0, std::move(bodies));
  rt.wait_idle();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(RtConcurrency, PrefetchBatchRunsEveryTaskWithResidentData) {
  rt::Runtime::Config cfg;
  cfg.num_pes = 4;
  cfg.mem_scale = 1.0 / 4096; // 4 MiB fast tier
  rt::Runtime rt(cfg);

  constexpr int kBlocks = 16; // 16 x 512 KiB = 2x the fast tier
  std::vector<std::unique_ptr<rt::IoHandle<double>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    hs.push_back(
        std::make_unique<rt::IoHandle<double>>(rt, 64 * 1024));
  }
  const auto fast = cfg.model.fast;
  std::atomic<int> wrong_tier{0};
  std::atomic<int> ran{0};
  for (int pe = 0; pe < 4; ++pe) {
    std::vector<rt::Runtime::PrefetchMsg> batch;
    for (int t = 0; t < 24; ++t) {
      const int b = (pe * 24 + t) % kBlocks;
      rt::Runtime::PrefetchMsg m;
      m.deps = {hs[static_cast<std::size_t>(b)]->dep(
          ooc::AccessMode::ReadWrite)};
      m.body = [&, b] {
        if (rt.memory().block_tier(
                hs[static_cast<std::size_t>(b)]->id()) != fast) {
          wrong_tier.fetch_add(1);
        }
        ran.fetch_add(1);
      };
      batch.push_back(std::move(m));
    }
    rt.send_prefetch_batch(pe, std::move(batch));
  }
  rt.wait_idle();
  EXPECT_EQ(ran.load(), 96);
  EXPECT_EQ(wrong_tier.load(), 0);
  EXPECT_EQ(rt.tasks_executed(), 96u);
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, 96u);
  // Eager eviction at quiescence: nothing left in the fast tier.
  EXPECT_EQ(rt.memory().usage(fast).live_blocks, 0u);
}

TEST(RtConcurrency, StressSharedBlocksAcrossShards) {
  // Many concurrent senders, cross-PE shared dependences, repeated
  // idle barriers and block churn between rounds.  Exercises cross-PE
  // fetch dedup (fetch issued for PE a, waiter on PE b), the engine
  // lock under four PE and four IO threads and the atomic quiescence
  // counters.
  rt::Runtime::Config cfg;
  cfg.num_pes = 4;
  cfg.mem_scale = 1.0 / 8192; // 2 MiB fast tier: heavy churn
  rt::Runtime rt(cfg);

  constexpr int kRounds = 6;
  constexpr int kBlocks = 24;
  constexpr std::uint64_t kBytes = 128 * 1024;
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<mem::BlockId> blocks;
    for (int b = 0; b < kBlocks; ++b) {
      blocks.push_back(rt.alloc_block(kBytes));
    }
    std::vector<std::thread> senders;
    for (int pe = 0; pe < 4; ++pe) {
      senders.emplace_back([&, pe] {
        for (int t = 0; t < 16; ++t) {
          rt::Runtime::DepList deps = {
              {blocks[static_cast<std::size_t>((pe * 16 + t) % kBlocks)],
               ooc::AccessMode::ReadWrite},
              {blocks[static_cast<std::size_t>((pe * 16 + t + 5) %
                                               kBlocks)],
               ooc::AccessMode::ReadOnly}};
          rt.send_prefetch(pe, std::move(deps),
                           [&sum] { sum.fetch_add(1); });
        }
      });
    }
    for (auto& s : senders) s.join();
    expected += 4 * 16;
    rt.wait_idle();
    for (const auto b : blocks) rt.free_block(b);
  }
  EXPECT_EQ(sum.load(), expected);
  EXPECT_EQ(rt.tasks_executed(), expected);
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, expected);
  EXPECT_EQ(st.fetches, st.evicts); // every fetched block went home
}

TEST(RtConcurrency, ChunkedMigrationInsideTheRuntime) {
  // A block big enough to chunk (>= 1 MiB threshold) round-trips with
  // its contents intact while IO threads are free to assist.
  rt::Runtime::Config cfg;
  cfg.num_pes = 2;
  cfg.mem_scale = 1.0 / 1024; // 16 MiB fast tier
  ASSERT_GT(cfg.chunk_threshold, 0u);
  rt::Runtime rt(cfg);
  rt::IoHandle<std::uint64_t> h(rt, (4u << 20) / sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = i * 3 + 1;
  for (int t = 0; t < 4; ++t) {
    rt.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
      for (std::uint64_t i = 0; i < h.size(); ++i) h[i] += 1;
    });
    rt.wait_idle();
  }
  for (std::uint64_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h[i], i * 3 + 5);
  }
  // 4 fetches + 4 evicts of a 4 MiB block, all above the threshold.
  EXPECT_EQ(rt.memory().chunk_ring().jobs(), 8u);
}

} // namespace
} // namespace hmr
