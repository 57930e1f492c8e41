// ChunkRing + chunked MemoryManager::migrate: integrity over odd
// sizes and chunk-boundary off-by-ones, helper cooperation,
// cancellation mid-stream, and slot recycling.

#include "mem/chunked_copy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "mem/memory_manager.hpp"

namespace hmr::mem {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return v;
}

TEST(ChunkRing, CopiesExactlyOddSizesAndBoundaries) {
  ChunkRing ring(/*chunk_bytes=*/1024);
  // Sub-chunk, exact multiples, one-off either side of a boundary,
  // odd primes: every size must round-trip bit-exactly.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{1023}, std::size_t{1024},
        std::size_t{1025}, std::size_t{4096}, std::size_t{4097},
        std::size_t{10239}, std::size_t{10240}, std::size_t{10241},
        std::size_t{65521}}) {
    const auto src = pattern(n);
    std::vector<std::uint8_t> dst(n, 0);
    const CopyOutcome out = ring.run(dst.data(), src.data(), n);
    EXPECT_FALSE(out.cancelled) << n;
    EXPECT_EQ(out.chunks, (n + 1023) / 1024) << n;
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), n), 0) << n;
  }
}

TEST(ChunkRing, ZeroBytesIsANoop) {
  ChunkRing ring(64);
  const CopyOutcome out = ring.run(nullptr, nullptr, 0);
  EXPECT_EQ(out.chunks, 0u);
  EXPECT_FALSE(out.cancelled);
}

TEST(ChunkRing, HelpersCarryChunksAndDataStaysIntact) {
  ChunkRing ring(/*chunk_bytes=*/4096);
  const std::size_t n = 6 * 1024 * 1024 + 777;
  const auto src = pattern(n);
  std::vector<std::uint8_t> dst(n, 0);

  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;
  for (int h = 0; h < 3; ++h) {
    helpers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (ring.assist() == 0) std::this_thread::yield();
      }
    });
  }
  // Several jobs back to back through the same slots.
  for (int rep = 0; rep < 4; ++rep) {
    std::memset(dst.data(), 0, n);
    const CopyOutcome out = ring.run(dst.data(), src.data(), n);
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.chunks, (n + 4095) / 4096);
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), n), 0);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();
  // Owner + helpers together copied every chunk of every job.
  EXPECT_EQ(ring.chunks_copied(), 4 * ((n + 4095) / 4096));
  EXPECT_EQ(ring.jobs(), 4u);
}

TEST(ChunkRing, ConcurrentOwnersShareTheRing) {
  ChunkRing ring(/*chunk_bytes=*/2048);
  const std::size_t n = 512 * 1024 + 13;
  const auto src = pattern(n);
  constexpr int kOwners = 4;
  std::vector<std::vector<std::uint8_t>> dsts(
      kOwners, std::vector<std::uint8_t>(n, 0));
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o] {
      const CopyOutcome out = ring.run(dsts[o].data(), src.data(), n);
      EXPECT_FALSE(out.cancelled);
    });
  }
  for (auto& t : owners) t.join();
  for (int o = 0; o < kOwners; ++o) {
    ASSERT_EQ(std::memcmp(dsts[o].data(), src.data(), n), 0) << o;
  }
}

TEST(ChunkRing, CancellationStopsMidStreamAndRingStaysUsable) {
  ChunkRing ring(/*chunk_bytes=*/256);
  const std::size_t n = 1024 * 1024;
  const auto src = pattern(n);
  std::vector<std::uint8_t> dst(n, 0);

  // Pre-set flag: no chunk may be claimed at all.
  std::atomic<bool> cancel{true};
  CopyOutcome out = ring.run(dst.data(), src.data(), n, &cancel);
  EXPECT_TRUE(out.cancelled);
  EXPECT_EQ(out.chunks, 0u);

  // Flag tripped by a racing thread: the copy stops early (or, at
  // worst, completes); either way the call returns and the ring is
  // reusable.  Copied chunks form a prefix.
  cancel.store(false);
  std::thread trip([&] { cancel.store(true, std::memory_order_release); });
  out = ring.run(dst.data(), src.data(), n, &cancel);
  trip.join();
  EXPECT_LE(out.chunks, n / 256);
  if (!out.cancelled) {
    EXPECT_EQ(out.chunks, n / 256);
  }

  // The ring must be fully recycled: an uncancelled copy still works.
  std::memset(dst.data(), 0, n);
  std::atomic<bool> no_cancel{false};
  out = ring.run(dst.data(), src.data(), n, &no_cancel);
  EXPECT_FALSE(out.cancelled);
  ASSERT_EQ(std::memcmp(dst.data(), src.data(), n), 0);
}

TEST(ChunkRing, FallbackCounterMatchesFlaggedOutcomes) {
  // More concurrent owners than kSlots: whichever jobs find the ring
  // full must (a) flag ring_fallback on their outcome, (b) advance the
  // cumulative counter by exactly the number of flagged outcomes, and
  // (c) still copy bit-exactly.  Whether any fallback actually occurs
  // is scheduler-dependent (a single-core host may serialize the
  // owners), so only the consistency of the three is asserted.
  ChunkRing ring(/*chunk_bytes=*/1024);
  const std::size_t n = 2 * 1024 * 1024 + 7;
  const auto src = pattern(n);
  constexpr int kOwners = static_cast<int>(ChunkRing::kSlots) + 8;
  std::vector<std::vector<std::uint8_t>> dsts(
      kOwners, std::vector<std::uint8_t>(n, 0));
  std::atomic<int> flagged{0};
  const std::uint64_t before = ring.ring_fallbacks();
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o] {
      const CopyOutcome out = ring.run(dsts[o].data(), src.data(), n);
      EXPECT_FALSE(out.cancelled);
      if (out.ring_fallback) flagged.fetch_add(1);
    });
  }
  for (auto& t : owners) t.join();
  EXPECT_EQ(ring.ring_fallbacks() - before,
            static_cast<std::uint64_t>(flagged.load()));
  for (int o = 0; o < kOwners; ++o) {
    ASSERT_EQ(std::memcmp(dsts[o].data(), src.data(), n), 0) << o;
  }
}

TEST(ChunkRing, SmallAndRingCopiesAreNotFallbacks) {
  ChunkRing ring(/*chunk_bytes=*/1024);
  const auto src = pattern(8192);
  std::vector<std::uint8_t> dst(8192, 0);
  // Sub-chunk bypass: not a fallback.
  CopyOutcome out = ring.run(dst.data(), src.data(), 512);
  EXPECT_FALSE(out.ring_fallback);
  // Uncontended ring copy: not a fallback.
  out = ring.run(dst.data(), src.data(), 8192);
  EXPECT_FALSE(out.ring_fallback);
  EXPECT_EQ(ring.ring_fallbacks(), 0u);
}

TEST(ChunkedMigrate, RoundTripIntegrityThroughMemoryManager) {
  const std::uint64_t n = 4 * 1024 * 1024 + 321; // odd size, > threshold
  MemoryManager mm({{"fast", 8u << 20}, {"slow", 8u << 20}});
  int wakes = 0;
  mm.set_chunked_copy(/*threshold=*/1u << 20, /*chunk=*/128u << 10,
                      [&wakes] { ++wakes; });
  const BlockId b = mm.register_block(n, 1);
  ASSERT_NE(b, kInvalidBlock);

  const auto ref = pattern(n);
  std::memcpy(mm.block_ptr(b), ref.data(), n);

  MigrateResult up = mm.migrate(b, 0);
  ASSERT_TRUE(up.ok);
  EXPECT_TRUE(up.chunked);
  EXPECT_EQ(up.chunks, (n + (128u << 10) - 1) / (128u << 10));
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), ref.data(), n), 0);

  MigrateResult down = mm.migrate(b, 1);
  ASSERT_TRUE(down.ok);
  EXPECT_TRUE(down.chunked);
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), ref.data(), n), 0);
  EXPECT_EQ(wakes, 2);

  // In a batch only the over-threshold op streams through the ring,
  // and only it runs the wake hook.
  const BlockId small = mm.register_block(64u << 10, 1);
  std::memset(mm.block_ptr(small), 0x77, 64u << 10);
  const MigrateOp ops[] = {{small, 0}, {b, 0}};
  MigrateResult res[2];
  mm.migrate_batch(ops, res);
  ASSERT_TRUE(res[0].ok && res[1].ok);
  EXPECT_FALSE(res[0].chunked);
  EXPECT_TRUE(res[1].chunked);
  EXPECT_EQ(res[1].chunks, up.chunks);
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), ref.data(), n), 0);
  EXPECT_EQ(static_cast<unsigned char*>(mm.block_ptr(small))[12345], 0x77);
  mm.unregister_block(small);
  mm.unregister_block(b);
}

TEST(ChunkedMigrate, SmallCopiesBypassTheRing) {
  MemoryManager mm({{"fast", 4u << 20}, {"slow", 4u << 20}});
  mm.set_chunked_copy(/*threshold=*/1u << 20, /*chunk=*/128u << 10);
  const BlockId b = mm.register_block(64u << 10, 1);
  const MigrateResult r = mm.migrate(b, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.chunked);
  EXPECT_EQ(mm.chunk_ring().jobs(), 0u);
  mm.unregister_block(b);
}

TEST(ChunkedMigrate, AssistFromAnotherThread) {
  const std::uint64_t n = 16u << 20;
  MemoryManager mm({{"fast", 20u << 20}, {"slow", 20u << 20}});
  mm.set_chunked_copy(/*threshold=*/1u << 20, /*chunk=*/64u << 10);
  const BlockId b = mm.register_block(n, 1);
  const auto ref = pattern(n);
  std::memcpy(mm.block_ptr(b), ref.data(), n);

  std::atomic<bool> stop{false};
  std::thread helper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (mm.assist_copies() == 0) std::this_thread::yield();
    }
  });
  std::uint32_t assisted = 0;
  for (int i = 0; i < 6; ++i) {
    const MigrateResult up = mm.migrate(b, 0);
    ASSERT_TRUE(up.ok && up.chunked);
    assisted += up.assisted_chunks;
    const MigrateResult down = mm.migrate(b, 1);
    ASSERT_TRUE(down.ok && down.chunked);
    assisted += down.assisted_chunks;
  }
  stop.store(true, std::memory_order_release);
  helper.join();
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), ref.data(), n), 0);
  EXPECT_EQ(mm.chunk_ring().chunks_assisted(), assisted);
  // Cooperation is timing-dependent (a single-core host may never
  // schedule the helper mid-copy), so only the counters' consistency
  // is asserted unconditionally.
  mm.unregister_block(b);
}

} // namespace
} // namespace hmr::mem
