// Tests for the threaded charm-lite runtime: message delivery,
// prefetch interception, real block migration around task execution,
// quiescence, and strategy coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>

#include "rt/chare.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "util/units.hpp"

namespace hmr::rt {
namespace {

Runtime::Config small_config(ooc::Strategy s, int pes = 2) {
  Runtime::Config cfg;
  cfg.strategy = s;
  cfg.num_pes = pes;
  cfg.mem_scale = 1.0 / 4096; // 4 MiB fast / 24 MiB slow
  return cfg;
}

TEST(Runtime, PlainMessagesExecute) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    rt.send(i % 2, [&count] { count.fetch_add(1); });
  }
  rt.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, PlainMessagesKeepPerPeFifoOrder) {
  Runtime rt(small_config(ooc::Strategy::MultiIo, /*pes=*/1));
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    rt.send(0, [&order, i] { order.push_back(i); });
  }
  rt.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Runtime, PrefetchTaskSeesBlockInFastTier) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  Runtime rt(cfg);
  IoHandle<double> h(rt, 1024);
  const auto fast = cfg.model.fast;
  const auto slow = cfg.model.slow;
  // Movement strategies place fresh blocks on the slow tier.
  EXPECT_EQ(rt.memory().block_tier(h.id()), slow);

  std::atomic<int> seen_tier{-1};
  rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)},
                   [&rt, &h, &seen_tier] {
                     seen_tier = static_cast<int>(
                         rt.memory().block_tier(h.id()));
                   });
  rt.wait_idle();
  EXPECT_EQ(seen_tier.load(), static_cast<int>(fast));
  // Eager eviction returns it to the slow tier at quiescence.
  EXPECT_EQ(rt.memory().block_tier(h.id()), slow);
}

TEST(Runtime, DataSurvivesMigrationRoundTrips) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  IoHandle<std::uint64_t> h(rt, 4096);
  for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = i;
  // 20 tasks each increment every element; data migrates slow->fast
  // and back around every task.
  for (int t = 0; t < 20; ++t) {
    rt.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
      for (std::uint64_t i = 0; i < h.size(); ++i) h[i] += 1;
    });
    rt.wait_idle(); // serialize increments across PEs
  }
  for (std::uint64_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h[i], i + 20);
  }
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, 20u);
  EXPECT_EQ(st.fetches, 20u);
  EXPECT_EQ(st.evicts, 20u);
}

class RuntimeStrategies : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(RuntimeStrategies, ManyTasksOverflowTheFastTier) {
  // 16 blocks x 512 KiB = 8 MiB working set vs 4 MiB fast tier: data
  // must stream through. Every task checks its block's content.
  Runtime rt(small_config(GetParam(), /*pes=*/4));
  constexpr int kBlocks = 16;
  std::vector<IoHandle<double>> hs;
  hs.reserve(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    hs.emplace_back(rt, 64 * KiB); // 512 KiB each
    for (std::uint64_t i = 0; i < hs.back().size(); i += 97) {
      hs.back()[i] = b + 1;
    }
  }
  std::atomic<int> ok{0};
  for (int round = 0; round < 3; ++round) {
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 4, {h.dep(ooc::AccessMode::ReadOnly)},
                       [&h, &ok, b] {
                         bool good = true;
                         for (std::uint64_t i = 0; i < h.size(); i += 97) {
                           good &= h[i] == b + 1;
                         }
                         if (good) ok.fetch_add(1);
                       });
    }
    rt.wait_idle();
  }
  EXPECT_EQ(ok.load(), 3 * kBlocks);
  if (ooc::strategy_moves_data(GetParam())) {
    EXPECT_GT(rt.policy_stats().fetch_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, RuntimeStrategies,
    ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::SingleIo,
                      ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo),
    [](const auto& pi) { return ooc::strategy_name(pi.param); });

TEST(Runtime, NaivePlacementPacksFastTierFirst) {
  auto cfg = small_config(ooc::Strategy::Naive);
  Runtime rt(cfg);
  // Fast tier is 4 MiB: the first three 1.5 MiB blocks cannot all fit.
  IoHandle<double> h1(rt, 192 * KiB), h2(rt, 192 * KiB), h3(rt, 192 * KiB);
  EXPECT_EQ(rt.memory().block_tier(h1.id()), cfg.model.fast);
  EXPECT_EQ(rt.memory().block_tier(h2.id()), cfg.model.fast);
  EXPECT_EQ(rt.memory().block_tier(h3.id()), cfg.model.slow);
}

TEST(Runtime, SharedReadOnlyBlockRefcounting) {
  Runtime rt(small_config(ooc::Strategy::MultiIo, /*pes=*/4));
  IoHandle<double> shared(rt, 64 * KiB);
  shared[0] = 42.0;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    rt.send_prefetch(i % 4, {shared.dep(ooc::AccessMode::ReadOnly)},
                     [&shared, &ok] {
                       if (shared[0] == 42.0) ok.fetch_add(1);
                     });
  }
  rt.wait_idle();
  EXPECT_EQ(ok.load(), 16);
  // Sharing must dedup some fetches (16 tasks, far fewer migrations).
  EXPECT_LT(rt.policy_stats().fetches, 16u);
}

TEST(Runtime, TracerRecordsCompute) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.trace = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 16 * KiB);
  rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)}, [] {
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1;
  });
  rt.wait_idle();
  const auto s = rt.tracer().summarize();
  EXPECT_GE(s.count_of(trace::Category::Compute), 1u);
  EXPECT_GE(s.count_of(trace::Category::Prefetch), 1u);
}

// IO threads migrate a wakeup's commands as one batch; each migration
// still gets its own interval on the IO thread's lane (tiling the
// batch's wall time) and its own latency sample.
TEST(Runtime, BatchedMigrationsTileEachIoLane) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.trace = true;
  cfg.metrics = true;
  Runtime rt(cfg);
  std::vector<mem::BlockId> blocks;
  for (int i = 0; i < 256; ++i) blocks.push_back(rt.alloc_block(4 * KiB));
  for (int round = 0; round < 4; ++round) {
    for (int pe = 0; pe < 2; ++pe) {
      std::vector<Runtime::PrefetchMsg> batch;
      for (int i = 0; i < 64; ++i) {
        const auto k = static_cast<std::size_t>(pe * 128 + 2 * i);
        Runtime::PrefetchMsg m;
        m.deps = {{blocks[k], ooc::AccessMode::ReadWrite},
                  {blocks[k + 1], ooc::AccessMode::ReadOnly}};
        m.body = [] {};
        batch.push_back(std::move(m));
      }
      rt.send_prefetch_batch(pe, std::move(batch));
    }
    rt.wait_idle();
  }
  ASSERT_EQ(rt.tracer().dropped(), 0u);
  const auto st = rt.policy_stats();
  std::map<std::int32_t, std::vector<trace::Interval>> lanes;
  for (const trace::Interval& iv : rt.tracer().intervals()) {
    if (iv.cat != trace::Category::Prefetch &&
        iv.cat != trace::Category::Evict) {
      continue;
    }
    EXPECT_GE(iv.lane, cfg.num_pes); // an IO thread's lane
    lanes[iv.lane].push_back(iv);
  }
  std::uint64_t count = 0, bytes = 0, touching = 0;
  for (auto& [lane, ivs] : lanes) {
    std::sort(ivs.begin(), ivs.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      EXPECT_LT(ivs[i].start, ivs[i].end);
      if (i + 1 < ivs.size()) {
        EXPECT_LE(ivs[i].end, ivs[i + 1].start) << "lane " << lane;
        touching += ivs[i].end == ivs[i + 1].start ? 1 : 0;
      }
      bytes += ivs[i].bytes;
    }
    count += ivs.size();
  }
  EXPECT_EQ(count, st.fetches + st.evicts);
  EXPECT_EQ(bytes, st.fetch_bytes + st.evict_bytes);
  EXPECT_GT(touching, 0u); // some wakeup moved more than one block
  EXPECT_EQ(rt.metrics()->histogram("hmr_fetch_latency_ns").count(),
            st.fetches);
  EXPECT_EQ(rt.metrics()->histogram("hmr_evict_latency_ns").count(),
            st.evicts);
}

TEST(Runtime, TasksFromTasksWork) {
  // Entry methods can send further messages (charm-style chaining).
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  IoHandle<double> h(rt, 16 * KiB);
  std::atomic<int> chain{0};
  std::function<void(int)> launch = [&](int depth) {
    rt.send_prefetch(depth % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&, depth] {
                       chain.fetch_add(1);
                       if (depth < 9) launch(depth + 1);
                     });
  };
  launch(0);
  rt.wait_idle();
  EXPECT_EQ(chain.load(), 10);
}

TEST(Runtime, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    Runtime rt(small_config(ooc::Strategy::SyncNoIo));
    IoHandle<double> h(rt, 16 * KiB);
    for (int i = 0; i < 10; ++i) {
      rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                       [&count] { count.fetch_add(1); });
    }
    // No wait_idle: the destructor must drain.
  }
  EXPECT_EQ(count.load(), 10);
}

} // namespace
} // namespace hmr::rt

namespace hmr::rt {
namespace {

TEST(Runtime, FreeBlockReleasesCapacity) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  const auto slow = rt.config().model.slow;
  const auto used_before = rt.memory().usage(slow).used;
  mem::BlockId b;
  {
    IoHandle<double> h(rt, 64 * KiB);
    b = h.id();
    EXPECT_GT(rt.memory().usage(slow).used, used_before);
    rt.free_block(b);
  }
  EXPECT_EQ(rt.memory().usage(slow).used, used_before);
}

TEST(Runtime, FreeClaimedBlockDies) {
  Runtime rt(small_config(ooc::Strategy::Naive));
  IoHandle<double> h(rt, 16 * KiB);
  // Naive: no claims ever; freeing mid-flight is a task-time concern,
  // so exercise the engine-side guard with an unknown id instead.
  rt.free_block(h.id());
  EXPECT_DEATH(rt.free_block(h.id()), "dead block|unknown block");
}

TEST(Runtime, TenancyWithAdaptiveGuidanceDies) {
  // Both install a PlacementAdvisor on the one engine; the runtime
  // refuses the pair at construction instead of letting one silently
  // replace the other.
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.adaptive = true;
  serve::TenantDesc t;
  t.name = "solo";
  cfg.serve.tenants.push_back(t);
  EXPECT_DEATH({ Runtime rt(cfg); }, "advisor slot");
}

TEST(Runtime, WriteonlyNocopySkipsTheCopyButKeepsWrites) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.writeonly_nocopy = true;
  Runtime rt(cfg);
  IoHandle<double> in(rt, 16 * KiB);
  IoHandle<double> out(rt, 16 * KiB);
  for (std::uint64_t i = 0; i < in.size(); ++i) in[i] = double(i);
  rt.send_prefetch(0,
                   {in.dep(ooc::AccessMode::ReadOnly),
                    out.dep(ooc::AccessMode::WriteOnly)},
                   [&] {
                     // `out` arrived without its old contents; the task
                     // fully overwrites it, as WriteOnly promises.
                     for (std::uint64_t i = 0; i < out.size(); ++i) {
                       out[i] = in[i] * 3.0;
                     }
                   });
  rt.wait_idle();
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 3.0 * double(i));
  }
}

TEST(Runtime, EvictByWorkerOptionRuns) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.evict_by_worker = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 32 * KiB);
  std::atomic<int> runs{0};
  for (int i = 0; i < 6; ++i) {
    rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&runs] { runs.fetch_add(1); });
    rt.wait_idle();
  }
  EXPECT_EQ(runs.load(), 6);
  EXPECT_EQ(rt.policy_stats().evicts, 6u);
}

TEST(Runtime, LazyEvictionKeepsBlocksWarm) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.eager_evict = false;
  Runtime rt(cfg);
  const auto fast = rt.config().model.fast;
  IoHandle<double> h(rt, 64 * KiB);
  for (int i = 0; i < 4; ++i) {
    rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)}, [] {});
    rt.wait_idle();
    // Lazy: the block stays parked in the fast tier between tasks.
    EXPECT_EQ(rt.memory().block_tier(h.id()), fast);
  }
  // One fetch total: subsequent tasks reuse the warm block.
  EXPECT_EQ(rt.policy_stats().fetches, 1u);
  EXPECT_EQ(rt.policy_stats().lru_reclaims, 3u);
}

} // namespace
} // namespace hmr::rt

namespace hmr::rt {
namespace {

TEST(Runtime, AdaptiveGuidanceStepsAtEveryIdleBarrier) {
  // Adaptive mode in the threaded runtime: wait_idle() is the phase
  // boundary.  The guidance components must see every phase and stay
  // within their configured bounds while real tasks flow through.
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.adaptive = true;
  cfg.profiler_cfg.top_k = 4; // tighter than the block count below
  Runtime rt(cfg);
  std::vector<std::unique_ptr<IoHandle<double>>> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(std::make_unique<IoHandle<double>>(rt, 4096));
  }
  std::atomic<int> ran{0};
  for (int phase = 0; phase < 3; ++phase) {
    for (int t = 0; t < 12; ++t) {
      auto& h = *blocks[static_cast<std::size_t>(t) % blocks.size()];
      rt.send_prefetch(t % rt.num_pes(),
                       {h.dep(ooc::AccessMode::ReadOnly)},
                       [&ran] { ran.fetch_add(1); });
    }
    rt.wait_idle();
  }
  EXPECT_EQ(ran.load(), 36);
  ASSERT_NE(rt.governor(), nullptr);
  EXPECT_GE(rt.governor()->phases_observed(), 3);
  ASSERT_NE(rt.profiler(), nullptr);
  EXPECT_LE(rt.profiler()->tracked(), 4u);
  EXPECT_EQ(rt.policy_stats().tasks_run, 36u);
}

TEST(Runtime, ThreadPinningOptionRuns) {
  // Functional smoke test: pinning must not break execution even when
  // the host has fewer cores than threads (it degrades to a no-op).
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.pin_threads = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 16 * KiB);
  std::atomic<int> runs{0};
  for (int i = 0; i < 4; ++i) {
    rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&runs] { runs.fetch_add(1); });
  }
  rt.wait_idle();
  EXPECT_EQ(runs.load(), 4);
}

/// Shared driver for the zero-copy on/off equivalence check: a
/// streaming working set (re-fetch after evict keeps shadows hot),
/// read-only verification rounds plus serialized read-write rounds
/// (exercising mark_dirty invalidation).  Returns the final contents.
/// Threaded fetch/evict counts are interleaving-dependent, so only
/// deterministic invariants are compared here; the byte-exact stats
/// lock against the seed engine lives in test_tier_equivalence.cpp.
struct ZeroCopyRun {
  std::vector<std::vector<double>> contents;
  std::uint64_t tasks = 0;
  std::uint64_t admissions = 0;
};

ZeroCopyRun run_zero_copy_workload(bool zero_copy) {
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.zero_copy = zero_copy;
  ZeroCopyRun out;
  Runtime rt(cfg);
  constexpr int kBlocks = 12;
  std::vector<std::unique_ptr<IoHandle<double>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    hs.push_back(std::make_unique<IoHandle<double>>(rt, 64 * KiB));
    auto& h = *hs.back();
    for (std::uint64_t i = 0; i < h.size(); ++i) {
      h[i] = b * 1000.0 + static_cast<double>(i % 251);
    }
  }
  std::atomic<int> bad{0};
  for (int round = 0; round < 3; ++round) {
    // Read-only sweep: evict/refetch cycles where swaps may be admitted.
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadOnly)},
                       [&h, &bad, b] {
                         for (std::uint64_t i = 0; i < h.size(); i += 83) {
                           if (h[i] !=
                               b * 1000.0 + static_cast<double>(i % 251) +
                                   /*writes so far*/ 0.0) {
                             // RW rounds below adjust all elements back,
                             // so reads always see the base pattern.
                             bad.fetch_add(1);
                             break;
                           }
                         }
                       });
    }
    rt.wait_idle();
    // Read-write round (serialized): dirties blocks, invalidating any
    // retained shadow; a stale-swap bug would surface in the next
    // read-only sweep.
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
        for (std::uint64_t i = 0; i < h.size(); i += 7) h[i] += 1.0;
      });
      rt.wait_idle();
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
        for (std::uint64_t i = 0; i < h.size(); i += 7) h[i] -= 1.0;
      });
      rt.wait_idle();
    }
  }
  EXPECT_EQ(bad.load(), 0);
  out.tasks = rt.policy_stats().tasks_run;
  out.admissions = rt.memory().zero_copy_admissions();
  for (auto& hp : hs) {
    out.contents.emplace_back(&(*hp)[0], &(*hp)[0] + hp->size());
  }
  return out;
}

TEST(Runtime, ZeroCopyAdmissionIsTransparentUnderThreads) {
  const ZeroCopyRun off = run_zero_copy_workload(false);
  const ZeroCopyRun on = run_zero_copy_workload(true);
  EXPECT_EQ(off.admissions, 0u);
  EXPECT_GT(on.admissions, 0u);
  EXPECT_EQ(on.tasks, off.tasks);
  ASSERT_EQ(on.contents.size(), off.contents.size());
  for (std::size_t b = 0; b < on.contents.size(); ++b) {
    ASSERT_EQ(on.contents[b], off.contents[b]) << "block " << b;
  }
}

} // namespace
} // namespace hmr::rt
