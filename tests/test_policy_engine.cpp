// Unit tests for the PolicyEngine protocol: placement, admission,
// fetch/evict command generation, refcounts, dedup, budget accounting,
// fairness, and failure detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "instant_executor.hpp"
#include "ooc/policy_engine.hpp"

namespace hmr::ooc {
namespace {

using hmr::testing::InstantExecutor;

PolicyEngine::Config cfg(Strategy s, std::uint64_t cap, int pes = 2) {
  PolicyEngine::Config c;
  c.strategy = s;
  c.num_pes = pes;
  c.fast_capacity = cap;
  return c;
}

TaskDesc make_task(TaskId id, std::int32_t pe,
                   std::vector<Dep> deps, double wf = 1.0) {
  TaskDesc t;
  t.id = id;
  t.pe = pe;
  t.deps = std::move(deps);
  t.work_factor = wf;
  return t;
}

// ---------- static placement strategies ----------

TEST(PolicyStatic, NaivePacksFastThenOverflows) {
  PolicyEngine e(cfg(Strategy::Naive, 100));
  // Classic two-level hierarchy: tier id 1 = fast, 0 = slow.
  EXPECT_EQ(e.add_block(0, 60), 1u);
  EXPECT_EQ(e.add_block(1, 40), 1u);
  EXPECT_EQ(e.add_block(2, 1), 0u); // full
  EXPECT_EQ(e.block_state(0), BlockState::InFast);
  EXPECT_EQ(e.block_state(2), BlockState::InSlow);
  EXPECT_EQ(e.fast_used(), 100u);
}

TEST(PolicyStatic, DdrOnlyPlacesEverythingSlow) {
  PolicyEngine e(cfg(Strategy::DdrOnly, 100));
  EXPECT_EQ(e.add_block(0, 10), 0u);
  EXPECT_EQ(e.block_state(0), BlockState::InSlow);
  EXPECT_EQ(e.fast_used(), 0u);
}

TEST(PolicyStatic, HbmOnlyDiesWhenOverCapacity) {
  PolicyEngine e(cfg(Strategy::HbmOnly, 100));
  EXPECT_EQ(e.add_block(0, 100), 1u);
  EXPECT_DEATH((void)e.add_block(1, 1), "fit in HBM");
}

TEST(PolicyStatic, TasksRunImmediatelyWithoutMovement) {
  PolicyEngine e(cfg(Strategy::Naive, 100));
  e.add_block(0, 60);
  e.add_block(1, 60); // overflows to slow
  auto cmds = e.on_task_arrived(make_task(1, 0, {{0, AccessMode::ReadWrite},
                                                 {1, AccessMode::ReadOnly}}));
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].kind, Command::Kind::Run);
  EXPECT_EQ(cmds[0].task, 1u);
  auto done = e.on_task_complete(1);
  EXPECT_TRUE(done.empty()); // no eviction under static strategies
  EXPECT_TRUE(e.quiescent());
}

// ---------- movement strategies: basic protocol ----------

class PolicyMove : public ::testing::TestWithParam<Strategy> {};

TEST_P(PolicyMove, FetchRunEvictRoundTrip) {
  PolicyEngine e(cfg(GetParam(), 100));
  EXPECT_EQ(e.add_block(0, 50), 0u); // movement: start on the far tier
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.fetches.size(), 1u);
  EXPECT_EQ(x.fetches[0].block, 0u);
  ASSERT_EQ(x.run_order.size(), 1u);
  EXPECT_EQ(x.run_order[0], 1u);
  ASSERT_EQ(x.evicts.size(), 1u);
  EXPECT_EQ(e.block_state(0), BlockState::InSlow); // evicted back
  EXPECT_EQ(e.fast_used(), 0u);
  EXPECT_TRUE(e.quiescent());
}

TEST_P(PolicyMove, AlreadyResidentSkipsFetch) {
  PolicyEngine e(cfg(GetParam(), 100));
  e.add_block(0, 30);
  e.add_block(1, 30);
  InstantExecutor x(e, /*auto_run=*/false);
  // Task 1 pulls block 0 in and holds it (not completed yet).
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.fetches.size(), 1u);
  // Task 2 (same PE) uses block 0 too: no second fetch needed.
  x.arrive(make_task(2, 0, {{0, AccessMode::ReadOnly}}));
  EXPECT_EQ(x.fetches.size(), 1u);
  EXPECT_EQ(x.run_order.size(), 2u);
  EXPECT_EQ(e.refcount(0), 2u);
  x.complete(1);
  EXPECT_EQ(e.block_state(0), BlockState::InFast); // still referenced
  x.complete(2);
  EXPECT_EQ(e.block_state(0), BlockState::InSlow); // last user evicts
  EXPECT_TRUE(e.quiescent());
}

TEST_P(PolicyMove, BudgetBlocksAdmissionUntilEviction) {
  PolicyEngine e(cfg(GetParam(), 100));
  e.add_block(0, 80);
  e.add_block(1, 80);
  InstantExecutor x(e, /*auto_run=*/false);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  EXPECT_EQ(x.run_order.size(), 1u);
  x.arrive(make_task(2, 0, {{1, AccessMode::ReadWrite}}));
  // No room: task 2 must wait.
  EXPECT_EQ(x.run_order.size(), 1u);
  EXPECT_EQ(e.total_waiting(), 1u);
  // Completing task 1 evicts block 0 and unblocks task 2.
  x.complete(1);
  EXPECT_EQ(x.run_order.size(), 2u);
  EXPECT_EQ(x.run_order[1], 2u);
  x.complete(2);
  EXPECT_TRUE(e.quiescent());
  EXPECT_EQ(e.fast_used(), 0u);
}

TEST_P(PolicyMove, SharedFetchIsDeduplicated) {
  PolicyEngine e(cfg(GetParam(), 100, /*pes=*/2));
  e.add_block(0, 40);
  InstantExecutor x(e, /*auto_run=*/false);
  // Two tasks on different PEs need the same block.  The instant
  // executor completes the first fetch immediately, so to observe the
  // dedup we need both arrivals before any fetch completes — use the
  // raw API instead.
  auto c1 = e.on_task_arrived(make_task(1, 0, {{0, AccessMode::ReadOnly}}));
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_EQ(c1[0].kind, Command::Kind::Fetch);
  auto c2 = e.on_task_arrived(make_task(2, 1, {{0, AccessMode::ReadOnly}}));
  // Second task must not trigger a second fetch of the same block.
  for (const auto& c : c2) EXPECT_NE(c.kind, Command::Kind::Fetch);
  EXPECT_EQ(e.stats().fetch_dedup_hits, 1u);
  // One completion readies both tasks.
  auto c3 = e.on_fetch_complete(0);
  std::size_t runs = 0;
  for (const auto& c : c3) runs += c.kind == Command::Kind::Run;
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(e.refcount(0), 2u);
}

TEST_P(PolicyMove, WorkingSetLargerThanCapacityDies) {
  PolicyEngine e(cfg(GetParam(), 100));
  e.add_block(0, 150);
  EXPECT_DEATH(
      {
        auto cmds =
            e.on_task_arrived(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
        (void)cmds;
      },
      "exceed");
}

TEST_P(PolicyMove, StatsCountTraffic) {
  PolicyEngine e(cfg(GetParam(), 100));
  e.add_block(0, 50);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  x.arrive(make_task(2, 0, {{0, AccessMode::ReadWrite}}));
  const auto& s = e.stats();
  EXPECT_EQ(s.tasks_run, 2u);
  EXPECT_EQ(s.fetches, 2u); // re-fetched after eager eviction
  EXPECT_EQ(s.fetch_bytes, 100u);
  EXPECT_EQ(s.evicts, 2u);
  EXPECT_EQ(s.evict_bytes, 100u);
}

INSTANTIATE_TEST_SUITE_P(AllMoving, PolicyMove,
                         ::testing::Values(Strategy::SingleIo,
                                           Strategy::SyncNoIo,
                                           Strategy::MultiIo),
                         [](const auto& pi) { return strategy_name(pi.param); });

// ---------- strategy-specific behaviour ----------

TEST(PolicySingleIo, AllFetchesGoToAgentZero) {
  PolicyEngine e(cfg(Strategy::SingleIo, 1000, /*pes=*/4));
  for (BlockId b = 0; b < 4; ++b) e.add_block(b, 10);
  InstantExecutor x(e, /*auto_run=*/false);
  for (TaskId t = 0; t < 4; ++t) {
    x.arrive(make_task(t + 1, static_cast<std::int32_t>(t),
                       {{t, AccessMode::ReadWrite}}));
  }
  ASSERT_EQ(x.fetches.size(), 4u);
  for (const auto& f : x.fetches) EXPECT_EQ(f.agent, 0);
}

TEST(PolicySingleIo, RoundRobinServesQueuesFairly) {
  // Fill the budget with a holder task, queue two tasks per PE, then
  // release.  The freed capacity fits exactly two admissions; the IO
  // thread must take one from EACH queue (the paper's load-balance
  // rationale for per-PE wait queues), not two from the first.
  PolicyEngine e(cfg(Strategy::SingleIo, 20, /*pes=*/2));
  for (BlockId b = 0; b < 4; ++b) e.add_block(b, 10);
  e.add_block(9, 20); // budget holder
  InstantExecutor x(e, /*auto_run=*/false);
  x.arrive(make_task(100, 0, {{9, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.run_order.size(), 1u);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  x.arrive(make_task(2, 0, {{1, AccessMode::ReadWrite}}));
  x.arrive(make_task(3, 1, {{2, AccessMode::ReadWrite}}));
  x.arrive(make_task(4, 1, {{3, AccessMode::ReadWrite}}));
  EXPECT_EQ(e.total_waiting(), 4u);
  x.fetches.clear();
  x.complete(100); // evicts the holder, freeing 20 bytes
  // One admission per queue: blocks 0 (PE0 head) and 2 (PE1 head).
  std::vector<BlockId> fetched;
  for (const auto& f : x.fetches) fetched.push_back(f.block);
  std::sort(fetched.begin(), fetched.end());
  ASSERT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched[0], 0u);
  EXPECT_EQ(fetched[1], 2u);
  EXPECT_EQ(e.total_waiting(), 2u);
}

TEST(PolicySyncNoIo, FetchesAreWorkerInline) {
  PolicyEngine e(cfg(Strategy::SyncNoIo, 100));
  e.add_block(0, 50);
  auto cmds = e.on_task_arrived(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].kind, Command::Kind::Fetch);
  EXPECT_EQ(cmds[0].agent, kWorkerInline);
  EXPECT_EQ(cmds[0].pe, 0);
}

TEST(PolicySyncNoIo, EvictionsAreWorkerInline) {
  PolicyEngine e(cfg(Strategy::SyncNoIo, 100));
  e.add_block(0, 50);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.evicts.size(), 1u);
  EXPECT_EQ(x.evicts[0].agent, kWorkerInline);
}

TEST(PolicyMultiIo, FetchAgentIsHomePe) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100, /*pes=*/4));
  e.add_block(0, 50);
  auto cmds = e.on_task_arrived(make_task(1, 3, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].kind, Command::Kind::Fetch);
  EXPECT_EQ(cmds[0].agent, 3);
}

TEST(PolicyMultiIo, EvictAgentIsHomePeByDefault) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100, /*pes=*/4));
  e.add_block(0, 50);
  InstantExecutor x(e);
  x.arrive(make_task(1, 2, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.evicts.size(), 1u);
  EXPECT_EQ(x.evicts[0].agent, 2);
}

TEST(PolicyMultiIo, EvictByWorkerOption) {
  auto c = cfg(Strategy::MultiIo, 100, 4);
  c.evict_by_worker = true;
  PolicyEngine e(c);
  e.add_block(0, 50);
  InstantExecutor x(e);
  x.arrive(make_task(1, 2, {{0, AccessMode::ReadWrite}}));
  ASSERT_EQ(x.evicts.size(), 1u);
  EXPECT_EQ(x.evicts[0].agent, kWorkerInline);
}

// ---------- write-only fast path ----------

TEST(PolicyWriteOnly, NocopyFlagPropagates) {
  auto c = cfg(Strategy::MultiIo, 100);
  c.writeonly_nocopy = true;
  PolicyEngine e(c);
  e.add_block(0, 30);
  e.add_block(1, 30);
  auto cmds = e.on_task_arrived(make_task(
      1, 0, {{0, AccessMode::ReadOnly}, {1, AccessMode::WriteOnly}}));
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_FALSE(cmds[0].nocopy);
  EXPECT_TRUE(cmds[1].nocopy);
}

TEST(PolicyWriteOnly, DefaultAlwaysCopies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 30);
  auto cmds = e.on_task_arrived(make_task(1, 0, {{0, AccessMode::WriteOnly}}));
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_FALSE(cmds[0].nocopy);
}

// ---------- lazy eviction (LRU extension) ----------

TEST(PolicyLazy, BlocksStayWarmUntilSpaceNeeded) {
  auto c = cfg(Strategy::MultiIo, 100);
  c.eager_evict = false;
  PolicyEngine e(c);
  e.add_block(0, 60);
  e.add_block(1, 60);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  // No eviction on completion: block 0 parked warm.
  EXPECT_EQ(x.evicts.size(), 0u);
  EXPECT_EQ(e.block_state(0), BlockState::InFast);
  EXPECT_EQ(e.lru_size(), 1u);
  // Task needing block 1 forces reclaim of block 0.
  x.arrive(make_task(2, 0, {{1, AccessMode::ReadWrite}}));
  EXPECT_GE(x.evicts.size(), 1u);
  EXPECT_EQ(x.evicts[0].block, 0u);
  EXPECT_EQ(x.run_order.size(), 2u);
}

TEST(PolicyLazy, WarmReuseSkipsRefetch) {
  auto c = cfg(Strategy::MultiIo, 100);
  c.eager_evict = false;
  PolicyEngine e(c);
  e.add_block(0, 50);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  EXPECT_EQ(x.fetches.size(), 1u);
  x.arrive(make_task(2, 0, {{0, AccessMode::ReadWrite}}));
  // Second task reuses the warm block: no new fetch, reclaim counted.
  EXPECT_EQ(x.fetches.size(), 1u);
  EXPECT_EQ(e.stats().lru_reclaims, 1u);
  EXPECT_EQ(e.stats().fetches, 1u);
}

// ---------- misuse detection ----------

// ---------- batched event entry point ----------

TEST(PolicyBatch, StepBatchMatchesPerEventCalls) {
  // The same scripted MultiIo event sequence through two engines: one
  // driven by the per-event entry points, one by step_batch.  The
  // concatenated command streams and the final stats must be
  // identical — step_batch is pure lock amortization, not policy.
  auto run_script = [](bool batched) {
    PolicyEngine e(cfg(Strategy::MultiIo, 100, 2));
    for (BlockId b = 0; b < 4; ++b) e.add_block(b, 40);
    std::vector<Command> all;
    auto feed = [&](std::vector<PolicyEngine::Event> evs) {
      if (batched) {
        auto c = e.step_batch(std::move(evs));
        all.insert(all.end(), c.begin(), c.end());
        return;
      }
      for (auto& ev : evs) {
        std::vector<Command> c;
        switch (ev.kind) {
          case PolicyEngine::Event::Kind::TaskArrived:
            c = e.on_task_arrived(ev.task);
            break;
          case PolicyEngine::Event::Kind::FetchComplete:
            c = e.on_fetch_complete(ev.block);
            break;
          case PolicyEngine::Event::Kind::EvictComplete:
            c = e.on_evict_complete(ev.block);
            break;
          case PolicyEngine::Event::Kind::TaskComplete:
            c = e.on_task_complete(ev.task_id);
            break;
        }
        all.insert(all.end(), c.begin(), c.end());
      }
    };
    // Two tasks admitted (one shared dep, dedup), a third over
    // capacity that waits, then completions and evictions that admit
    // it — exercises every Event kind and the retry paths.
    feed({PolicyEngine::Event::arrived(
              make_task(1, 0, {{0, AccessMode::ReadWrite},
                               {1, AccessMode::ReadOnly}})),
          PolicyEngine::Event::arrived(
              make_task(2, 1, {{1, AccessMode::ReadOnly}}))});
    feed({PolicyEngine::Event::fetched(0),
          PolicyEngine::Event::fetched(1),
          PolicyEngine::Event::arrived(
              make_task(3, 0, {{2, AccessMode::ReadWrite},
                               {3, AccessMode::ReadWrite}}))});
    feed({PolicyEngine::Event::completed(1),
          PolicyEngine::Event::completed(2)});
    feed({PolicyEngine::Event::evicted(0),
          PolicyEngine::Event::evicted(1)});
    feed({PolicyEngine::Event::fetched(2),
          PolicyEngine::Event::fetched(3),
          PolicyEngine::Event::completed(3),
          PolicyEngine::Event::evicted(2),
          PolicyEngine::Event::evicted(3)});
    EXPECT_TRUE(e.quiescent());
    return std::make_pair(std::move(all), e.stats());
  };

  const auto [cmds_a, stats_a] = run_script(false);
  const auto [cmds_b, stats_b] = run_script(true);
  ASSERT_EQ(cmds_a.size(), cmds_b.size());
  for (std::size_t i = 0; i < cmds_a.size(); ++i) {
    EXPECT_EQ(cmds_a[i].kind, cmds_b[i].kind) << i;
    EXPECT_EQ(cmds_a[i].block, cmds_b[i].block) << i;
    EXPECT_EQ(cmds_a[i].task, cmds_b[i].task) << i;
    EXPECT_EQ(cmds_a[i].agent, cmds_b[i].agent) << i;
    EXPECT_EQ(cmds_a[i].pe, cmds_b[i].pe) << i;
    EXPECT_EQ(cmds_a[i].nocopy, cmds_b[i].nocopy) << i;
  }
  EXPECT_EQ(stats_a.tasks_run, stats_b.tasks_run);
  EXPECT_EQ(stats_a.fetches, stats_b.fetches);
  EXPECT_EQ(stats_a.fetch_bytes, stats_b.fetch_bytes);
  EXPECT_EQ(stats_a.evicts, stats_b.evicts);
  EXPECT_EQ(stats_a.evict_bytes, stats_b.evict_bytes);
  EXPECT_EQ(stats_a.fetch_dedup_hits, stats_b.fetch_dedup_hits);
}

// The same comparison for every other event path: the script is
// generated by executing the commands, round by round.  Each round
// hands the engine one completion event per command of the previous
// round, in command order, with the next two arrivals interleaved
// (one after the first completion, one last) — as one step_batch
// call, or through the per-event entry points one by one.  Both runs
// must emit identical command streams and stats and end quiescent and
// clean.
struct BatchRun {
  std::vector<Command> cmds;
  PolicyEngine::Stats stats;
};

BatchRun run_rounds(const PolicyEngine::Config& c, bool batched) {
  PolicyEngine e(c);
  for (BlockId b = 0; b < 6; ++b) e.add_block(b, 20 + 5 * b);
  // Eight tasks on two PEs over six blocks: shared deps (dedup, warm
  // reuse), and more bytes in flight than the top level holds.
  const std::vector<TaskDesc> tasks = {
      make_task(1, 0, {{0, AccessMode::ReadWrite}, {1, AccessMode::ReadOnly}}),
      make_task(2, 1, {{1, AccessMode::ReadOnly}, {2, AccessMode::WriteOnly}}),
      make_task(3, 0, {{3, AccessMode::ReadWrite}, {4, AccessMode::ReadOnly}}),
      make_task(4, 1, {{5, AccessMode::ReadWrite}}),
      make_task(5, 0, {{0, AccessMode::ReadOnly}, {5, AccessMode::ReadOnly}}),
      make_task(6, 1, {{2, AccessMode::ReadWrite}, {3, AccessMode::ReadOnly}}),
      make_task(7, 0, {{4, AccessMode::ReadWrite}, {1, AccessMode::ReadOnly}}),
      make_task(8, 1, {{1, AccessMode::ReadOnly}, {0, AccessMode::ReadWrite}}),
  };
  BatchRun out;
  std::vector<PolicyEngine::Event> pending;
  std::size_t next = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<PolicyEngine::Event> evs = std::move(pending);
    pending.clear();
    if (next < tasks.size()) {
      const auto at = evs.begin() + (evs.empty() ? 0 : 1);
      evs.insert(at, PolicyEngine::Event::arrived(tasks[next++]));
    }
    if (next < tasks.size()) {
      evs.push_back(PolicyEngine::Event::arrived(tasks[next++]));
    }
    if (evs.empty()) break;
    std::vector<Command> got;
    if (batched) {
      got = e.step_batch(std::move(evs));
    } else {
      for (auto& ev : evs) {
        std::vector<Command> step;
        switch (ev.kind) {
          case PolicyEngine::Event::Kind::TaskArrived:
            step = e.on_task_arrived(ev.task);
            break;
          case PolicyEngine::Event::Kind::FetchComplete:
            step = e.on_fetch_complete(ev.block);
            break;
          case PolicyEngine::Event::Kind::EvictComplete:
            step = e.on_evict_complete(ev.block);
            break;
          case PolicyEngine::Event::Kind::TaskComplete:
            step = e.on_task_complete(ev.task_id);
            break;
        }
        got.insert(got.end(), step.begin(), step.end());
      }
    }
    for (const Command& cmd : got) {
      switch (cmd.kind) {
        case Command::Kind::Fetch:
          pending.push_back(PolicyEngine::Event::fetched(cmd.block));
          break;
        case Command::Kind::Evict:
          pending.push_back(PolicyEngine::Event::evicted(cmd.block));
          break;
        case Command::Kind::Run:
          pending.push_back(PolicyEngine::Event::completed(cmd.task));
          break;
      }
    }
    out.cmds.insert(out.cmds.end(), got.begin(), got.end());
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(e.stats().tasks_run, tasks.size());
  EXPECT_TRUE(e.quiescent());
  const auto audit = e.audit_invariants(/*at_quiescence=*/true);
  EXPECT_TRUE(audit.empty()) << audit.front();
  out.stats = e.stats();
  return out;
}

TEST(PolicyBatch, StepBatchMatchesPerEventCallsOnEveryPath) {
  std::vector<std::pair<std::string, PolicyEngine::Config>> configs;
  configs.emplace_back("SingleIo", cfg(Strategy::SingleIo, 120));
  configs.emplace_back("SyncNoIo", cfg(Strategy::SyncNoIo, 120));
  configs.emplace_back("MultiIo", cfg(Strategy::MultiIo, 120));
  auto lazy = cfg(Strategy::MultiIo, 120);
  lazy.eager_evict = false;
  configs.emplace_back("MultiIo_lazy", lazy);
  auto nocopy = cfg(Strategy::SingleIo, 120);
  nocopy.writeonly_nocopy = true;
  nocopy.eager_evict = false;
  configs.emplace_back("SingleIo_lazy_nocopy", nocopy);
  // Three levels, distinctive tier ids: top 120 B, a middle level of
  // 80 B trimmed at half, unbounded bottom.
  auto cascade = cfg(Strategy::MultiIo, 0);
  cascade.tiers = {{7, 120, 1.0}, {5, 80, 0.5}, {3, 0, 1.0}};
  configs.emplace_back("MultiIo_cascade", cascade);
  for (const auto& [name, c] : configs) {
    SCOPED_TRACE(name);
    const BatchRun a = run_rounds(c, /*batched=*/false);
    const BatchRun b = run_rounds(c, /*batched=*/true);
    ASSERT_EQ(a.cmds.size(), b.cmds.size());
    for (std::size_t i = 0; i < a.cmds.size(); ++i) {
      EXPECT_EQ(a.cmds[i].kind, b.cmds[i].kind) << i;
      EXPECT_EQ(a.cmds[i].block, b.cmds[i].block) << i;
      EXPECT_EQ(a.cmds[i].task, b.cmds[i].task) << i;
      EXPECT_EQ(a.cmds[i].agent, b.cmds[i].agent) << i;
      EXPECT_EQ(a.cmds[i].pe, b.cmds[i].pe) << i;
      EXPECT_EQ(a.cmds[i].nocopy, b.cmds[i].nocopy) << i;
      EXPECT_EQ(a.cmds[i].src_tier, b.cmds[i].src_tier) << i;
      EXPECT_EQ(a.cmds[i].dst_tier, b.cmds[i].dst_tier) << i;
    }
    EXPECT_EQ(a.stats.tasks_run, b.stats.tasks_run);
    EXPECT_EQ(a.stats.fetches, b.stats.fetches);
    EXPECT_EQ(a.stats.fetch_bytes, b.stats.fetch_bytes);
    EXPECT_EQ(a.stats.evicts, b.stats.evicts);
    EXPECT_EQ(a.stats.evict_bytes, b.stats.evict_bytes);
    EXPECT_EQ(a.stats.fetch_dedup_hits, b.stats.fetch_dedup_hits);
    EXPECT_EQ(a.stats.lru_reclaims, b.stats.lru_reclaims);
    EXPECT_EQ(a.stats.cascade_demotions, b.stats.cascade_demotions);
    EXPECT_EQ(a.stats.tier_trims, b.stats.tier_trims);
    // The script reaches the paths it is meant to compare.
    EXPECT_GT(a.stats.evicts, 0u);
    EXPECT_GT(a.stats.fetch_dedup_hits, 0u);
    if (name == "MultiIo_cascade") {
      EXPECT_GT(a.stats.tier_trims, 0u);
    }
  }
}

// ---------- dense block table ----------

// Block records are a table indexed by id with a live flag per slot:
// ids may leave gaps, a removed id may be registered again, and a
// lookup of any id that is not registered — a gap, a removed slot or
// past the table's end — dies like an unknown id always did.
TEST(PolicyBlockTable, GapsInIdsWork) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(5, 30);
  e.add_block(2, 20);
  e.add_block(9, 10);
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{5, AccessMode::ReadWrite},
                            {9, AccessMode::ReadOnly}}));
  x.arrive(make_task(2, 1, {{2, AccessMode::ReadWrite}}));
  EXPECT_EQ(x.run_order, (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(e.stats().fetch_bytes, 60u);
  EXPECT_EQ(e.block_state(5), BlockState::InSlow);
  EXPECT_TRUE(e.quiescent());
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
}

TEST(PolicyBlockTable, RemovedIdMayBeRegisteredAgain) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 40);
  e.add_block(1, 40);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{1, AccessMode::ReadWrite}}));
  e.remove_block(1);
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
  EXPECT_EQ(e.tier_used(1), 40u); // only block 0 left on the bottom
  // The id comes back with a new size and a clean record.
  e.add_block(1, 70);
  EXPECT_EQ(e.block_state(1), BlockState::InSlow);
  EXPECT_EQ(e.refcount(1), 0u);
  x.arrive(make_task(2, 1, {{1, AccessMode::ReadWrite}}));
  EXPECT_EQ(e.stats().fetch_bytes, 40u + 70u);
  EXPECT_EQ(x.run_order, (std::vector<TaskId>{1, 2}));
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
}

TEST(PolicyBlockTable, LookupPastTheEndDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
  EXPECT_DEATH((void)e.block_state(1), "unknown block id");
  EXPECT_DEATH((void)e.refcount(mem::kInvalidBlock), "unknown block id");
  EXPECT_DEATH({ auto c = e.on_fetch_complete(3); (void)c; },
               "unknown block id");
}

TEST(PolicyBlockTable, LookupOfAGapDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  e.add_block(4, 10);
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
  EXPECT_DEATH((void)e.block_state(2), "unknown block id");
  EXPECT_DEATH(e.remove_block(3), "unknown block id");
  EXPECT_DEATH(
      {
        auto c =
            e.on_task_arrived(make_task(1, 0, {{2, AccessMode::ReadOnly}}));
        (void)c;
      },
      "unregistered block");
}

TEST(PolicyBlockTable, DuplicateIdDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(3, 10);
  EXPECT_DEATH(e.add_block(3, 10), "duplicate block id");
}

TEST(PolicyBlockTable, AbsurdIdDies) {
  // Growth is bounded: an id far past the table is a stray value, not
  // a request for a multi-gigabyte table.
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  EXPECT_DEATH(e.add_block(mem::kInvalidBlock - 1, 10), "too far past");
  EXPECT_DEATH(e.add_block(1 + PolicyEngine::kMaxBlockIdGap, 10),
               "too far past");
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
}

// ---------- task lifecycle ----------

// Ids are unique among *live* tasks only: completion drops the task's
// record, so the engine keeps no state for finished work (a long run
// would otherwise grow the task map by one record per task) and a
// finished id may be submitted again.
TEST(PolicyLifecycle, CompletedTaskIdMayBeResubmitted) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  InstantExecutor x(e);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadWrite}}));
  ASSERT_TRUE(e.quiescent());
  EXPECT_EQ(e.live_tasks(), 0u);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadOnly}}));
  EXPECT_EQ(x.run_order, (std::vector<TaskId>{1, 1}));
  EXPECT_EQ(e.stats().tasks_run, 2u);
  EXPECT_TRUE(e.quiescent());
  EXPECT_TRUE(e.audit_invariants(/*at_quiescence=*/true).empty());
  // The retired id is gone: completing it again is a protocol error.
  EXPECT_DEATH({ auto c = e.on_task_complete(1); (void)c; },
               "unknown task");
}

TEST(PolicyErrors, DuplicateTaskIdDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  InstantExecutor x(e, false);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadOnly}}));
  EXPECT_DEATH(
      { auto c = e.on_task_arrived(make_task(1, 0, {})); (void)c; },
      "duplicate task");
}

TEST(PolicyErrors, UnknownBlockDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  EXPECT_DEATH(
      {
        auto c =
            e.on_task_arrived(make_task(1, 0, {{7, AccessMode::ReadOnly}}));
        (void)c;
      },
      "unregistered block");
}

TEST(PolicyErrors, DuplicateDepDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  EXPECT_DEATH(
      {
        auto c = e.on_task_arrived(make_task(
            1, 0, {{0, AccessMode::ReadOnly}, {0, AccessMode::ReadWrite}}));
        (void)c;
      },
      "duplicate dependence");
}

TEST(PolicyErrors, CompleteBeforeRunDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 200); // won't be admitted (wedge is a different path)
  EXPECT_DEATH({ auto c = e.on_task_complete(99); (void)c; },
               "unknown task");
}

TEST(PolicyErrors, StrayFetchCompleteDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  EXPECT_DEATH({ auto c = e.on_fetch_complete(0); (void)c; },
               "not being fetched");
}

TEST(PolicyErrors, RemoveClaimedBlockDies) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  InstantExecutor x(e, false);
  x.arrive(make_task(1, 0, {{0, AccessMode::ReadOnly}}));
  EXPECT_DEATH(e.remove_block(0), "claimed");
}

TEST(PolicyErrors, RemoveIdleBlockWorks) {
  PolicyEngine e(cfg(Strategy::MultiIo, 100));
  e.add_block(0, 10);
  e.remove_block(0);
  EXPECT_DEATH((void)e.block_state(0), "unknown block");
}

} // namespace
} // namespace hmr::ooc
