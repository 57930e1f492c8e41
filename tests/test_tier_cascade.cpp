// N-tier placement hierarchy: demotion-cascade behaviour on three-level
// engines (docs/TIERS.md).  Covers target selection (first lower level
// with room, overflow to the unbounded bottom), watermark trims off
// middle levels, promotion out of a middle level, advice-forced deep
// demotion (kLevelFar), the no-cascade ablation switch, the tracer's
// per-tier-pair traffic accounting, and a three-tier end-to-end sim
// smoke.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hw/machine_model.hpp"
#include "ooc/policy_engine.hpp"
#include "sim/sim_executor.hpp"
#include "sim/stencil_workload.hpp"
#include "trace/tracer.hpp"
#include "util/units.hpp"

namespace {

using namespace hmr;

// Distinctive tier ids prove command labels come from TierDesc::id,
// not from hierarchy positions: top=7, middle=5, bottom=3.
constexpr ooc::TierId kTop = 7, kMid = 5, kBot = 3;

ooc::PolicyEngine::Config three_level(std::uint64_t top_cap,
                                      std::uint64_t mid_cap,
                                      double mid_watermark = 1.0) {
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 1;
  cfg.tiers = {{kTop, top_cap, 1.0}, {kMid, mid_cap, mid_watermark},
               {kBot, 0, 1.0}};
  return cfg;
}

/// Depth-first pump: execute every command immediately, in order.
void pump(ooc::PolicyEngine& e, std::vector<ooc::Command> cmds,
          std::vector<ooc::Command>* log = nullptr) {
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (log != nullptr) log->push_back(cmds[i]);
    std::vector<ooc::Command> more;
    switch (cmds[i].kind) {
      case ooc::Command::Kind::Fetch:
        more = e.on_fetch_complete(cmds[i].block);
        break;
      case ooc::Command::Kind::Evict:
        more = e.on_evict_complete(cmds[i].block);
        break;
      case ooc::Command::Kind::Run:
        more = e.on_task_complete(cmds[i].task);
        break;
    }
    cmds.insert(cmds.end(), more.begin(), more.end());
  }
}

ooc::TaskDesc one_dep_task(ooc::TaskId id, ooc::BlockId b) {
  ooc::TaskDesc d;
  d.id = id;
  d.pe = 0;
  d.deps = {{b, ooc::AccessMode::ReadWrite}};
  return d;
}

/// Run a one-dep task to completion and return the commands it caused.
std::vector<ooc::Command> run_task(ooc::PolicyEngine& e, ooc::TaskId id,
                                   ooc::BlockId b) {
  std::vector<ooc::Command> log;
  pump(e, e.on_task_arrived(one_dep_task(id, b)), &log);
  return log;
}

std::vector<ooc::Command> evicts_of(const std::vector<ooc::Command>& log) {
  std::vector<ooc::Command> v;
  for (const auto& c : log)
    if (c.kind == ooc::Command::Kind::Evict) v.push_back(c);
  return v;
}

// ------------------------------------------------------------- tests

TEST(TierCascade, EvictionsFillMiddleThenOverflowToBottom) {
  ooc::PolicyEngine e(three_level(/*top=*/100, /*mid=*/200));
  for (ooc::BlockId b = 0; b < 3; ++b)
    EXPECT_EQ(e.add_block(b, 100), kBot); // movement: born on the bottom

  // First two evictions land on the middle level (room for 2 x 100).
  for (ooc::BlockId b = 0; b < 2; ++b) {
    const auto ev = evicts_of(run_task(e, 1 + b, b));
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].src_tier, kTop);
    EXPECT_EQ(ev[0].dst_tier, kMid);
  }
  EXPECT_EQ(e.tier_used(1), 200u);

  // Middle full: the third eviction overflows to the bottom.
  const auto ev = evicts_of(run_task(e, 3, 2));
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].src_tier, kTop);
  EXPECT_EQ(ev[0].dst_tier, kBot);

  EXPECT_EQ(e.stats().cascade_demotions, 2u);
  EXPECT_EQ(e.stats().tier_trims, 0u);
  EXPECT_TRUE(e.quiescent());
}

TEST(TierCascade, PromotionDrainsTheMiddleLevel) {
  ooc::PolicyEngine e(three_level(/*top=*/100, /*mid=*/200));
  e.add_block(0, 100);
  run_task(e, 1, 0); // fetch bottom->top, evict top->middle
  EXPECT_EQ(e.block_tier(0), kMid);
  EXPECT_EQ(e.tier_used(1), 100u);

  // Re-running the block promotes it out of the middle level...
  const auto log = run_task(e, 2, 0);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log[0].kind, ooc::Command::Kind::Fetch);
  EXPECT_EQ(log[0].src_tier, kMid);
  EXPECT_EQ(log[0].dst_tier, kTop);
  // ...after which it was evicted again and the middle holds it again
  // (capacity freed on promotion was reusable for the re-demotion).
  EXPECT_EQ(e.block_tier(0), kMid);
  EXPECT_EQ(e.tier_used(1), 100u);
  EXPECT_TRUE(e.quiescent());
}

TEST(TierCascade, WatermarkTrimsColdestOffTheMiddle) {
  // Middle watermark 0.5 of 200: at most 100 resident bytes survive a
  // trim pass; landing the second block triggers a middle->bottom trim
  // of the coldest (first-demoted) block.
  ooc::PolicyEngine e(three_level(/*top=*/100, /*mid=*/200,
                                  /*mid_watermark=*/0.5));
  e.add_block(0, 100);
  e.add_block(1, 100);
  run_task(e, 1, 0);
  const auto log = run_task(e, 2, 1);
  const auto ev = evicts_of(log);
  // Eviction of block 1 to the middle, then the trim of block 0 to the
  // bottom scheduled in the same command batch.
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].block, 1u);
  EXPECT_EQ(ev[0].dst_tier, kMid);
  EXPECT_EQ(ev[1].block, 0u);
  EXPECT_EQ(ev[1].src_tier, kMid);
  EXPECT_EQ(ev[1].dst_tier, kBot);
  EXPECT_EQ(e.stats().tier_trims, 1u);
  EXPECT_EQ(e.block_tier(0), kBot);
  EXPECT_EQ(e.block_tier(1), kMid);
  EXPECT_TRUE(e.quiescent());
}

TEST(TierCascade, KLevelFarAdviceSkipsTheMiddle) {
  struct FarAdvisor final : ooc::AdviceProvider {
    ooc::BlockAdvice advise(ooc::BlockId, std::uint64_t) const override {
      ooc::BlockAdvice a;
      a.demote_level = ooc::kLevelFar;
      return a;
    }
    bool may_bypass() const override { return false; }
  } advisor;

  auto cfg = three_level(/*top=*/100, /*mid=*/200);
  cfg.advisor = &advisor;
  ooc::PolicyEngine e(cfg);
  e.add_block(0, 100);
  const auto ev = evicts_of(run_task(e, 1, 0));
  ASSERT_EQ(ev.size(), 1u); // middle has room, yet advice forces bottom
  EXPECT_EQ(ev[0].src_tier, kTop);
  EXPECT_EQ(ev[0].dst_tier, kBot);
  EXPECT_EQ(e.stats().cascade_demotions, 0u);
  EXPECT_TRUE(e.quiescent());
}

TEST(TierCascade, NoCascadeDemotesStraightToBottom) {
  auto cfg = three_level(/*top=*/100, /*mid=*/200);
  cfg.demote_cascade = false;
  ooc::PolicyEngine e(cfg);
  for (ooc::BlockId b = 0; b < 2; ++b) e.add_block(b, 100);
  for (ooc::BlockId b = 0; b < 2; ++b) {
    const auto ev = evicts_of(run_task(e, 1 + b, b));
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].dst_tier, kBot);
  }
  EXPECT_EQ(e.stats().cascade_demotions, 0u);
  EXPECT_EQ(e.tier_used(1), 0u); // middle never touched
  EXPECT_TRUE(e.quiescent());
}

TEST(TierCascade, TracerAccumulatesPerTierPairTraffic) {
  trace::Tracer t(/*enabled=*/true);
  t.record_migration(0, trace::Category::Prefetch, 0.0, 1.0, 1, kBot, kTop,
                     1000);
  t.record_migration(0, trace::Category::Prefetch, 1.0, 2.0, 2, kBot, kTop,
                     500);
  t.record_migration(0, trace::Category::Evict, 2.0, 4.0, 1, kTop, kMid,
                     700);
  const auto s = t.summarize();
  ASSERT_EQ(s.migrations.size(), 2u);
  const auto up = s.migration_between(kBot, kTop);
  EXPECT_EQ(up.bytes, 1500u);
  EXPECT_EQ(up.count, 2u);
  EXPECT_DOUBLE_EQ(up.seconds, 2.0);
  const auto down = s.migration_between(kTop, kMid);
  EXPECT_EQ(down.bytes, 700u);
  EXPECT_EQ(down.count, 1u);
  // Absent pair: zeroed record with the ids filled in.
  EXPECT_EQ(s.migration_between(kMid, kBot).bytes, 0u);

  // Windowed summaries prorate bytes by clipped overlap: the evict
  // interval [2,4) overlaps [0,3) for half its span.
  const auto w = t.summarize(/*worker_lanes=*/-1, 0.0, 3.0);
  EXPECT_EQ(w.migration_between(kTop, kMid).bytes, 350u);
  EXPECT_EQ(w.migration_between(kBot, kTop).bytes, 1500u);
}

TEST(TierCascade, ThreeTierSimSmoke) {
  const auto model = hw::three_tier_hbm_ddr_nvm();
  const auto p = sim::StencilWorkload::params_for_reduced(
      48 * GiB, 8 * GiB, model.num_pes, /*iterations=*/2);
  sim::SimConfig cfg;
  cfg.model = model;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.trace = true;
  sim::SimExecutor ex(cfg);
  const auto r = ex.run(sim::StencilWorkload(p));
  EXPECT_GT(r.total_time, 0.0);
  EXPECT_GT(r.policy.cascade_demotions, 0u);
  // Working set (48G) exceeds HBM (16G) but fits HBM+DDR: steady-state
  // refetches come over the DDR->HBM channel, not from NVM.
  const auto sum = ex.tracer().summarize();
  EXPECT_GT(sum.migration_between(2, model.fast).bytes, 0u);
  EXPECT_GT(sum.migration_between(model.fast, 2).bytes, 0u);
}

} // namespace
