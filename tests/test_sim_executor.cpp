// Integration tests for the discrete-event executor: end-to-end runs of
// the paper's workloads at reduced scale, invariants across strategies,
// and the qualitative orderings the paper reports.

#include <gtest/gtest.h>

#include "sim/matmul_workload.hpp"
#include "sim/sim_executor.hpp"
#include "sim/stencil_workload.hpp"
#include "sim/synthetic_workload.hpp"
#include "util/units.hpp"

namespace hmr::sim {
namespace {

SimConfig base_config(ooc::Strategy s, int pes = 8,
                      std::uint64_t fast_cap = 64 * MiB) {
  SimConfig c;
  c.model = hw::knl_flat_all_to_all();
  c.model.num_pes = pes;
  c.strategy = s;
  c.fast_capacity = fast_cap;
  return c;
}

StencilWorkload small_stencil(int pes = 8, int iters = 2) {
  return StencilWorkload({.total_bytes = 128 * MiB,
                          .num_chares = pes * 4,
                          .num_pes = pes,
                          .iterations = iters});
}

class AllStrategies : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(AllStrategies, StencilRunsToCompletion) {
  const auto w = small_stencil();
  SimExecutor ex(base_config(GetParam()));
  const auto r = ex.run(w);
  EXPECT_EQ(r.tasks_completed, 2u * 32);
  EXPECT_EQ(r.iteration_times.size(), 2u);
  EXPECT_GT(r.total_time, 0.0);
  for (double t : r.iteration_times) EXPECT_GT(t, 0.0);
}

TEST_P(AllStrategies, VirtualTimeIsDeterministic) {
  const auto w = small_stencil();
  SimExecutor a(base_config(GetParam()));
  SimExecutor b(base_config(GetParam()));
  EXPECT_DOUBLE_EQ(a.run(w).total_time, b.run(w).total_time);
}

TEST_P(AllStrategies, SyntheticWithSharingCompletes) {
  SyntheticWorkload::Params p;
  p.num_blocks = 64;
  p.block_bytes = 4 * MiB;
  p.tasks_per_iteration = 96;
  p.deps_per_task = 3;
  p.reuse = 0.6;
  p.num_pes = 8;
  p.num_iterations = 2;
  SyntheticWorkload w(p);
  SimExecutor ex(base_config(GetParam()));
  const auto r = ex.run(w);
  EXPECT_EQ(r.tasks_completed, 192u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, AllStrategies,
    ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::DdrOnly,
                      ooc::Strategy::SingleIo, ooc::Strategy::SyncNoIo,
                      ooc::Strategy::MultiIo),
    [](const auto& pi) { return ooc::strategy_name(pi.param); });

TEST(SimExecutor, HbmOnlyNeedsFittingWorkingSet) {
  // Working set fits: valid.
  const auto w = small_stencil();
  auto cfg = base_config(ooc::Strategy::HbmOnly, 8,
                         /*fast_cap=*/512 * MiB);
  SimExecutor ex(cfg);
  const auto r = ex.run(w);
  EXPECT_EQ(r.tasks_completed, 64u);
}

TEST(SimExecutor, Fig2Ordering_HbmBeatsDdrBy3x) {
  // The 3x compute-kernel gap of Fig 2 is a 64-PE bandwidth-sharing
  // effect: run at the paper's PE count.
  StencilWorkload w({.total_bytes = 128 * MiB,
                     .num_chares = 256,
                     .num_pes = 64,
                     .iterations = 2});
  auto hbm_cfg = base_config(ooc::Strategy::HbmOnly, 64, 512 * MiB);
  auto ddr_cfg = base_config(ooc::Strategy::DdrOnly, 64, 512 * MiB);
  const double t_hbm = SimExecutor(hbm_cfg).run(w).total_time;
  const double t_ddr = SimExecutor(ddr_cfg).run(w).total_time;
  EXPECT_NEAR(t_ddr / t_hbm, 3.0, 0.6);
}

TEST(SimExecutor, OutOfCoreOrderingMatchesFig8) {
  // Working set 2x the fast tier, independent blocks (stencil), paper
  // PE count: the ordering is MultiIO < SyncNoIO < Naive < SingleIO
  // in time (Fig 8 reports the inverse as speedup).
  StencilWorkload w({.total_bytes = 128 * MiB,
                     .num_chares = 256,
                     .num_pes = 64,
                     .iterations = 3});
  const std::uint64_t cap = 64 * MiB;
  auto run = [&](ooc::Strategy s) {
    return SimExecutor(base_config(s, 64, cap)).run(w).total_time;
  };
  const double naive = run(ooc::Strategy::Naive);
  const double multi = run(ooc::Strategy::MultiIo);
  const double sync = run(ooc::Strategy::SyncNoIo);
  const double single = run(ooc::Strategy::SingleIo);
  EXPECT_LT(multi, naive);  // prefetch wins
  EXPECT_LT(multi, sync);   // async beats sync
  EXPECT_GT(single, naive); // single IO thread is a net loss here
}

TEST(SimExecutor, MatmulReuseMakesSingleIoCompetitive) {
  // Fig 9: with heavy read-only reuse the single IO thread is about as
  // good as multiple IO threads.
  MatmulWorkload w({.n = 4096, .grid = 16, .num_pes = 16});
  // Room for a couple of row waves of panels.
  const std::uint64_t cap = 40 * w.panel_bytes();
  auto run = [&](ooc::Strategy s) {
    return SimExecutor(base_config(s, 16, cap)).run(w).total_time;
  };
  const double multi = run(ooc::Strategy::MultiIo);
  const double single = run(ooc::Strategy::SingleIo);
  EXPECT_LT(single / multi, 1.35);
}

TEST(SimExecutor, PrefetchReducesFetchTrafficUnderReuse) {
  MatmulWorkload w({.n = 512, .grid = 8, .num_pes = 8});
  SimExecutor ex(base_config(ooc::Strategy::MultiIo, 8, 16 * MiB));
  const auto r = ex.run(w);
  // 64 tasks x 3 deps = 192 claims, but panel sharing must dedup or
  // chain most of them: far fewer actual migrations.
  EXPECT_EQ(r.tasks_completed, 64u);
  EXPECT_LT(r.policy.fetches, 192u);
}

TEST(SimExecutor, SyncStrategyChargesWorkers) {
  const auto w = small_stencil();
  SimExecutor sync_ex(base_config(ooc::Strategy::SyncNoIo));
  SimExecutor multi_ex(base_config(ooc::Strategy::MultiIo));
  const auto rs = sync_ex.run(w);
  const auto rm = multi_ex.run(w);
  EXPECT_GT(rs.worker_transfer_seconds, 0.0);
  EXPECT_EQ(rm.worker_transfer_seconds, 0.0); // fully async
}

TEST(SimExecutor, TraceAccountsForAllLanes) {
  auto cfg = base_config(ooc::Strategy::MultiIo);
  cfg.trace = true;
  SimExecutor ex(cfg);
  const auto w = small_stencil();
  const auto r = ex.run(w);
  const auto s = ex.tracer().summarize(/*worker_lanes=*/8);
  EXPECT_GT(s.total_of(trace::Category::Compute), 0.0);
  // Compute lane-seconds from the tracer must match the result stats.
  EXPECT_NEAR(s.total_of(trace::Category::Compute), r.compute_lane_seconds,
              1e-9 * r.compute_lane_seconds);
  // IO lanes carry the prefetch/evict load.
  const auto all = ex.tracer().summarize();
  EXPECT_GT(all.total_of(trace::Category::Prefetch), 0.0);
  EXPECT_GT(all.total_of(trace::Category::Evict), 0.0);
}

TEST(SimExecutor, NocopyWriteonlySpeedsUpWriteHeavyWork) {
  SyntheticWorkload::Params p;
  p.num_blocks = 64;
  p.block_bytes = 8 * MiB;
  p.tasks_per_iteration = 64;
  p.deps_per_task = 2;
  p.readonly_frac = 0.0;
  p.num_pes = 8;
  SyntheticWorkload w(p);
  // Mark all deps WriteOnly via a copy of the tasks is not possible
  // through the Workload interface; instead compare a config where the
  // optimization is off vs on using ReadWrite (no effect) as control.
  auto cfg_off = base_config(ooc::Strategy::MultiIo, 8, 32 * MiB);
  auto cfg_on = cfg_off;
  cfg_on.writeonly_nocopy = true;
  const double t_off = SimExecutor(cfg_off).run(w).total_time;
  const double t_on = SimExecutor(cfg_on).run(w).total_time;
  // ReadWrite deps: optimization must not change anything.
  EXPECT_DOUBLE_EQ(t_off, t_on);
}

TEST(SimExecutor, LazyEvictionNeverSlower) {
  MatmulWorkload w({.n = 512, .grid = 8, .num_pes = 8});
  auto eager = base_config(ooc::Strategy::MultiIo, 8, 32 * MiB);
  auto lazy = eager;
  lazy.eager_evict = false;
  const auto re = SimExecutor(eager).run(w);
  const auto rl = SimExecutor(lazy).run(w);
  EXPECT_LE(rl.total_time, re.total_time * 1.001);
  EXPECT_LE(rl.policy.fetch_bytes, re.policy.fetch_bytes);
}

TEST(SimExecutor, IoThreadSubgroupsStillComplete) {
  const auto w = small_stencil();
  for (int k : {1, 2, 4}) {
    auto cfg = base_config(ooc::Strategy::MultiIo);
    cfg.io_threads = k;
    SimExecutor ex(cfg);
    EXPECT_EQ(ex.run(w).tasks_completed, 64u) << "io_threads=" << k;
  }
}

TEST(SimExecutor, RunTwiceDies) {
  SimExecutor ex(base_config(ooc::Strategy::Naive));
  const auto w = small_stencil();
  (void)ex.run(w);
  EXPECT_DEATH((void)ex.run(w), "only be called once");
}

TEST(SimExecutor, AdaptiveRequiresMovementStrategy) {
  auto cfg = base_config(ooc::Strategy::Naive);
  cfg.adaptive = true;
  EXPECT_DEATH({ SimExecutor ex(cfg); }, "movement strategy");
}

TEST(SimExecutor, TenancyWithAdaptiveGuidanceDies) {
  // Same refusal as the threaded runtime: tenancy and adaptive
  // guidance both claim the engine's one advisor slot.
  auto cfg = base_config(ooc::Strategy::MultiIo);
  cfg.adaptive = true;
  serve::TenantDesc t;
  t.name = "solo";
  cfg.serve.tenants.push_back(t);
  EXPECT_DEATH({ SimExecutor ex(cfg); }, "advisor slot");
}

TEST(SimExecutor, AdaptiveStationaryStencilMatchesFixed) {
  // On a stationary workload the governor has nothing to fix: an
  // adaptive run from the paper's default configuration must track the
  // fixed MultiIo run closely.
  const auto w = small_stencil(8, /*iters=*/4);
  const auto fixed = SimExecutor(base_config(ooc::Strategy::MultiIo)).run(w);
  auto cfg = base_config(ooc::Strategy::MultiIo);
  cfg.adaptive = true;
  SimExecutor ex(cfg);
  const auto r = ex.run(w);
  EXPECT_EQ(r.tasks_completed, fixed.tasks_completed);
  EXPECT_LE(r.total_time, fixed.total_time * 1.05);
  ASSERT_NE(ex.governor(), nullptr);
  // One governor step per interior iteration boundary.
  EXPECT_EQ(ex.governor()->phases_observed(), 3);
}

TEST(SimExecutor, AdaptivePhaseFlipSwitchesEvictionOnline) {
  // Streaming first half, heavy read-mostly reuse of a small window in
  // the second: the refetch ratio jumps at the flip and the governor
  // must move off eager eviction mid-run.
  SyntheticWorkload::Params p;
  p.num_blocks = 96;
  p.block_bytes = 4 * MiB; // 384 MiB working set vs 64 MiB fast tier
  p.tasks_per_iteration = 64;
  p.deps_per_task = 2;
  p.num_pes = 8;
  p.num_iterations = 8;
  p.readonly_frac = 0.8;
  p.reuse = 0.0;
  p.flip_iteration = 4;
  p.reuse_after = 0.9;
  p.window_after = 8;
  const SyntheticWorkload w(p);
  auto cfg = base_config(ooc::Strategy::MultiIo);
  cfg.adaptive = true;
  cfg.profiler_cfg.top_k = 128;
  SimExecutor ex(cfg);
  const auto r = ex.run(w);
  EXPECT_EQ(r.tasks_completed, 8u * 64u);
  EXPECT_GE(r.governor_switches, 1u);
  EXPECT_FALSE(r.final_eager_evict);
  EXPECT_GT(r.policy.lru_reclaims, 0u);
  ASSERT_NE(ex.profiler(), nullptr);
  EXPECT_LE(ex.profiler()->tracked(), cfg.profiler_cfg.top_k);
}

TEST(SimExecutor, AdaptiveRunIsDeterministic) {
  SyntheticWorkload::Params p;
  p.num_blocks = 48;
  p.block_bytes = 4 * MiB;
  p.tasks_per_iteration = 32;
  p.num_pes = 8;
  p.num_iterations = 4;
  p.flip_iteration = 2;
  p.reuse_after = 0.8;
  const SyntheticWorkload w(p);
  auto cfg = base_config(ooc::Strategy::MultiIo);
  cfg.adaptive = true;
  SimExecutor a(cfg);
  SimExecutor b(cfg);
  const auto ra = a.run(w);
  const auto rb = b.run(w);
  EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time);
  EXPECT_EQ(ra.governor_switches, rb.governor_switches);
  EXPECT_EQ(ra.final_eager_evict, rb.final_eager_evict);
}

} // namespace
} // namespace hmr::sim
