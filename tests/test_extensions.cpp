// Tests for the future-work extensions: KNL cache-mode model,
// node-level run queue, fair admission, Chrome trace export, and the
// synthetic workload's task-time jitter.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "hw/machine_model.hpp"
#include "ooc/policy_engine.hpp"
#include "sim/sim_executor.hpp"
#include "sim/cluster.hpp"
#include "sim/stencil_workload.hpp"
#include "sim/synthetic_workload.hpp"
#include "trace/tracer.hpp"
#include "util/units.hpp"

namespace hmr {
namespace {

// ---------- cache-mode model ----------

TEST(CacheMode, HitRatioShape) {
  const auto m = hw::knl_flat_all_to_all();
  // Small sets fit entirely (modulo the conflict factor).
  EXPECT_DOUBLE_EQ(m.cache_mode_hit_ratio(1 * GiB), 1.0);
  // At exactly the MCDRAM size, conflicts already bite.
  EXPECT_LT(m.cache_mode_hit_ratio(16 * GiB), 1.0);
  EXPECT_GT(m.cache_mode_hit_ratio(16 * GiB), 0.5);
  // Far out of core: ratio ~ effective_capacity / wss.
  EXPECT_NEAR(m.cache_mode_hit_ratio(64 * GiB),
              16.0 * m.cache_conflict_factor / 64.0, 1e-12);
}

TEST(CacheMode, BandwidthBracketsFlatModes) {
  const auto m = hw::knl_flat_all_to_all();
  // In-core: close to MCDRAM speed.
  EXPECT_GT(m.cache_mode_bw(4 * GiB), 0.9 * m.tier(m.fast).read_bw);
  // Way out of core: *below* flat DDR4 (misses pay read + fill).
  EXPECT_LT(m.cache_mode_bw(96 * GiB), m.tier(m.slow).read_bw);
}

TEST(CacheMode, ComputeTimeMonotoneInWss) {
  const auto m = hw::knl_flat_all_to_all();
  double prev = 0;
  for (std::uint64_t wss : {4ull, 8ull, 16ull, 32ull, 64ull}) {
    // Flat inside the effective capacity (hit ratio pinned at 1),
    // strictly increasing once conflicts and capacity misses start.
    const double t = m.cache_mode_compute_time(64 * MiB, wss * GiB, 64);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_GT(m.cache_mode_compute_time(64 * MiB, 64 * GiB, 64),
            m.cache_mode_compute_time(64 * MiB, 16 * GiB, 64));
}

TEST(CacheMode, SimRunsAndBeatsDdrInCore) {
  // 64 PEs so bandwidth (not the per-PE compute floor) dominates.
  sim::StencilWorkload w({.total_bytes = 256 * MiB,
                          .num_chares = 128,
                          .num_pes = 64,
                          .iterations = 2});
  auto model = hw::knl_flat_all_to_all();

  sim::SimConfig cache_cfg;
  cache_cfg.model = model;
  cache_cfg.cache_mode = true;
  const auto cache = sim::SimExecutor(cache_cfg).run(w);
  EXPECT_EQ(cache.tasks_completed, 256u);
  EXPECT_EQ(cache.policy.fetches, 0u); // hardware caching: no migrations

  sim::SimConfig ddr_cfg;
  ddr_cfg.model = model;
  ddr_cfg.strategy = ooc::Strategy::DdrOnly;
  const auto ddr = sim::SimExecutor(ddr_cfg).run(w);
  // 256 MiB working set fits the cache: near-MCDRAM speed.
  EXPECT_LT(cache.total_time, 0.5 * ddr.total_time);
}

TEST(CacheMode, SimLosesToRuntimeOutOfCore) {
  auto model = hw::knl_flat_all_to_all();
  const auto p = sim::StencilWorkload::params_for_reduced(
      32 * GiB, 2 * GiB, model.num_pes, /*iterations=*/3);
  sim::StencilWorkload w(p);

  sim::SimConfig cache_cfg;
  cache_cfg.model = model;
  cache_cfg.cache_mode = true;
  const double t_cache = sim::SimExecutor(cache_cfg).run(w).total_time;

  sim::SimConfig multi_cfg;
  multi_cfg.model = model;
  multi_cfg.strategy = ooc::Strategy::MultiIo;
  const double t_multi = sim::SimExecutor(multi_cfg).run(w).total_time;
  EXPECT_GT(t_cache, 1.5 * t_multi);
}

// ---------- node-level run queue ----------

TEST(NodeRunQueue, CompletesAndNeverSlower) {
  sim::SyntheticWorkload::Params p;
  p.num_blocks = 128;
  p.block_bytes = 8 * MiB;
  p.tasks_per_iteration = 100;
  p.deps_per_task = 2;
  p.num_pes = 8;
  p.wf_min = 1.0;
  p.wf_max = 6.0; // variance: the node queue should help
  sim::SyntheticWorkload w(p);

  auto run = [&](bool node_q) {
    sim::SimConfig cfg;
    cfg.model = hw::knl_flat_all_to_all();
    cfg.model.num_pes = 8;
    cfg.strategy = ooc::Strategy::MultiIo;
    cfg.fast_capacity = 256 * MiB;
    cfg.node_run_queue = node_q;
    sim::SimExecutor ex(cfg);
    return ex.run(w);
  };
  const auto per_pe = run(false);
  const auto node = run(true);
  EXPECT_EQ(per_pe.tasks_completed, 100u);
  EXPECT_EQ(node.tasks_completed, 100u);
  EXPECT_LE(node.total_time, per_pe.total_time * 1.0001);
}

TEST(NodeRunQueue, WorksUnderSyncStrategy) {
  sim::StencilWorkload w({.total_bytes = 64 * MiB,
                          .num_chares = 24, // 3 per PE
                          .num_pes = 8,
                          .iterations = 2});
  sim::SimConfig cfg;
  cfg.model = hw::knl_flat_all_to_all();
  cfg.model.num_pes = 8;
  cfg.strategy = ooc::Strategy::SyncNoIo;
  cfg.fast_capacity = 32 * MiB;
  cfg.node_run_queue = true;
  const auto r = sim::SimExecutor(cfg).run(w);
  EXPECT_EQ(r.tasks_completed, 48u);
}

// ---------- fair admission ----------

TEST(FairAdmission, CapsPerPeClaims) {
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 4;
  cfg.fast_capacity = 400; // fair share = 100
  ooc::PolicyEngine eng(cfg);
  for (ooc::BlockId b = 0; b < 8; ++b) eng.add_block(b, 60);

  // PE 0 floods its queue: with fair admission only one 60-byte task
  // fits its 100-byte share at a time plus the zero-claim guarantee.
  std::vector<ooc::Command> all;
  for (ooc::TaskId t = 1; t <= 4; ++t) {
    ooc::TaskDesc d;
    d.id = t;
    d.pe = 0;
    d.deps = {{t - 1, ooc::AccessMode::ReadWrite}};
    auto c = eng.on_task_arrived(d);
    all.insert(all.end(), c.begin(), c.end());
  }
  std::size_t fetches = 0;
  for (const auto& c : all) fetches += c.kind == ooc::Command::Kind::Fetch;
  // Unbounded greed would admit all 4 (240 <= 400); the fair share
  // admits 1 (progress) and blocks the rest (60 + 60 > 100).
  EXPECT_EQ(fetches, 1u);
  EXPECT_EQ(eng.total_waiting(), 3u);
}

TEST(FairAdmission, DisabledRestoresGreed) {
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 4;
  cfg.fast_capacity = 400;
  cfg.fair_admission = false;
  ooc::PolicyEngine eng(cfg);
  for (ooc::BlockId b = 0; b < 8; ++b) eng.add_block(b, 60);
  std::size_t fetches = 0;
  for (ooc::TaskId t = 1; t <= 4; ++t) {
    ooc::TaskDesc d;
    d.id = t;
    d.pe = 0;
    d.deps = {{t - 1, ooc::AccessMode::ReadWrite}};
    for (const auto& c : eng.on_task_arrived(d)) {
      fetches += c.kind == ooc::Command::Kind::Fetch;
    }
  }
  EXPECT_EQ(fetches, 4u); // greedy drain takes everything that fits
}

// ---------- chrome trace export ----------

TEST(ChromeTrace, EmitsValidEventArray) {
  trace::Tracer t;
  t.record(0, trace::Category::Compute, 0.001, 0.002, 42);
  t.record(1, trace::Category::Prefetch, 0.0, 0.0005);
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(out.find("\"task\":42"), std::string::npos);
  // Exactly two complete events.
  std::size_t events = 0;
  for (std::size_t pos = out.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = out.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(out[out.size() - 2], ']');
}

// ---------- hybrid mode ----------

TEST(HybridMode, CacheCapacityOverloadConsistent) {
  const auto m = hw::knl_flat_all_to_all();
  EXPECT_DOUBLE_EQ(m.cache_mode_bw(32 * GiB),
                   m.cache_mode_bw(32 * GiB, m.tier(m.fast).capacity));
  // Smaller cache, lower effective bandwidth out of core.
  EXPECT_LT(m.cache_mode_bw(32 * GiB, 4 * GiB),
            m.cache_mode_bw(32 * GiB, 16 * GiB));
}

TEST(HybridMode, ShrinksThePrefetchBudget) {
  sim::StencilWorkload w({.total_bytes = 256 * MiB,
                          .num_chares = 64,
                          .num_pes = 8,
                          .iterations = 2});
  auto model = hw::knl_flat_all_to_all();
  model.num_pes = 8;
  model.tiers[model.fast].capacity = 128 * MiB;

  auto run = [&](double frac) {
    sim::SimConfig cfg;
    cfg.model = model;
    cfg.strategy = ooc::Strategy::MultiIo;
    cfg.hybrid_cache_fraction = frac;
    sim::SimExecutor ex(cfg);
    return ex.run(w);
  };
  const auto flat = run(0.0);
  const auto hybrid = run(0.5);
  EXPECT_EQ(flat.tasks_completed, hybrid.tasks_completed);
  // Half the budget cannot admit more bytes than the full budget did.
  EXPECT_LE(hybrid.policy.fetch_bytes,
            flat.policy.fetch_bytes + w.total_bytes());
  // Fully-annotated workload: hybrid is never faster than flat.
  EXPECT_GE(hybrid.total_time, flat.total_time * 0.999);
}

TEST(HybridMode, SprPresetSane) {
  const auto m = hw::spr_hbm_flat();
  ASSERT_EQ(m.tiers.size(), 2u);
  EXPECT_EQ(m.tier(m.fast).name, "HBM2e");
  EXPECT_GT(m.tier(m.fast).read_bw, 2.0 * m.tier(m.slow).read_bw);
  EXPECT_EQ(m.tier(m.fast).capacity, 64 * GiB);
  // The runtime works unchanged on the modern node.
  sim::StencilWorkload w({.total_bytes = 128 * MiB,
                          .num_chares = 56,
                          .num_pes = m.num_pes,
                          .iterations = 2});
  sim::SimConfig cfg;
  cfg.model = m;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.fast_capacity = 64 * MiB;
  EXPECT_EQ(sim::SimExecutor(cfg).run(w).tasks_completed, 112u);
}

// ---------- multi-node cluster model ----------

TEST(Cluster, HaloScalesWithSurface) {
  // 8x the volume -> 4x the surface.
  const auto h1 = sim::halo_bytes(4 * GiB);
  const auto h8 = sim::halo_bytes(32 * GiB);
  EXPECT_NEAR(static_cast<double>(h8) / static_cast<double>(h1), 4.0,
              0.05);
}

TEST(Cluster, HaloTimeLatencyVsBandwidthRegimes) {
  sim::NetworkModel net;
  // Tiny halo: latency-bound (6 messages).
  EXPECT_NEAR(sim::halo_time(net, 64), 6 * net.latency, 1e-6);
  // Huge halo: bandwidth-bound.
  const std::uint64_t big = 1ull << 30;
  EXPECT_NEAR(sim::halo_time(net, big),
              static_cast<double>(big) / net.injection_bw, 1e-3);
}

TEST(Cluster, SingleNodeHasNoComm) {
  cluster::ClusterConfig p;
  p.nodes = 1;
  p.bytes_per_node = 1 * GiB;
  p.reduced_bytes = 256 * MiB;
  p.iterations = 2;
  const auto r = cluster::ClusterSim(p).run();
  EXPECT_EQ(r.halo_bytes_per_node, 0u);
  EXPECT_DOUBLE_EQ(r.comm_fraction, 0.0);
  EXPECT_GT(r.iteration_s, 0.0);
}

TEST(Cluster, WeakScalingPreservesNodeSpeedup) {
  cluster::ClusterConfig base;
  // Shrink the node's fast tier so a 2 GiB per-node set is out of core
  // (the regime where the runtime helps) while the test stays fast.
  base.node.tiers[base.node.fast].capacity = 512 * MiB;
  base.bytes_per_node = 2 * GiB;
  base.reduced_bytes = 128 * MiB;
  base.iterations = 2;

  auto at = [&](int n, ooc::Strategy s) {
    cluster::ClusterConfig p = base;
    p.nodes = n;
    p.strategy = s;
    return cluster::ClusterSim(p).run();
  };
  for (int n : {2, 16}) {
    const auto naive = at(n, ooc::Strategy::Naive);
    const auto multi = at(n, ooc::Strategy::MultiIo);
    EXPECT_GT(naive.iteration_s / multi.iteration_s, 1.2)
        << "at " << n << " nodes";
    // Weak scaling: per-node halo identical across node counts.
    EXPECT_EQ(naive.halo_bytes_per_node, multi.halo_bytes_per_node);
  }
}

TEST(Cluster, SweepIsDeterministicAndOrdered) {
  cluster::ClusterConfig base;
  base.bytes_per_node = 1 * GiB;
  base.reduced_bytes = 256 * MiB;
  base.iterations = 2;
  // Weak scaling: node counts vary, the per-node working set does not.
  const auto sweep = [&] {
    std::vector<cluster::ClusterRunResult> out;
    for (const int n : {1, 2, 4}) {
      cluster::ClusterConfig p = base;
      p.nodes = n;
      out.push_back(cluster::ClusterSim(p).run());
    }
    return out;
  };
  const auto a = sweep();
  const auto b = sweep();
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].total_s, b[i].total_s);
  }
  // Comm appears exactly when nodes > 1.
  EXPECT_DOUBLE_EQ(a[0].comm_fraction, 0.0);
  EXPECT_GT(a[1].comm_fraction, 0.0);
}

// ---------- synthetic jitter ----------

TEST(SyntheticJitter, WorkFactorsWithinRangeAndDeterministic) {
  sim::SyntheticWorkload::Params p;
  p.wf_min = 2.0;
  p.wf_max = 9.0;
  p.seed = 31;
  sim::SyntheticWorkload a(p), b(p);
  const auto ta = a.iteration_tasks(0);
  const auto tb = b.iteration_tasks(0);
  double lo = 1e9, hi = 0;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].work_factor, tb[i].work_factor);
    lo = std::min(lo, ta[i].work_factor);
    hi = std::max(hi, ta[i].work_factor);
  }
  EXPECT_GE(lo, 2.0);
  EXPECT_LE(hi, 9.0);
  EXPECT_GT(hi - lo, 1.0); // actually spread out
}

} // namespace
} // namespace hmr
