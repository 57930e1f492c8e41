// Pinned DES outputs: a handful of small SimExecutor runs whose modeled
// total time (bit for bit) and policy counters are fixed here.  The
// engine and the DES are deterministic, so any change to either — a
// refactor of the policy engine's tables, a reordering of events, a
// cheaper tick loop — must reproduce these exactly or say why not.
//
// Coverage: every strategy, eager and lazy eviction, a three-level
// cascade, the node-level run queue and multi-tenant serving.  On a
// mismatch the test prints the run's actual row in table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "sim/sim_executor.hpp"
#include "sim/stencil_workload.hpp"
#include "sim/synthetic_workload.hpp"
#include "util/units.hpp"

namespace hmr::sim {
namespace {

struct Pin {
  const char* name;
  std::uint64_t total_time_bits; // std::bit_cast of SimResult::total_time
  std::uint64_t tasks_run;
  std::uint64_t fetches;
  std::uint64_t fetch_bytes;
  std::uint64_t evicts;
  std::uint64_t evict_bytes;
  std::uint64_t fetch_dedup_hits;
  std::uint64_t lru_reclaims;
  std::uint64_t cascade_demotions;
  std::uint64_t tier_trims;
};

SimConfig knl(ooc::Strategy s, std::uint64_t fast_cap = 48 * MiB) {
  SimConfig c;
  c.model = hw::knl_flat_all_to_all();
  c.model.num_pes = 8;
  c.strategy = s;
  c.fast_capacity = fast_cap;
  return c;
}

/// Shared blocks across tasks: exercises fetch dedup and, in lazy
/// mode, warm reuse out of the LRU.
SyntheticWorkload shared_synthetic() {
  SyntheticWorkload::Params p;
  p.num_blocks = 48;
  p.block_bytes = 4 * MiB;
  p.tasks_per_iteration = 96;
  p.deps_per_task = 3;
  p.reuse = 0.6;
  p.num_pes = 8;
  p.num_iterations = 2;
  return SyntheticWorkload(p);
}

StencilWorkload small_stencil(std::uint64_t total = 128 * MiB) {
  return StencilWorkload({.total_bytes = total,
                          .num_chares = 32,
                          .num_pes = 8,
                          .iterations = 3});
}

serve::TenantDesc tenant(serve::TenantId id, const char* name,
                         serve::QosClass qos, double reserve) {
  serve::TenantDesc d;
  d.id = id;
  d.name = name;
  d.qos = qos;
  d.tier_reserve = {reserve};
  return d;
}

SimResult run(SimConfig cfg, const Workload& w) {
  SimExecutor ex(std::move(cfg));
  return ex.run(w);
}

using Case = std::function<SimResult()>;

struct Named {
  const char* name;
  Case run;
};

std::vector<Named> cases() {
  std::vector<Named> v;
  for (const ooc::Strategy s :
       {ooc::Strategy::Naive, ooc::Strategy::DdrOnly,
        ooc::Strategy::SingleIo, ooc::Strategy::SyncNoIo,
        ooc::Strategy::MultiIo}) {
    v.push_back({ooc::strategy_name(s),
                 [s] { return run(knl(s), shared_synthetic()); }});
  }
  v.push_back({"HBMonly", [] {
                 return run(knl(ooc::Strategy::HbmOnly, 256 * MiB),
                            shared_synthetic());
               }});
  v.push_back({"SingleIO_lazy", [] {
                 auto c = knl(ooc::Strategy::SingleIo);
                 c.eager_evict = false;
                 return run(c, shared_synthetic());
               }});
  v.push_back({"MultipleIO_lazy", [] {
                 auto c = knl(ooc::Strategy::MultiIo);
                 c.eager_evict = false;
                 return run(c, shared_synthetic());
               }});
  v.push_back({"NoIOthread_lazy", [] {
                 auto c = knl(ooc::Strategy::SyncNoIo);
                 c.eager_evict = false;
                 return run(c, shared_synthetic());
               }});
  v.push_back({"MultipleIO_cascade", [] {
                 SimConfig c;
                 c.model = hw::three_tier_hbm_ddr_nvm();
                 c.model.num_pes = 8;
                 c.strategy = ooc::Strategy::MultiIo;
                 // HBM 32 MiB, DDR 64 MiB trimmed at 75%, NVM unbounded.
                 c.tiers = {{1, 32 * MiB, 1.0}, {2, 64 * MiB, 0.75},
                            {0, 0, 1.0}};
                 return run(c, small_stencil(160 * MiB));
               }});
  v.push_back({"MultipleIO_nodequeue", [] {
                 auto c = knl(ooc::Strategy::MultiIo);
                 c.node_run_queue = true;
                 return run(c, small_stencil());
               }});
  v.push_back({"MultipleIO_tenancy", [] {
                 auto c = knl(ooc::Strategy::MultiIo, 32 * MiB);
                 c.io_threads = 1;
                 c.serve.tenants.push_back(
                     tenant(0, "app", serve::QosClass::BestEffort, 0.5));
                 c.serve.tenants.push_back(
                     tenant(1, "idle", serve::QosClass::LatencySLO, 0.25));
                 return run(c, small_stencil(96 * MiB));
               }});
  return v;
}

// Captured from the engine with hash-map block records (before the
// dense block table); every field must match exactly.
const Pin kPins[] = {
    {"Naive", 0x3fba49239a1ad2c6ull, 192, 0, 0, 0, 0, 0, 0, 0, 0},
    {"DDR4only", 0x3fbc74c6f5741534ull, 192, 0, 0, 0, 0, 0, 0, 0, 0},
    {"SingleIO", 0x3fd83be0484916cbull,
     192, 281, 1178599424, 281, 1178599424, 173, 0, 0, 0},
    {"NoIOthread", 0x3fce652d34f5a19eull,
     192, 341, 1430257664, 341, 1430257664, 69, 0, 0, 0},
    {"MultipleIO", 0x3fcba33c3d1f457dull,
     192, 334, 1400897536, 334, 1400897536, 109, 0, 0, 0},
    {"HBMonly", 0x3fb414c6d574b8a5ull, 192, 0, 0, 0, 0, 0, 0, 0, 0},
    {"SingleIO_lazy", 0x3fd9b559d63fc731ull,
     192, 301, 1262485504, 289, 1212153856, 158, 2, 0, 0},
    {"MultipleIO_lazy", 0x3fcfc3f2ee088eb4ull,
     192, 345, 1447034880, 334, 1400897536, 74, 27, 0, 0},
    {"NoIOthread_lazy", 0x3fd215ee6ee15102ull,
     192, 350, 1468006400, 341, 1430257664, 64, 15, 0, 0},
    {"MultipleIO_cascade", 0x3feacc268095ec5bull,
     96, 672, 538083264, 1262, 926106502, 0, 0, 652, 590},
    {"MultipleIO_nodequeue", 0x3fcba176b4c564eaull,
     96, 672, 432614400, 672, 432614400, 0, 0, 0, 0},
    {"MultipleIO_tenancy", 0x3fcb0d35471863f5ull,
     96, 672, 326722176, 672, 326722176, 0, 0, 0, 0},
};

std::string row(const char* name, const SimResult& r) {
  char buf[512];
  const auto& p = r.policy;
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},",
                name, std::bit_cast<std::uint64_t>(r.total_time), p.tasks_run,
                p.fetches, p.fetch_bytes, p.evicts, p.evict_bytes,
                p.fetch_dedup_hits, p.lru_reclaims, p.cascade_demotions,
                p.tier_trims);
  return buf;
}

TEST(SimPinned, ModeledOutputsMatchPins) {
  const auto all = cases();
  ASSERT_EQ(all.size(), std::size(kPins));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SimResult r = all[i].run();
    const Pin& want = kPins[i];
    ASSERT_STREQ(all[i].name, want.name);
    const auto& p = r.policy;
    const bool same =
        std::bit_cast<std::uint64_t>(r.total_time) == want.total_time_bits &&
        p.tasks_run == want.tasks_run && p.fetches == want.fetches &&
        p.fetch_bytes == want.fetch_bytes && p.evicts == want.evicts &&
        p.evict_bytes == want.evict_bytes &&
        p.fetch_dedup_hits == want.fetch_dedup_hits &&
        p.lru_reclaims == want.lru_reclaims &&
        p.cascade_demotions == want.cascade_demotions &&
        p.tier_trims == want.tier_trims;
    EXPECT_TRUE(same) << "run " << all[i].name << " changed; it now reads\n"
                      << row(all[i].name, r) << "\n(total_time "
                      << r.total_time << " s)";
  }
}

} // namespace
} // namespace hmr::sim
