// serve reference probe: a short two-tenant stream on one rt::Runtime
// with serving on — a LatencySLO tenant (25% of arrivals, 25% fast-tier
// reserve) and a BestEffort tenant (75%, 75%).  Arrivals are open loop
// at a fixed rate from the harness's generator (the main thread,
// spinning to each due time).  SingleIo with 2 PEs + 1 IO thread + the
// generator is 4 threads.  Latency runs from each task's due time to
// the end of its body, so a stall is charged to every task queued
// behind it.
//
// This stream was sized as a fourth timed workload (tenant_serve); its
// SLO tail on the shared reference host moved by 40x between one-second
// trials (perfbench/NOTES.md), so it runs as the serve layer's probe.

#include <atomic>
#include <memory>

#include "rt/runtime.hpp"
#include "serve/tenant_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace hmr::bench {

namespace {

constexpr double kRate = 10000;   // arrivals per second, both tenants
constexpr double kSeconds = 0.5;  // measured arrivals
constexpr double kWarmS = 0.05;   // arrivals before the measured ones
constexpr double kSloS = 1e-3;    // the SLO tenant's fetch p99 target
constexpr std::uint64_t kBlock = 4096;
constexpr int kSloBlocks = 32;
constexpr int kBeBlocks = 96;
constexpr std::uint64_t kFastBytes = 256ull << 10;

} // namespace

void probe_serve(Spans& spans, Trial& t) {
  SpanScope top(spans, "serve.probe");
  const ThreadBudget threads{2, 1, 1};
  check_thread_budget(threads);
  const auto warm = static_cast<std::size_t>(kWarmS * kRate);
  const std::size_t n = warm + static_cast<std::size_t>(kSeconds * kRate);

  // Inputs: tenant (1 in 4 is the SLO tenant) and two distinct blocks
  // of that tenant's pool per task, from a fixed seed.
  Xoshiro256 rng(1);
  std::vector<std::uint8_t> tenant(n);
  std::vector<std::uint32_t> dep(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    tenant[i] = rng() % 4 == 0 ? 0 : 1;
    const std::uint32_t size = tenant[i] == 0 ? kSloBlocks : kBeBlocks;
    const auto a = static_cast<std::uint32_t>(rng() % size);
    dep[2 * i] = a;
    dep[2 * i + 1] = (a + 1 + static_cast<std::uint32_t>(rng() % (size - 1))) % size;
  }

  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::SingleIo;
  cfg.num_pes = threads.pes;
  cfg.mem_scale = static_cast<double>(kFastBytes) /
                  static_cast<double>(cfg.model.tier(cfg.model.fast).capacity);
  cfg.chunk_threshold = 0;
  cfg.metrics = true;
  serve::TenantDesc slo;
  slo.id = 0;
  slo.name = "slo";
  slo.qos = serve::QosClass::LatencySLO;
  slo.slo_p99_fetch_s = kSloS;
  slo.tier_reserve = {0.25};
  serve::TenantDesc be;
  be.id = 1;
  be.name = "best_effort";
  be.qos = serve::QosClass::BestEffort;
  be.tier_reserve = {0.75};
  cfg.serve.tenants = {slo, be};
  cfg.serve.burn_window_s = kSeconds;
  rt::Runtime run(cfg);
  std::vector<mem::BlockId> pool[2];
  for (int i = 0; i < kSloBlocks; ++i) pool[0].push_back(run.alloc_block(kBlock));
  for (int i = 0; i < kBeBlocks; ++i) pool[1].push_back(run.alloc_block(kBlock));
  auto done = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  std::vector<double> due(n), end(n, 0);

  const double start = now_s() + 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + static_cast<double>(i) / kRate;
    while (now_s() < due[i]) {
    }
    const auto* pl = pool[tenant[i]].data();
    rt::Runtime::DepList deps = {{pl[dep[2 * i]], ooc::AccessMode::ReadWrite},
                                 {pl[dep[2 * i + 1]], ooc::AccessMode::ReadOnly}};
    run.send_prefetch(
        static_cast<int>(i % 2), std::move(deps),
        [&done, &end, i] {
          end[i] = now_s();
          done[i].fetch_add(1, std::memory_order_relaxed);
        },
        1.0, tenant[i]);
  }
  run.wait_idle();

  std::vector<double> slo_lat;
  std::uint64_t once = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i].load() == 1) ++once;
    if (i >= warm && tenant[i] == 0) slo_lat.push_back(end[i] - due[i]);
  }
  t.check(once == n, "serve probe: a task did not complete exactly once");
  t.check(run.tasks_executed() == n, "serve probe: tasks_executed() != tasks sent");

  std::uint64_t deferred = 0, displaced = 0;
  const auto snaps = run.tenancy()->snapshots();
  for (const auto& s : snaps) {
    deferred += s.deferred;
    displaced += s.displaced;
  }
  t.layers["serve.deferred"] = static_cast<double>(deferred);
  t.layers["serve.displaced"] = static_cast<double>(displaced);
  t.layers["serve.fetch_p99_us"] = snaps[0].fetch_p99_s * 1e6;
  t.layers["serve.slo_burn"] = snaps[0].slo_burn;
  t.layers["serve.slo_lat_us.p99"] = percentile(slo_lat, 99) * 1e6;
  mark_probe(t, "serve.", "serve_probe");
}

} // namespace hmr::bench
