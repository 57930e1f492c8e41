// des_matmul: sim::SimExecutor running sim::MatmulWorkload in the
// fig09 shape (MultiIo, 64 virtual PEs, 6 GiB reduced working set),
// single-threaded.  Measures the DES's own host cost; its simulated
// statistics are deterministic and pinned to perfbench/des_reference.json
// by run.py, so a simulator-speed change must leave them identical.

#include <algorithm>
#include <bit>

#include "hw/machine_model.hpp"
#include "sim/matmul_workload.hpp"
#include "sim/sim_executor.hpp"
#include "workloads.hpp"

namespace hmr::bench {

namespace {

constexpr std::uint64_t GiB = 1ull << 30;
constexpr std::uint64_t kTotal = 8 * GiB;    // total working set
constexpr std::uint64_t kReduced = 6 * GiB;  // one task per PE
constexpr std::uint64_t kProbeTotal = 9 * GiB; // sim reference probe
constexpr int kSetupReps = 5;

sim::SimConfig des_config(bool trace) {
  sim::SimConfig cfg;
  cfg.model = hw::knl_flat_all_to_all();
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.trace = trace;
  cfg.trace_opts.ring_capacity = 1 << 15;
  return cfg;
}

ReplaySpec matmul_stream(const sim::MatmulWorkload& w, const sim::SimConfig& cfg) {
  ReplaySpec s;
  s.strategy = cfg.strategy;
  s.num_pes = cfg.model.num_pes;
  s.fast_capacity = cfg.model.tier(cfg.model.fast).capacity;
  for (const auto& b : w.blocks()) s.block_bytes.push_back(b.bytes);
  for (int it = 0; it < w.iterations(); ++it) s.rounds.push_back(w.iteration_tasks(it));
  return s;
}

struct DesRun {
  double wall_s = 0;
  double cpu_s = 0;
  sim::SimResult res;
  double tracer_records = 0;
};

DesRun des_run(const sim::MatmulWorkload& w, const sim::SimConfig& cfg,
              const Options* art) {
  DesRun r;
  sim::SimExecutor ex(cfg);
  const double c0 = cpu_s();
  const double t0 = now_s();
  r.res = ex.run(w);
  r.wall_s = now_s() - t0;
  r.cpu_s = cpu_s() - c0;
  if (cfg.trace) {
    const trace::TraceSummary s = ex.tracer().summarize();
    for (std::uint64_t k : s.count) r.tracer_records += static_cast<double>(k);
    if (art) write_perfetto(*art, ex.tracer(), cfg.model.num_pes);
  }
  return r;
}

} // namespace

Trial run_des(const Options& o, Spans& spans) {
  Trial t;
  t.threads = {1, 0, 0}; // the DES is single-threaded
  check_thread_budget(t.threads);
  const sim::SimConfig cfg = des_config(o.trace);
  const auto params = sim::MatmulWorkload::params_for(kTotal, kReduced, cfg.model.num_pes);

  // Set-up (workload, its task stream, an executor) takes milliseconds:
  // repeat it and keep the median.
  std::vector<double> setups;
  std::unique_ptr<sim::MatmulWorkload> w;
  std::uint64_t expected = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    const double s0 = now_s();
    w = std::make_unique<sim::MatmulWorkload>(params);
    expected = 0;
    for (int it = 0; it < w->iterations(); ++it) expected += w->iteration_tasks(it).size();
    sim::SimExecutor warm(cfg);
    setups.push_back(now_s() - s0);
  }
  t.setup_s = percentile(setups, 50);

  const double due = now_s();
  DesRun r;
  {
    SpanScope s(spans, "sim.SimExecutor::run");
    t.layers["harness.gen_late_ms.max"] = (now_s() - due) * 1e3;
    r = des_run(*w, cfg, &o);
  }
  const auto& st = r.res.policy;
  t.iter_s.push_back(r.wall_s);
  t.wall_s = r.wall_s;
  t.cpu_s = r.cpu_s;
  t.tasks = r.res.tasks_completed;
  t.attempted = expected;
  t.fetches = st.fetches;
  t.evicts = st.evicts;
  t.fetch_bytes = st.fetch_bytes;
  t.evict_bytes = st.evict_bytes;
  put_exact(st, t);
  t.exact["tasks_completed"] = r.res.tasks_completed;
  t.exact["total_time_bits"] = std::bit_cast<std::uint64_t>(r.res.total_time);
  t.check(r.res.tasks_completed == expected, "DES completed != tasks generated");
  t.failed = t.correct ? 0 : 1;

  if (o.trace) {
    const ReplaySpec stream = matmul_stream(*w, cfg);
    const ReplayResult rep = replay_ooc(stream, spans);
    put_replay(rep, t);
    const double n = static_cast<double>(std::max<std::uint64_t>(t.tasks, 1));
    t.layers["sim.host_us_per_task"] = r.wall_s / n * 1e6;
    t.layers["sim.self_s"] = r.wall_s - rep.seconds;
    const TelemetryCost tc = probe_telemetry(spans);
    t.layers["telemetry.ns_per_task"] = r.tracer_records * tc.tracer_ns / n;
    // mem at the matmul tile size scaled like the runtime's tiers (1/1024).
    const std::uint64_t blk = std::max<std::uint64_t>(w->tile_bytes() >> 10, 1024);
    probe_mem(blk, spans, t);
    probe_budget(blk, spans, t);
    probe_apps(spans, t);
    probe_rt(spans, t);
    probe_stencil(spans, t);
    probe_serve(spans, t);
  }
  return t;
}

void probe_sim(Spans& spans, Trial& t) {
  SpanScope top(spans, "sim.probe");
  const sim::SimConfig cfg = des_config(false);
  const sim::MatmulWorkload w(
      sim::MatmulWorkload::params_for(kProbeTotal, kReduced, cfg.model.num_pes));
  const DesRun r = des_run(w, cfg, nullptr);
  const ReplayResult rep = replay_ooc(matmul_stream(w, cfg), spans);
  const double n = static_cast<double>(std::max<std::uint64_t>(r.res.tasks_completed, 1));
  t.layers["sim.host_us_per_task"] = r.wall_s / n * 1e6;
  t.layers["sim.self_s"] = r.wall_s - rep.seconds;
  mark_probe(t, "sim.", "sim_probe");
}

} // namespace hmr::bench
