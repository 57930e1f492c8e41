// finegrain_tasks: a fixed-work, fine-grained MultiIo stream on
// rt::Runtime.  Each PE cycles over a private pool of 1 KiB blocks;
// every task declares two distinct blocks (ReadWrite + ReadOnly) and
// has a trivial body.  Deps never repeat within a round and rounds are
// separated by wait_idle (closed loop), so with eager eviction every
// dependence is fetched and evicted exactly once: fetches = evicts =
// 2 x tasks on every run, whatever the schedule.

#include <algorithm>
#include <atomic>
#include <memory>

#include "hw/machine_model.hpp"
#include "rt/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace hmr::bench {

namespace {

/// Fisher-Yates shuffle of [0, n) driven by the workload seed.
std::vector<std::uint32_t> seeded_perm(std::uint32_t n, std::uint64_t& state) {
  Xoshiro256 rng(state);
  state = rng();
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::uint32_t>(rng() % i)]);
  }
  return p;
}


constexpr int kSetupReps = 9;

struct FgParams {
  int pes = 2;
  // Rounds of 1024 tasks per PE (~25 ms): long enough that a few-ms
  // preemption of one vCPU by the host does not decide a round's time.
  int tasks_per_pe = 1024;  // per round
  int pool_per_pe = 2048;   // = 2 x tasks_per_pe: deps distinct per round
  std::uint64_t block = 1024;
  // 1 MiB fast tier (mem_scale 1/16384): the 6 MiB slow tier holds the
  // 4 MiB of pools; a round's 4 MiB of deps still churns the fast tier.
  std::uint64_t fast_bytes = 1ull << 20;
  int warm = 5;
  int rounds = 75;
  std::uint64_t seed = 1;
  bool trace = false;
};

/// One finegrain run.  `spec` (optional) receives the measured rounds
/// as a policy-engine replay stream; `art` (optional) says where a
/// traced run writes its Perfetto timeline.
Trial finegrain(const FgParams& p, Spans& spans, ReplaySpec* spec,
                const Options* art) {
  Trial t;
  t.threads = {p.pes, p.pes, 0};
  check_thread_budget(t.threads);
  const int total_rounds = p.warm + p.rounds;
  const auto per_round = static_cast<std::size_t>(p.tasks_per_pe) * 2;
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = p.pes;
  cfg.mem_scale = static_cast<double>(p.fast_bytes) /
                  static_cast<double>(cfg.model.tier(cfg.model.fast).capacity);
  cfg.chunk_threshold = 0;
  cfg.pin_threads = true;
  cfg.trace = p.trace;
  cfg.lock_stats = p.trace;
  cfg.trace_opts.ring_capacity = 1 << 16;

  // Set-up (inputs, runtime, blocks) takes milliseconds: build it
  // kSetupReps times and report the median.
  std::vector<double> setups;
  std::vector<std::uint32_t> pick;
  std::unique_ptr<rt::Runtime> run_ptr;
  std::vector<std::vector<mem::BlockId>> pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.clear();
    run_ptr.reset();
    const double s0 = now_s();
    // Inputs: per round and PE, a seeded permutation of the private
    // pool; task k takes pool[perm[2k]] ReadWrite, pool[perm[2k+1]]
    // ReadOnly.
    pick.assign(static_cast<std::size_t>(total_rounds) * p.pes * per_round, 0);
    std::uint64_t state = p.seed;
    for (std::size_t r = 0; r < static_cast<std::size_t>(total_rounds) * p.pes; ++r) {
      const auto perm = seeded_perm(static_cast<std::uint32_t>(p.pool_per_pe), state);
      std::copy_n(perm.begin(), per_round,
                  pick.begin() + static_cast<std::ptrdiff_t>(r * per_round));
    }
    run_ptr = std::make_unique<rt::Runtime>(cfg);
    pool.resize(static_cast<std::size_t>(p.pes));
    for (auto& pl : pool) {
      for (int i = 0; i < p.pool_per_pe; ++i) pl.push_back(run_ptr->alloc_block(p.block));
    }
    setups.push_back(now_s() - s0);
  }
  t.setup_s = percentile(setups, 50);
  rt::Runtime& run = *run_ptr;

  std::atomic<std::uint64_t> bodies{0};
  std::vector<double> drain_ms;
  double send_s = 0, gen_late = 0;
  ooc::TaskId next_id = 1;
  auto round = [&](int r, bool measured) {
    const double due = now_s();
    for (int pe = 0; pe < p.pes; ++pe) {
      const std::uint32_t* k =
          pick.data() + (static_cast<std::size_t>(r) * p.pes + pe) * per_round;
      const auto& pl = pool[static_cast<std::size_t>(pe)];
      std::vector<rt::Runtime::PrefetchMsg> batch(static_cast<std::size_t>(p.tasks_per_pe));
      std::vector<ooc::TaskDesc> descs;
      for (int i = 0; i < p.tasks_per_pe; ++i) {
        auto& m = batch[static_cast<std::size_t>(i)];
        m.deps = {{pl[k[2 * i]], ooc::AccessMode::ReadWrite},
                  {pl[k[2 * i + 1]], ooc::AccessMode::ReadOnly}};
        m.body = [&bodies] { bodies.fetch_add(1, std::memory_order_relaxed); };
        if (spec && measured) {
          ooc::TaskDesc d;
          d.id = next_id++;
          d.pe = pe;
          const std::uint64_t base = static_cast<std::uint64_t>(pe) * p.pool_per_pe;
          d.deps = {{base + k[2 * i], ooc::AccessMode::ReadWrite},
                    {base + k[2 * i + 1], ooc::AccessMode::ReadOnly}};
          descs.push_back(std::move(d));
        }
      }
      if (!descs.empty()) {
        if (pe == 0) spec->rounds.emplace_back();
        for (auto& d : descs) spec->rounds.back().push_back(std::move(d));
      }
      if (pe == 0 && measured) gen_late = std::max(gen_late, now_s() - due);
      SpanScope s(spans, "rt.send_prefetch_batch");
      const double a = now_s();
      run.send_prefetch_batch(pe, std::move(batch));
      send_s += now_s() - a;
    }
    {
      SpanScope s(spans, "rt.wait_idle");
      const double a = now_s();
      run.wait_idle();
      if (measured) drain_ms.push_back((now_s() - a) * 1e3);
    }
    if (measured) t.iter_s.push_back(now_s() - due);
  };

  for (int r = 0; r < p.warm; ++r) round(r, false);
  if (p.trace) run.tracer().clear();
  const auto st0 = run.policy_stats();
  const RtBase base = rt_base(run);
  const double c0 = cpu_s();
  const double w0 = now_s();
  send_s = 0;
  for (int r = p.warm; r < total_rounds; ++r) round(r, true);
  t.wall_s = now_s() - w0;
  t.cpu_s = cpu_s() - c0;
  const auto st1 = run.policy_stats();

  const std::uint64_t measured_tasks =
      static_cast<std::uint64_t>(p.rounds) * p.pes * p.tasks_per_pe;
  const std::uint64_t all_tasks =
      static_cast<std::uint64_t>(total_rounds) * p.pes * p.tasks_per_pe;
  t.tasks = measured_tasks;
  t.attempted = all_tasks;
  t.fetches = st1.fetches - st0.fetches;
  t.evicts = st1.evicts - st0.evicts;
  t.fetch_bytes = st1.fetch_bytes - st0.fetch_bytes;
  t.evict_bytes = st1.evict_bytes - st0.evict_bytes;

  // Output and fixed-work traffic checks.
  const std::uint64_t ran = run.tasks_executed();
  t.check(bodies.load() == ran, "body count != tasks_executed()");
  t.check(ran == all_tasks, "tasks_executed() != tasks submitted");
  put_exact(st1, t);
  t.check(st1.fetches == 2 * all_tasks, "fetches != 2 x tasks");
  t.check(st1.evicts == 2 * all_tasks, "evicts != 2 x tasks");
  t.check(st1.fetch_bytes == 2 * all_tasks * p.block, "fetch bytes != 2 x tasks x block");
  t.check(st1.evict_bytes == 2 * all_tasks * p.block, "evict bytes != 2 x tasks x block");
  t.failed = t.correct ? 0 : all_tasks - std::min(all_tasks, bodies.load());
  if (!t.correct && t.failed == 0) t.failed = 1;

  t.layers["rt.send_us_per_task"] = send_s / static_cast<double>(measured_tasks) * 1e6;
  t.layers["rt.drain_ms.p50"] = percentile(drain_ms, 50);
  t.layers["harness.gen_late_ms.max"] = gen_late * 1e3;
  if (p.trace) {
    put_rt_layers(run, base, run.now() - base.wall_s, measured_tasks, t);
    t.check(run.tracer().dropped() == 0, "trace ring dropped events");
    const TelemetryCost tc = probe_telemetry(spans);
    put_telemetry(run, measured_tasks, tc, t);
    if (art) write_perfetto(*art, run.tracer(), p.pes);
  }
  if (spec) {
    spec->strategy = cfg.strategy;
    spec->num_pes = p.pes;
    spec->fast_capacity = p.fast_bytes;
    spec->block_bytes.assign(static_cast<std::size_t>(p.pes) * p.pool_per_pe, p.block);
  }
  return t;
}

} // namespace

Trial run_finegrain(const Options& o, Spans& spans) {
  FgParams p;
  p.seed = o.seed;
  p.trace = o.trace;
  if (!o.trace) return finegrain(p, spans, nullptr, nullptr);
  p.rounds = 12; // keeps every trace ring below capacity
  ReplaySpec spec;
  Trial t = finegrain(p, spans, &spec, &o);
  put_replay(replay_ooc(spec, spans), t);
  probe_mem(p.block, spans, t);
  probe_budget(p.block, spans, t);
  probe_apps(spans, t);
  probe_sim(spans, t);
  probe_stencil(spans, t);
  probe_serve(spans, t);
  return t;
}

void probe_rt(Spans& spans, Trial& t) {
  SpanScope top(spans, "rt.probe");
  FgParams p;
  p.warm = 2;
  p.rounds = 10;
  p.trace = true;
  Spans off(false);
  Trial probe = finegrain(p, off, nullptr, nullptr);
  t.check(probe.correct, "rt probe: " + probe.message);
  for (const auto& [k, v] : probe.layers) {
    if (k.rfind("rt.", 0) == 0 || k == "ooc.budget_steals") {
      t.layers[k] = v;
      t.layer_source[k] = "rt_probe";
    }
  }
}

} // namespace hmr::bench
