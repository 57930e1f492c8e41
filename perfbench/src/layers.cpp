#include "layers.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apps/reference.hpp"
#include "mem/copy_kernel.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "ooc/tier_budget.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "util/check.hpp"

namespace hmr::bench {

namespace {
constexpr std::uint64_t MiB = 1ull << 20;

std::uint64_t probe_reps(std::uint64_t bytes) {
  return std::clamp<std::uint64_t>((256 * MiB) / std::max<std::uint64_t>(bytes, 1),
                                   64, 20000);
}
} // namespace

void probe_mem(std::uint64_t block_bytes, Spans& spans, Trial& t) {
  // One span per probe loop: a span per call would cost as much as a
  // small copy.
  SpanScope top(spans, "mem.probe");
  const std::uint64_t cap = std::max<std::uint64_t>(4 * block_bytes, MiB);
  mem::MemoryManager mm({{"fast", cap}, {"slow", cap}});
  const mem::BlockId b = mm.register_block(block_bytes, 1);
  HMR_CHECK(b != mem::kInvalidBlock);
  const std::uint64_t reps = probe_reps(block_bytes);
  double alloc = 0, free_s = 0;
  int span = spans.open("mem.MemoryManager::migrate");
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < reps; ++i) {
    const mem::MigrateResult r = mm.migrate(b, static_cast<mem::TierId>(i % 2 == 0 ? 0 : 1));
    HMR_CHECK_MSG(r.ok, "mem probe: migrate failed");
    alloc += r.alloc_s;
    free_s += r.free_s;
  }
  const double mig = now_s() - t0;
  spans.close(span);
  mm.unregister_block(b);

  std::vector<char> src(block_bytes, 1), dst(block_bytes, 0);
  span = spans.open("mem.copy");
  const double c0 = now_s();
  for (std::uint64_t i = 0; i < reps; ++i) {
    mem::copy(dst.data(), src.data(), block_bytes);
  }
  const double cp = now_s() - c0;
  spans.close(span);
  HMR_CHECK(dst[block_bytes - 1] == 1);

  const double n = static_cast<double>(reps);
  const double bytes = n * static_cast<double>(block_bytes);
  t.layers["mem.migrate_gbps"] = bytes / mig / 1e9;
  t.layers["mem.copy_gbps"] = bytes / cp / 1e9;
  t.layers["mem.copy_us"] = cp / n * 1e6;
  t.layers["mem.alloc_us"] = alloc / n * 1e6;
  t.layers["mem.free_us"] = free_s / n * 1e6;
}

ReplayResult replay_ooc(const ReplaySpec& spec, Spans& spans) {
  SpanScope top(spans, "ooc.replay");
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = spec.strategy;
  cfg.num_pes = spec.num_pes;
  cfg.fast_capacity = spec.fast_capacity;
  ooc::PolicyEngine eng(cfg);
  for (std::size_t b = 0; b < spec.block_bytes.size(); ++b) {
    eng.add_block(b, spec.block_bytes[b]);
  }
  ReplayResult res;
  std::deque<ooc::Command> q;
  auto push = [&q](std::vector<ooc::Command> cmds) {
    for (auto& c : cmds) q.push_back(c);
  };
  const double t0 = now_s();
  for (const auto& round : spec.rounds) {
    std::vector<ooc::PolicyEngine::Event> evs;
    evs.reserve(round.size());
    for (const auto& d : round) evs.push_back(ooc::PolicyEngine::Event::arrived(d));
    res.events += evs.size();
    {
      SpanScope s(spans, "ooc.step_batch");
      push(eng.step_batch(std::move(evs)));
    }
    while (!q.empty()) {
      const ooc::Command c = q.front();
      q.pop_front();
      ++res.events;
      switch (c.kind) {
      case ooc::Command::Kind::Fetch:
        push(eng.on_fetch_complete(c.block));
        break;
      case ooc::Command::Kind::Evict:
        push(eng.on_evict_complete(c.block));
        break;
      case ooc::Command::Kind::Run:
        push(eng.on_task_complete(c.task));
        break;
      }
    }
    HMR_CHECK_MSG(eng.quiescent(), "ooc replay: engine not quiescent after a round");
  }
  res.seconds = now_s() - t0;
  return res;
}

void put_replay(const ReplayResult& r, Trial& t) {
  t.layers["ooc.replay_s"] = r.seconds;
  t.layers["ooc.event_ns"] =
      r.events ? r.seconds / static_cast<double>(r.events) * 1e9 : 0;
}

void probe_budget(std::uint64_t bytes, Spans& spans, Trial& t) {
  SpanScope top(spans, "ooc.budget_probe");
  constexpr int kThreads = 2;
  constexpr std::uint64_t kPairs = 200000;
  ooc::TierBudget budget(64 * bytes, kThreads);
  std::vector<double> secs(kThreads, 0);
  std::vector<std::thread> th;
  for (int i = 0; i < kThreads; ++i) {
    th.emplace_back([&, i] {
      const double t0 = now_s();
      for (std::uint64_t k = 0; k < kPairs; ++k) {
        if (budget.try_claim(i, bytes)) budget.release(i, bytes);
      }
      secs[static_cast<std::size_t>(i)] = now_s() - t0;
    });
  }
  for (auto& x : th) x.join();
  double s = 0;
  for (double v : secs) s += v;
  t.layers["ooc.budget_claim_ns"] = s / kThreads / static_cast<double>(kPairs) * 1e9;
}

TelemetryCost probe_telemetry(Spans& spans) {
  SpanScope top(spans, "telemetry.probe");
  constexpr int kN = 10000;
  constexpr int kReps = 5;
  TelemetryCost c;
  trace::Tracer tr(true);
  double s = 0;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < kN; ++i) {
      tr.record(0, trace::Category::Compute, i, i + 0.5, static_cast<std::uint64_t>(i));
    }
    s += now_s() - t0;
    tr.clear();
  }
  c.tracer_ns = s / (kN * kReps) * 1e9;

  telemetry::AttributionTable at;
  telemetry::TaskAttribution a;
  a.arrive = 0;
  a.start = 1e-6;
  a.end = 2e-6;
  a.seconds[0] = 1e-6;
  a.seconds[2] = 1e-6;
  double t0 = now_s();
  for (int i = 0; i < kN * kReps; ++i) {
    a.task = static_cast<std::uint64_t>(i);
    at.record(0, a);
  }
  c.attrib_ns = (now_s() - t0) / (kN * kReps) * 1e9;
  HMR_CHECK(at.rollup().tasks == static_cast<std::uint64_t>(kN * kReps));

  telemetry::Histogram h;
  t0 = now_s();
  for (int i = 0; i < kN * kReps; ++i) h.observe(static_cast<std::uint64_t>(i) * 37u);
  c.hist_ns = (now_s() - t0) / (kN * kReps) * 1e9;
  HMR_CHECK(h.count() == static_cast<std::uint64_t>(kN * kReps));
  return c;
}

void probe_apps(Spans& spans, Trial& t) {
  SpanScope top(spans, "apps.serial_stencil3d");
  constexpr int n = 128;
  std::vector<double> grid(static_cast<std::size_t>(n) * n * n);
  apps::fill_pattern(grid.data(), grid.size(), 7);
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    apps::serial_stencil3d(grid, n, n, n, 1);
    ms.push_back((now_s() - t0) * 1e3);
  }
  t.layers["apps.compute_ms_per_iter"] = percentile(ms, 50);
  t.layer_source["apps.compute_ms_per_iter"] = "apps_probe";
}

RtBase rt_base(rt::Runtime& run) {
  RtBase b;
  b.wall_s = run.now();
  b.ctx = ctx_switches();
  b.steals = run.budget_steals();
  if (const auto* ls = run.lock_stats()) b.locks = ls->totals();
  return b;
}

void put_rt_layers(rt::Runtime& run, const RtBase& base, double wall_s,
                   std::uint64_t tasks, Trial& t) {
  const double lanes = run.num_pes() + run.num_io_threads();
  const double denom = lanes * wall_s;
  const trace::TraceSummary s = run.tracer().summarize();
  static const std::pair<const char*, trace::Category> kLanes[] = {
      {"rt.lane.compute_frac", trace::Category::Compute},
      {"rt.lane.prefetch_frac", trace::Category::Prefetch},
      {"rt.lane.evict_frac", trace::Category::Evict},
      {"rt.lane.wait_frac", trace::Category::Wait},
      {"rt.lane.overhead_frac", trace::Category::Overhead},
      {"rt.lane.idle_frac", trace::Category::Idle}};
  double attributed = 0;
  for (const auto& [name, cat] : kLanes) {
    t.layers[name] = s.total_of(cat) / denom;
    attributed += s.total_of(cat);
  }
  t.layers["rt.unattributed_frac"] = 1.0 - attributed / denom;
  const double n = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
  t.layers["rt.ctx_switches_per_task"] =
      static_cast<double>(ctx_switches() - base.ctx) / n;
  if (const auto* ls = run.lock_stats()) {
    const auto now = ls->totals();
    t.layers["rt.lock_wait_frac"] = (now.wait_s - base.locks.wait_s) / denom;
    t.layers["rt.lock_contended"] =
        static_cast<double>(now.contended - base.locks.contended);
  }
  t.layers["ooc.budget_steals"] =
      static_cast<double>(run.budget_steals() - base.steals);
}

void put_telemetry(rt::Runtime& run, std::uint64_t tasks,
                   const TelemetryCost& c, Trial& t) {
  const double n = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
  const trace::TraceSummary s = run.tracer().summarize();
  double intervals = 0;
  for (std::uint64_t k : s.count) intervals += static_cast<double>(k);
  double attrib = 0, observes = 0;
  if (const auto* at = run.attribution()) attrib = static_cast<double>(at->rollup().tasks);
  if (auto* reg = run.metrics()) {
    for (const auto& h : reg->snapshot().histograms) observes += static_cast<double>(h.count);
  }
  t.layers["telemetry.ns_per_task"] =
      (intervals * c.tracer_ns + attrib * c.attrib_ns + observes * c.hist_ns) / n;
}

void mark_probe(Trial& t, const char* prefix, const char* probe) {
  const std::string pre = prefix;
  for (const auto& [k, v] : t.layers) {
    if (k.compare(0, pre.size(), pre) == 0 && !t.layer_source.count(k)) {
      t.layer_source[k] = probe;
    }
  }
}

void put_exact(const ooc::EngineStats& s, Trial& t) {
  t.exact["fetches"] = s.fetches;
  t.exact["evicts"] = s.evicts;
  t.exact["fetch_bytes"] = s.fetch_bytes;
  t.exact["evict_bytes"] = s.evict_bytes;
  t.exact["dedup_hits"] = s.fetch_dedup_hits;
  t.exact["tasks_run"] = s.tasks_run;
  t.layers["ooc.fetches"] = static_cast<double>(s.fetches);
  t.layers["ooc.evicts"] = static_cast<double>(s.evicts);
  t.layers["ooc.fetch_bytes"] = static_cast<double>(s.fetch_bytes);
  t.layers["ooc.dedup_ratio"] =
      s.fetches ? static_cast<double>(s.fetch_dedup_hits) / static_cast<double>(s.fetches)
                : 0;
}

std::string artifact_stem(const Options& o) {
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  return o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
         "-trial" + std::to_string(o.trial);
}

void write_perfetto(const Options& o, const trace::Tracer& tracer, int worker_lanes) {
  std::ofstream os(artifact_stem(o) + ".perfetto.json");
  telemetry::PerfettoOptions po;
  po.worker_lanes = worker_lanes;
  telemetry::write_perfetto(os, tracer.intervals(), po);
}

} // namespace hmr::bench
