// rt_contention: throughput + lock-contention bench for the threaded
// runtime's scheduler hot path.
//
// Two questions, answered on this host:
//   1. What does the scheduler hot path cost?  A fine-grained MultiIo
//      workload runs against the runtime (one policy engine under one
//      mutex, batched event delivery).  Reported: tasks/sec and the
//      fraction of thread-seconds spent blocked on the engine lock.
//   2. What does chunking a large migration buy?  One big block is
//      copied tier-to-tier monolithically vs through the ChunkRing
//      with helper threads assisting, reporting GB/s and how many
//      chunks helpers carried.
//
// --json writes BENCH_rt_contention.json for the experiment harness.
// --check exits 2 unless the counters equal what the arguments imply:
// every task ran once, and every chunked migration's chunks went
// through the ring (a zero-tolerance gate; the timings are not gated).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hw/machine_model.hpp"
#include "mem/chunked_copy.hpp"
#include "mem/memory_manager.hpp"
#include "rt/runtime.hpp"
#include "telemetry/perfetto.hpp"
#include "util/argparse.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace {

using namespace hmr;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  std::string name;
  double wall_s = 0;
  double tasks_per_sec = 0;
  std::uint64_t tasks = 0;
  std::uint64_t fetches = 0;
  std::uint64_t evicts = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  double lock_wait_s = 0;
  double lock_wait_fraction = 0; // of total thread-seconds
  std::uint64_t ctx_switches = 0; // voluntary + involuntary, process-wide
  int run_threads = 0; // PEs + IO threads actually spawned
};

std::uint64_t ctx_switch_count() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw) +
         static_cast<std::uint64_t>(ru.ru_nivcsw);
}

struct BenchCfg {
  // 0 = auto-detect: one PE per hardware thread, floor 2 so the
  // scheduler contention being measured actually exists even on a
  // single-core host (threads then timeshare, which is still the
  // multi-thread code path).
  std::int64_t pes = 8;
  std::int64_t rounds = 40;
  std::int64_t tasks_per_round = 32; // per PE
  std::int64_t blocks_per_pe = 96;
  std::uint64_t block_bytes = 1ull << 10;
  // Fast tier sized well below the working set (~1/3) so tasks churn
  // the engine (fetch + eager evict), while the blocks are small
  // enough that the copies themselves are a minor cost: wall time is
  // scheduler bookkeeping, which is what this bench isolates.
  std::uint64_t fast_kib = 256;
  // Best-of-N per configuration: thread scheduling on a shared or
  // oversubscribed host adds multi-10% run-to-run noise.
  std::int64_t sched_reps = 3;
  bool evict_by_worker = false;
  bool pin = false; // pin PEs + IO siblings to cores (Linux only)
};

/// Fine-grained MultiIo workload: every PE cycles over its own block
/// pool with 2-dep tasks and a trivial body, so scheduler and
/// migration bookkeeping dominate wall time.
RunResult run_config(const std::string& name, const BenchCfg& bc) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = static_cast<int>(bc.pes);
  cfg.mem_scale =
      static_cast<double>(bc.fast_kib << 10) /
      static_cast<double>(cfg.model.tier(cfg.model.fast).capacity);
  cfg.lock_stats = true;
  cfg.evict_by_worker = bc.evict_by_worker;
  cfg.pin_threads = bc.pin;
  cfg.chunk_threshold = 0; // blocks are tiny; isolate scheduler cost
  rt::Runtime run(cfg);

  std::vector<std::vector<mem::BlockId>> blocks(
      static_cast<std::size_t>(bc.pes));
  for (auto& pool : blocks) {
    for (std::int64_t i = 0; i < bc.blocks_per_pe; ++i) {
      pool.push_back(run.alloc_block(bc.block_bytes));
    }
  }

  std::atomic<std::uint64_t> bodies{0};
  const std::uint64_t cs0 = ctx_switch_count();
  const double t0 = now_s();
  for (std::int64_t r = 0; r < bc.rounds; ++r) {
    for (std::int64_t pe = 0; pe < bc.pes; ++pe) {
      std::vector<rt::Runtime::PrefetchMsg> batch;
      batch.reserve(static_cast<std::size_t>(bc.tasks_per_round));
      const auto& pool = blocks[static_cast<std::size_t>(pe)];
      for (std::int64_t t = 0; t < bc.tasks_per_round; ++t) {
        const std::size_t a =
            static_cast<std::size_t>(r + t) % pool.size();
        const std::size_t b =
            static_cast<std::size_t>(r + t + 7) % pool.size();
        rt::Runtime::PrefetchMsg m;
        m.deps = {{pool[a], ooc::AccessMode::ReadWrite}};
        if (b != a) m.deps.push_back({pool[b], ooc::AccessMode::ReadOnly});
        m.body = [&bodies] {
          bodies.fetch_add(1, std::memory_order_relaxed);
        };
        batch.push_back(std::move(m));
      }
      run.send_prefetch_batch(static_cast<int>(pe), std::move(batch));
    }
    run.wait_idle();
  }
  const double wall = now_s() - t0;

  RunResult res;
  res.name = name;
  res.ctx_switches = ctx_switch_count() - cs0;
  res.wall_s = wall;
  res.tasks = run.tasks_executed();
  res.tasks_per_sec = wall > 0 ? static_cast<double>(res.tasks) / wall : 0;
  const auto st = run.policy_stats();
  res.fetches = st.fetches;
  res.evicts = st.evicts;
  res.run_threads = run.num_pes() + run.num_io_threads();
  if (const trace::ContentionStats* cs = run.lock_stats()) {
    const auto t = cs->totals();
    res.lock_acquisitions = t.acquisitions;
    res.lock_contended = t.contended;
    res.lock_wait_s = t.wait_s;
    const double thread_s =
        wall * static_cast<double>(run.num_pes() + run.num_io_threads());
    res.lock_wait_fraction = thread_s > 0 ? t.wait_s / thread_s : 0;
  }
  HMR_CHECK(bodies.load() == res.tasks);
  return res;
}

/// Best tasks/sec over bc.sched_reps runs of one configuration.
RunResult run_config_best(const std::string& name, const BenchCfg& bc) {
  RunResult best;
  for (std::int64_t i = 0; i < bc.sched_reps; ++i) {
    RunResult r = run_config(name, bc);
    if (i == 0 || r.tasks_per_sec > best.tasks_per_sec) best = r;
  }
  return best;
}

struct MigrateResultRow {
  double mono_s = 0;
  double chunked_s = 0;
  double mono_gbps = 0;
  double chunked_gbps = 0;
  std::uint64_t chunks = 0;
  std::uint64_t assisted_chunks = 0;
  std::uint64_t bytes = 0;
};

constexpr std::uint64_t kChunkThreshold = 1u << 20;
constexpr std::uint64_t kChunkBytes = 256u << 10;

/// One large block copied fast<->slow: monolithic memcpy vs ChunkRing
/// with helper threads assisting, averaged over `reps` round trips.
MigrateResultRow run_migrate(std::uint64_t block_bytes, int helpers,
                             int reps) {
  MigrateResultRow row;
  row.bytes = block_bytes;
  mem::MemoryManager mm({{"fast", block_bytes + (1u << 20)},
                         {"slow", block_bytes + (1u << 20)}});
  const mem::BlockId b = mm.register_block(block_bytes, 1);

  // Warm both arenas (first-touch page faults would otherwise be
  // charged entirely to the monolithic phase, which runs first).
  (void)mm.migrate(b, 0);
  (void)mm.migrate(b, 1);

  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) {
    (void)mm.migrate(b, 0);
    (void)mm.migrate(b, 1);
  }
  row.mono_s = (now_s() - t0) / (2.0 * reps);

  mm.set_chunked_copy(kChunkThreshold, kChunkBytes);
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int h = 0; h < helpers; ++h) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (mm.assist_copies() == 0) std::this_thread::yield();
      }
    });
  }
  const double t1 = now_s();
  for (int i = 0; i < reps; ++i) {
    (void)mm.migrate(b, 0);
    (void)mm.migrate(b, 1);
  }
  row.chunked_s = (now_s() - t1) / (2.0 * reps);
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  row.chunks = mm.chunk_ring().chunks_copied();
  row.assisted_chunks = mm.chunk_ring().chunks_assisted();
  const double gb = static_cast<double>(block_bytes) / 1e9;
  row.mono_gbps = row.mono_s > 0 ? gb / row.mono_s : 0;
  row.chunked_gbps = row.chunked_s > 0 ? gb / row.chunked_s : 0;
  return row;
}

/// Separate traced run of the same configuration (tracing perturbs
/// the timed run above, so it never piggybacks on it):
/// exports the timeline as Chrome-trace/Perfetto JSON with causal task
/// flows, and the wall-clock metrics registry as Prometheus text.
void run_traced(const BenchCfg& bc, const std::string& perfetto_path,
                const std::string& prom_path) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = static_cast<int>(bc.pes);
  cfg.mem_scale =
      static_cast<double>(bc.fast_kib << 10) /
      static_cast<double>(cfg.model.tier(cfg.model.fast).capacity);
  cfg.lock_stats = true;
  cfg.trace = true;
  cfg.metrics = true;
  cfg.chunk_threshold = 0;
  rt::Runtime run(cfg);

  std::vector<std::vector<mem::BlockId>> blocks(
      static_cast<std::size_t>(bc.pes));
  for (auto& pool : blocks) {
    for (std::int64_t i = 0; i < bc.blocks_per_pe; ++i) {
      pool.push_back(run.alloc_block(bc.block_bytes));
    }
  }
  std::atomic<std::uint64_t> bodies{0};
  const std::int64_t rounds = std::min<std::int64_t>(bc.rounds, 4);
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (std::int64_t pe = 0; pe < bc.pes; ++pe) {
      std::vector<rt::Runtime::PrefetchMsg> batch;
      const auto& pool = blocks[static_cast<std::size_t>(pe)];
      for (std::int64_t t = 0; t < bc.tasks_per_round; ++t) {
        const std::size_t a = static_cast<std::size_t>(r + t) % pool.size();
        const std::size_t b =
            static_cast<std::size_t>(r + t + 7) % pool.size();
        rt::Runtime::PrefetchMsg m;
        m.deps = {{pool[a], ooc::AccessMode::ReadWrite}};
        if (b != a) m.deps.push_back({pool[b], ooc::AccessMode::ReadOnly});
        m.body = [&bodies] {
          bodies.fetch_add(1, std::memory_order_relaxed);
        };
        batch.push_back(std::move(m));
      }
      run.send_prefetch_batch(static_cast<int>(pe), std::move(batch));
    }
    run.wait_idle();
  }
  if (!perfetto_path.empty()) {
    std::ofstream ofs(perfetto_path);
    telemetry::PerfettoOptions popt;
    popt.worker_lanes = cfg.num_pes;
    telemetry::write_perfetto(ofs, run.tracer().intervals(), popt);
    std::printf("wrote %s (open in ui.perfetto.dev; %llu ring drops)\n",
                perfetto_path.c_str(),
                static_cast<unsigned long long>(run.tracer().dropped()));
  }
  if (!prom_path.empty()) {
    std::ofstream ofs(prom_path);
    telemetry::MetricsRegistry::write_prometheus(
        ofs, run.metrics()->snapshot());
    std::printf("wrote %s\n", prom_path.c_str());
  }
}

/// --check: the counters the arguments fix exactly.  Returns the
/// number of mismatches (each printed).
int check_counters(const BenchCfg& bc, const RunResult& r,
                   const MigrateResultRow& mig, std::uint64_t migrate_bytes,
                   std::int64_t reps) {
  const auto tasks = static_cast<std::uint64_t>(bc.pes * bc.rounds *
                                                bc.tasks_per_round);
  // Each of the 2 x reps chunked-phase migrations streams the whole
  // block through the ring; the warm-up and monolithic phases run
  // before chunking is enabled.
  const std::uint64_t chunks =
      migrate_bytes >= kChunkThreshold
          ? 2 * static_cast<std::uint64_t>(reps) *
                ((migrate_bytes + kChunkBytes - 1) / kChunkBytes)
          : 0;
  int bad = 0;
  const auto expect = [&bad](const char* name, std::uint64_t got,
                             std::uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr, "check failed: %s = %llu, expected %llu\n", name,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++bad;
  };
  expect("tasks", r.tasks, tasks);
  expect("bytes", mig.bytes, migrate_bytes);
  expect("chunks_copied", mig.chunks, chunks);
  return bad;
}

void print_result(const RunResult& r) {
  std::printf(
      "%-16s %9.0f tasks/s  wall %6.3fs  fetches %llu  evicts %llu\n"
      "%-16s locks: %llu acquisitions, %llu contended, wait %.4fs "
      "(%.1f%% of thread-time)  ctx-switches %llu\n",
      r.name.c_str(), r.tasks_per_sec, r.wall_s,
      static_cast<unsigned long long>(r.fetches),
      static_cast<unsigned long long>(r.evicts), "",
      static_cast<unsigned long long>(r.lock_acquisitions),
      static_cast<unsigned long long>(r.lock_contended), r.lock_wait_s,
      100.0 * r.lock_wait_fraction,
      static_cast<unsigned long long>(r.ctx_switches));
}

void write_json(const std::string& path, const BenchCfg& bc,
                const RunResult& r, const MigrateResultRow& mig) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"rt_contention\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"run_threads\": %d,\n", r.run_threads);
  std::fprintf(
      f,
      "  \"workload\": {\"pes\": %lld, \"rounds\": %lld, "
      "\"tasks_per_round\": %lld, \"blocks_per_pe\": %lld, "
      "\"block_bytes\": %llu},\n",
      static_cast<long long>(bc.pes), static_cast<long long>(bc.rounds),
      static_cast<long long>(bc.tasks_per_round),
      static_cast<long long>(bc.blocks_per_pe),
      static_cast<unsigned long long>(bc.block_bytes));
  std::fprintf(
      f,
      "  \"configs\": [\n"
      "    {\"name\": \"%s\", \"wall_s\": %.6f, "
      "\"tasks\": %llu, \"tasks_per_sec\": %.1f, "
      "\"lock_acquisitions\": %llu, \"lock_contended\": %llu, "
      "\"lock_wait_s\": %.6f, \"lock_wait_fraction\": %.6f, "
      "\"ctx_switches\": %llu}\n  ],\n",
      r.name.c_str(), r.wall_s, static_cast<unsigned long long>(r.tasks),
      r.tasks_per_sec, static_cast<unsigned long long>(r.lock_acquisitions),
      static_cast<unsigned long long>(r.lock_contended), r.lock_wait_s,
      r.lock_wait_fraction, static_cast<unsigned long long>(r.ctx_switches));
  std::fprintf(
      f,
      "  \"migrate\": {\"bytes\": %llu, \"mono_s\": %.6f, "
      "\"chunked_s\": %.6f, \"mono_gbps\": %.3f, \"chunked_gbps\": %.3f, "
      "\"chunks_copied\": %llu, \"chunks_assisted\": %llu}\n}\n",
      static_cast<unsigned long long>(mig.bytes), mig.mono_s, mig.chunked_s,
      mig.mono_gbps, mig.chunked_gbps,
      static_cast<unsigned long long>(mig.chunks),
      static_cast<unsigned long long>(mig.assisted_chunks));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

} // namespace

int main(int argc, char** argv) {
  BenchCfg bc;
  bool json = false;
  bool check = false;
  std::int64_t helpers = 3;
  std::int64_t migrate_mib = 64;
  std::int64_t reps = 4;
  std::string perfetto;
  std::string prom;
  hmr::ArgParser ap("rt_contention",
                    "threaded-runtime scheduler contention bench: "
                    "engine-lock cost, monolithic vs chunked "
                    "migration");
  ap.add_flag("pes", "worker threads (0 = one per hardware thread)",
              &bc.pes);
  ap.add_flag("rounds", "wait_idle-separated rounds", &bc.rounds);
  ap.add_flag("tasks-per-round", "tasks per PE per round",
              &bc.tasks_per_round);
  ap.add_flag("blocks-per-pe", "private pool size", &bc.blocks_per_pe);
  ap.add_flag("block-bytes", "bytes per block", &bc.block_bytes);
  ap.add_flag("fast-kib", "fast-tier capacity (KiB)", &bc.fast_kib);
  ap.add_flag("sched-reps", "best-of-N runs per configuration",
              &bc.sched_reps);
  ap.add_flag("evict-by-worker", "run evictions inline on the worker",
              &bc.evict_by_worker);
  ap.add_flag("pin", "pin worker/IO threads to cores (best effort)",
              &bc.pin);
  ap.add_flag("helpers", "assist threads for the migrate phase", &helpers);
  ap.add_flag("migrate-mib", "large-block size (MiB)", &migrate_mib);
  ap.add_flag("reps", "round trips in the migrate phase", &reps);
  ap.add_flag("json", "write BENCH_rt_contention.json", &json);
  ap.add_flag("check",
              "exit 2 unless tasks, bytes and chunks_copied equal the "
              "values the arguments imply",
              &check);
  ap.add_flag("perfetto",
              "run the config once more with tracing on and "
              "write its timeline as Chrome-trace JSON here",
              &perfetto);
  ap.add_flag("prom",
              "with the traced run, also write the metrics registry as "
              "Prometheus text here",
              &prom);
  if (!ap.parse(argc, argv)) return 1;
  if (bc.pes <= 0) {
    bc.pes = std::max(2u, std::thread::hardware_concurrency());
    std::printf("auto-detected %lld PEs (%u hardware threads)\n",
                static_cast<long long>(bc.pes),
                std::thread::hardware_concurrency());
  }

  std::printf("== rt_contention: %lld PEs, %lld rounds x %lld tasks/PE, "
              "%llu KiB blocks ==\n\n",
              static_cast<long long>(bc.pes),
              static_cast<long long>(bc.rounds),
              static_cast<long long>(bc.tasks_per_round),
              static_cast<unsigned long long>(bc.block_bytes >> 10));

  const RunResult run = run_config_best("scheduler", bc);
  print_result(run);
  std::printf("\n");

  const auto migrate_bytes = static_cast<std::uint64_t>(migrate_mib) << 20;
  const MigrateResultRow mig = run_migrate(
      migrate_bytes, static_cast<int>(helpers), static_cast<int>(reps));
  std::printf(
      "migrate %lld MiB: mono %.2f GB/s, chunked %.2f GB/s "
      "(%llu chunks, %llu assisted)\n",
      static_cast<long long>(migrate_mib), mig.mono_gbps, mig.chunked_gbps,
      static_cast<unsigned long long>(mig.chunks),
      static_cast<unsigned long long>(mig.assisted_chunks));

  if (json) write_json("BENCH_rt_contention.json", bc, run, mig);
  if (!perfetto.empty() || !prom.empty()) run_traced(bc, perfetto, prom);
  if (check) {
    if (check_counters(bc, run, mig, migrate_bytes, reps) != 0) return 2;
    std::printf("check: tasks, bytes and chunks_copied as expected\n");
  }
  return 0;
}
