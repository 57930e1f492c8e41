#pragma once
// Per-layer measurements taken from outside each module: the harness
// times its own calls into the module's public functions and reads the
// counters the module already exposes.  No probe reaches into src/.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "ooc/types.hpp"
#include "rt/runtime.hpp"

namespace hmr::bench {

/// mem: MemoryManager::migrate round trips and mem::copy at one block
/// size.  Fills mem.migrate_gbps, mem.copy_gbps, mem.copy_us,
/// mem.alloc_us and mem.free_us.
void probe_mem(std::uint64_t block_bytes, Spans& spans, Trial& t);

/// A task stream for the standalone policy-engine replay: blocks by
/// dense id, and rounds of arrivals each drained to quiescence.
struct ReplaySpec {
  ooc::Strategy strategy = ooc::Strategy::MultiIo;
  int num_pes = 2;
  std::uint64_t fast_capacity = 0;
  std::vector<std::uint64_t> block_bytes;
  std::vector<std::vector<ooc::TaskDesc>> rounds;
};

struct ReplayResult {
  double seconds = 0;
  std::uint64_t events = 0;
};

/// ooc: replay `spec` through a standalone PolicyEngine (step_batch for
/// arrivals, on_* for completions, commands executed instantly).
ReplayResult replay_ooc(const ReplaySpec& spec, Spans& spans);

/// Fills ooc.event_ns and ooc.replay_s from a replay.
void put_replay(const ReplayResult& r, Trial& t);

/// ooc: TierBudget::try_claim + release pairs from 2 threads, ns each.
void probe_budget(std::uint64_t bytes, Spans& spans, Trial& t);

/// telemetry: ns per Tracer::record, AttributionTable::record and
/// Histogram::observe call.
struct TelemetryCost {
  double tracer_ns = 0;
  double attrib_ns = 0;
  double hist_ns = 0;
};
TelemetryCost probe_telemetry(Spans& spans);

/// apps reference probe: one serial_stencil3d sweep of the 128^3 grid,
/// ms (median of 3).
void probe_apps(Spans& spans, Trial& t);

/// rt counters after a traced, lock-stats run: lanes from the tracer,
/// lock wait from lock_stats(), plus ctx switches and budget steals
/// (deltas over the measured phase passed in).
struct RtBase {
  double wall_s = 0;
  std::uint64_t ctx = 0;
  std::uint64_t steals = 0;
  trace::ContentionStats::Totals locks;
};
RtBase rt_base(rt::Runtime& run);
void put_rt_layers(rt::Runtime& run, const RtBase& base, double wall_s,
                   std::uint64_t tasks, Trial& t);

/// telemetry.ns_per_task from a traced Runtime run: records per task
/// (tracer intervals, attribution records, histogram observations)
/// times the probed per-record costs.
void put_telemetry(rt::Runtime& run, std::uint64_t tasks,
                   const TelemetryCost& c, Trial& t);

/// Marks the layer metrics under `prefix` not yet attributed as coming
/// from the named reference probe.
void mark_probe(Trial& t, const char* prefix, const char* probe);

/// The exact counts every workload reports (fetches, evicts, bytes).
void put_exact(const ooc::EngineStats& s, Trial& t);

/// Traced-trial artifact path stem under o.out_dir (created on demand).
std::string artifact_stem(const Options& o);

/// The run's timeline through telemetry::write_perfetto, readable by
/// hmr_explain: <stem>.perfetto.json.
void write_perfetto(const Options& o, const trace::Tracer& tracer, int worker_lanes);

} // namespace hmr::bench
