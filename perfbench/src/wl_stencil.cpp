// stencil reference probe: apps::Stencil3D on rt::Runtime, the paper's
// bandwidth-bound application.  MultiIo with 2 PEs (2 IO threads), a
// 128^3 grid over 2^3 chares and mem_scale 1/1024: a 16 MiB fast tier
// against a ~33 MiB working set.  The 2 MiB interior blocks exceed the
// 1 MiB chunk threshold, so this is where mem's ChunkRing and helper
// assists run (mem.assist_frac).
//
// Within one wave the chares' dependences are disjoint, so under eager
// eviction every dependence of every task is fetched and evicted once:
// the implied traffic is the sum over the stream's deps, exactly.
//
// This was sized as a timed workload (stencil_migrate); its iteration
// times on the shared reference host swung 2x within a minute
// (perfbench/NOTES.md), so it runs as a probe in every traced trial.

#include <cstring>

#include "apps/reference.hpp"
#include "apps/stencil3d.hpp"
#include "rt/runtime.hpp"
#include "workloads.hpp"

namespace hmr::bench {

namespace {

constexpr int kN = 128;
constexpr int kC = 2;
constexpr int kWarm = 3;
constexpr int kIters = 10;

/// Dependences and their bytes one iteration declares: an exchange wave
/// (cur + the facing ghost of each neighbour) and an update wave (cur,
/// next and all six ghosts).
void deps_per_iteration(std::uint64_t* deps, std::uint64_t* bytes) {
  const std::uint64_t side = kN / kC;
  const std::uint64_t vol = side * side * side * sizeof(double);
  const std::uint64_t face = side * side * sizeof(double);
  std::uint64_t neighbours = 0;
  for (int c = 0; c < kC * kC * kC; ++c) {
    const int at[3] = {c % kC, (c / kC) % kC, c / (kC * kC)};
    for (int axis = 0; axis < 3; ++axis) {
      neighbours += (at[axis] > 0) + (at[axis] < kC - 1);
    }
  }
  const std::uint64_t chares = kC * kC * kC;
  *deps = chares + neighbours + chares * 8;
  *bytes = chares * vol + neighbours * face + chares * (2 * vol + 6 * face);
}

} // namespace

void probe_stencil(Spans& spans, Trial& t) {
  SpanScope top(spans, "stencil.probe");
  const ThreadBudget threads{2, 2, 0};
  check_thread_budget(threads);
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = threads.pes;
  cfg.mem_scale = 1.0 / 1024;
  rt::Runtime run(cfg);
  apps::StencilParams sp;
  sp.nx = sp.ny = sp.nz = kN;
  sp.cx = sp.cy = sp.cz = kC;
  sp.seed = 7;
  apps::Stencil3D app(run, sp);
  std::vector<double> ref(static_cast<std::size_t>(kN) * kN * kN);
  apps::fill_pattern(ref.data(), ref.size(), sp.seed);
  apps::serial_stencil3d(ref, kN, kN, kN, kWarm + kIters);

  for (int i = 0; i < kWarm; ++i) app.step();
  const auto& ring = run.memory().chunk_ring();
  const std::uint64_t chunks0 = ring.chunks_copied(), assisted0 = ring.chunks_assisted();
  for (int i = 0; i < kIters; ++i) {
    SpanScope s(spans, "apps.Stencil3D::step");
    app.step();
  }
  const std::uint64_t chunks = ring.chunks_copied() - chunks0;
  t.layers["mem.assist_frac"] =
      chunks ? static_cast<double>(ring.chunks_assisted() - assisted0) /
                   static_cast<double>(chunks)
             : 0;
  t.layer_source["mem.assist_frac"] = "stencil_probe";

  // Output check: bitwise against the serial reference; traffic check:
  // exactly the implied fetch/evict counts and bytes.
  const std::vector<double> got = app.gather();
  t.check(got.size() == ref.size() &&
              std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)) == 0,
          "stencil probe: grid differs from apps::serial_stencil3d");
  std::uint64_t deps = 0, bytes = 0;
  deps_per_iteration(&deps, &bytes);
  const std::uint64_t iters = kWarm + kIters;
  const auto st = run.policy_stats();
  t.check(run.tasks_executed() == iters * 2 * kC * kC * kC,
          "stencil probe: tasks_executed() != tasks implied");
  t.check(st.fetches == iters * deps && st.evicts == iters * deps,
          "stencil probe: fetches/evicts != dependences implied");
  t.check(st.fetch_bytes == iters * bytes && st.evict_bytes == iters * bytes,
          "stencil probe: fetch/evict bytes != dependence bytes implied");
}

} // namespace hmr::bench
