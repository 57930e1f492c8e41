#pragma once
// The benchmark workloads (one trial each) and the reference probes
// that stand in for a layer a workload does not exercise, so every
// traced trial reports the full per-layer ledger.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace hmr::bench {

/// One trial; `spans` records the harness's calls (traced trials).
Trial run_finegrain(const Options& o, Spans& spans);
Trial run_des(const Options& o, Spans& spans);

/// rt reference probe: a short traced fine-grained stream on a fresh
/// Runtime; fills every rt.* metric and ooc.budget_steals.
void probe_rt(Spans& spans, Trial& t);
/// sim reference probe: a small MatMul DES run plus its engine replay.
void probe_sim(Spans& spans, Trial& t);
/// stencil reference probe: Stencil3D on MultiIo, checked bitwise and
/// against its implied traffic; fills mem.assist_frac.
void probe_stencil(Spans& spans, Trial& t);
/// serve reference probe: a short two-tenant open-loop stream; fills
/// every serve.* metric.
void probe_serve(Spans& spans, Trial& t);

} // namespace hmr::bench
