#pragma once
// Bridges from the runtime's existing cumulative counters into a
// MetricsRegistry.
//
// The engines keep their own Stats structs (cheap, updated under their
// own locks); rather than thread a registry pointer through every
// increment site, the executors call these exporters at sample points
// (quiescence, phase ends, SnapshotSampler pre-sample) to mirror the
// current totals into named counters.  Counter::set keeps the mirror
// monotone as long as the source is.
//
// Metric names produced here are part of the catalog in
// docs/OBSERVABILITY.md.

#include <string>

#include "mem/chunked_copy.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "telemetry/metrics.hpp"
#include "trace/contention.hpp"

namespace hmr::telemetry {

/// hmr_policy_*_total counters (one per PolicyEngine::Stats field).
/// `labels` is an optional Prometheus label set distinguishing
/// sources; empty = the node-wide totals.
void export_policy_stats(MetricsRegistry& reg,
                         const ooc::PolicyEngine::Stats& st,
                         const std::string& labels = "");

/// hmr_lock_acquisitions_total / hmr_lock_contended_total /
/// hmr_lock_wait_seconds, per slot (label shard="i"; the runtime's
/// engine mutex is slot 0).
void export_contention(MetricsRegistry& reg,
                       const trace::ContentionStats& cs);

/// hmr_chunk_jobs_total / hmr_chunk_chunks_copied_total /
/// hmr_chunk_chunks_assisted_total / hmr_copy_ring_fallbacks_total.
void export_chunk_ring(MetricsRegistry& reg, const mem::ChunkRing& ring);

/// Copy-kernel and zero-copy admission counters:
/// hmr_copy_nt_copies_total / hmr_copy_nt_bytes_total (process-wide
/// non-temporal-store path) and hmr_zero_copy_admissions_total /
/// hmr_zero_copy_bytes_total / hmr_shadow_invalidations_total from the
/// MemoryManager's shadow machinery.
void export_data_movement(MetricsRegistry& reg,
                          const mem::MemoryManager& mm);

} // namespace hmr::telemetry
