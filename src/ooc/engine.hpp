#pragma once
// Engine: the event vocabulary of the paper's prefetch/evict protocol.
//
// One implementation exists: the serial ooc::PolicyEngine (every
// strategy, advice, lazy eviction, watermark trims; callers
// serialize).  The interface lets code that only *drives* an engine —
// the multi-tenant serving decorator in src/serve, which wraps one
// engine and is itself an Engine — be written against the protocol
// rather than the class:
//   * on_task_complete carries the PE the task ran on.  PolicyEngine
//     ignores it (the task record knows its PE); decorators may key
//     per-PE bookkeeping by it.
//   * stats are returned by value as engine_stats(), so a decorator
//     can answer without holding a reference into its inner engine.
//   * introspection is what decorators and telemetry need: residency,
//     per-level usage, refcounts, waiting depth, quiescence, invariant
//     audits.
//
// Thread safety: none.  Callers serialize every call (hmr::rt holds
// one engine mutex; hmr::sim is single-threaded); decorators must
// preserve that contract.

#include <cstdint>
#include <string>
#include <vector>

#include "ooc/types.hpp"

namespace hmr::ooc {

class Engine {
public:
  virtual ~Engine() = default;

  // ---- block registry ----

  /// Register a data block; returns the tier id its storage must be
  /// placed on.
  virtual TierId add_block(BlockId b, std::uint64_t bytes) = 0;

  /// Forget a block.  Must be unreferenced and not in flight.
  virtual void remove_block(BlockId b) = 0;

  // ---- events (each returns the commands to execute) ----

  virtual std::vector<Command> on_task_arrived(const TaskDesc& task) = 0;
  virtual std::vector<Command> on_fetch_complete(BlockId b) = 0;
  virtual std::vector<Command> on_evict_complete(BlockId b) = 0;
  /// `pe` is the PE the task ran on (executors always know it).
  virtual std::vector<Command> on_task_complete(TaskId t,
                                                std::int32_t pe) = 0;

  // ---- introspection ----

  /// Aggregate counters.
  virtual EngineStats engine_stats() const = 0;

  /// True when every arrived task has completed and nothing is queued
  /// or in flight.
  virtual bool quiescent() const = 0;

  /// Tasks sitting in wait queues (admission not yet granted).
  virtual std::size_t total_waiting() const = 0;

  /// The placement hierarchy (levels, fastest first).
  virtual const std::vector<TierDesc>& tiers() const = 0;

  /// Bytes resident on (or in flight to) a hierarchy level.
  virtual std::uint64_t tier_used(std::int32_t level) const = 0;

  virtual BlockState block_state(BlockId b) const = 0;
  virtual std::int32_t block_level(BlockId b) const = 0;
  virtual std::uint32_t refcount(BlockId b) const = 0;

  /// Cross-check bookkeeping against ground truth; one human-readable
  /// line per violation (empty = clean).
  virtual std::vector<std::string> audit_invariants(
      bool at_quiescence) const = 0;
};

} // namespace hmr::ooc
