#pragma once
// TransferChannel: fluid-flow model of one migration direction
// (e.g. DDR4 -> MCDRAM).
//
// Every in-flight migration is a *flow* with a remaining byte count.
// All flows progress simultaneously at
//     rate = min(per_flow_rate, aggregate_rate / n_flows)
// which captures the two regimes the strategies live in:
//   * few flows  (SingleIO: exactly one) — each limited by what one
//     thread's memcpy can move (per_flow_rate);
//   * many flows (MultiIO: up to one per PE) — collectively limited by
//     the channel (aggregate_rate), as in Fig 7's 64-thread stress.
//
// The executor advances the channel lazily: after any mutation it asks
// for the next completion time and schedules a tick there.  Stale ticks
// are NOT invalidated: an earlier tick is never cancelled, and every
// tick that finds flows left schedules another, so each add_flow starts
// one more tick chain that runs until the channel drains.  A tick with
// nothing due completes no flow, so the cost is host time: the event
// count grows with flows × live chains.

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace hmr::sim {

class TransferChannel {
public:
  TransferChannel(double per_flow_rate, double aggregate_rate);

  /// Advance all flows to time `now`; returns the ids of flows that
  /// completed (in deterministic ascending-id order).
  std::vector<std::uint64_t> advance(double now);

  /// Add a flow of `bytes`.  Caller must advance(now) first.
  void add_flow(std::uint64_t id, double bytes, double now);

  /// Earliest completion time given current membership; +inf if idle.
  /// Caller must have advanced to `now`.
  double next_completion(double now) const;

  bool has_flows() const { return !flows_.empty(); }
  std::size_t flow_count() const { return flows_.size(); }

  /// Bumped on every membership change.  Nothing reads it yet; it is
  /// not used to drop stale tick events (see the file comment).
  std::uint64_t generation() const { return generation_; }

  double current_rate() const;

private:
  double per_flow_rate_;
  double aggregate_rate_;
  std::unordered_map<std::uint64_t, double> flows_; // id -> remaining bytes
  double last_ = 0;
  std::uint64_t generation_ = 0;
};

} // namespace hmr::sim
