#pragma once
// Multi-node cluster vocabulary (paper §VI: "We will also perform
// comparisons ... in multi-node cluster settings").
//
// This header holds the network model and the per-node halo-exchange
// cost functions.  The cluster *simulation* — a genuine multi-node
// discrete-event simulation built from a PlacementCoordinator and
// per-node BlockStores — lives in src/cluster/ (library hmr_cluster,
// cluster::ClusterSim).
//
// Weak-scaling semantics for the Stencil3D workload: every node owns
// an equal sub-domain and runs the single-node discrete-event
// simulation for its local work (compute + prefetch/evict traffic),
// while the inter-node halo exchange rides the network model.  Halo
// traffic scales with the sub-domain's surface while local work scales
// with its volume, so the communication fraction falls as per-node
// working sets grow — the standard weak-scaling story the within-node
// runtime must not disturb.

#include <cstdint>
#include <vector>

#include "hw/machine_model.hpp"
#include "ooc/types.hpp"

namespace hmr::sim {

/// Interconnect between nodes (Aries/Omni-Path-like defaults): per
/// message latency, serialization bandwidth, and a NIC message-rate
/// ceiling that dominates in the small-message regime (ROADMAP names
/// all three).  Transfers are segmented into max_msg_bytes messages;
/// serialization takes max(bytes / bw, messages / msg_rate).
struct NetworkModel {
  double latency = 2e-6;          // per message, seconds
  double link_bw = 12.5e9;        // bytes/s per direction
  double injection_bw = 10.0e9;   // bytes/s a node can source
  double msg_rate = 2.5e7;        // messages/s a NIC can issue
  std::uint64_t max_msg_bytes = 64ull << 10; // transfer segmentation

  /// Messages a transfer of `bytes` is segmented into (>= 1).
  std::uint64_t messages(std::uint64_t bytes) const {
    return tier_params().messages(bytes);
  }
  /// Serialization time: bandwidth- or message-rate-bound, whichever
  /// is worse (no latency term — that is per message chain).
  double serialize_seconds(std::uint64_t bytes) const {
    return tier_params().serialize_seconds(bytes);
  }
  /// One point-to-point transfer: latency + serialization.
  double transfer_seconds(std::uint64_t bytes) const {
    return latency + serialize_seconds(bytes);
  }
  /// Rate the transfer actually sustains (< min(link, injection) when
  /// the message-rate term dominates).
  double effective_bw(std::uint64_t bytes) const {
    const double s = serialize_seconds(bytes);
    return s > 0 ? static_cast<double>(bytes) / s : 0.0;
  }
  /// The same path expressed as a Remote tier backend's parameters.
  ooc::RemoteTierParams tier_params() const {
    ooc::RemoteTierParams p;
    p.latency = latency;
    p.bandwidth = link_bw < injection_bw ? link_bw : injection_bw;
    p.msg_rate = msg_rate;
    p.max_msg_bytes = max_msg_bytes;
    return p;
  }
};

/// Append a disaggregated remote tier to a node model: a pool reached
/// over `net` instead of the memory bus.  read_bw/write_bw become the
/// network's large-transfer effective bandwidth and latency the
/// network latency, so compute_time and copy_rate stay meaningful for
/// remote-resident bytes; MemoryTier::remote is set so
/// ooc::tiers_from_model sorts it below every local tier and stamps
/// the Remote backend.  `capacity` sizes the pool for bounded callers
/// (rt arenas); the engine's bottom level is unbounded regardless.
/// Returns the new tier's id.
hw::TierId add_remote_tier(hw::MachineModel& m, const NetworkModel& net,
                           std::uint64_t capacity = 1ull << 40);

/// Placement hierarchy for a remote-augmented model with the Remote
/// levels' message-rate parameters refined from the full NetworkModel
/// (tiers_from_model alone only sees bandwidth and latency).
std::vector<ooc::TierDesc> tiers_with_remote(const hw::MachineModel& m,
                                             const NetworkModel& net);

/// Bytes a node sends per iteration: six faces of its sub-domain of
/// `bytes_per_node` bytes of doubles (boundary nodes send fewer; this
/// models the interior worst case, which sets the critical path).
std::uint64_t halo_bytes(std::uint64_t bytes_per_node);

/// Halo exchange time for one iteration on the given network.
double halo_time(const NetworkModel& net, std::uint64_t bytes);

} // namespace hmr::sim
