#pragma once
// ClusterSim: a genuine multi-node discrete-event simulation built
// from the single-node DES (paper §VI: "comparisons ... in multi-node
// cluster settings").
//
// Architecture (docs/CLUSTER.md):
//   * a PlacementCoordinator (mgm role) places every data object —
//     node ownership plus local-pool vs disaggregated-remote-pool
//     homing under per-node capacity ledgers;
//   * per-node BlockStores (fst role) run the node-local work as the
//     full single-node DES, with the coordinator's homes threaded in
//     through sim::BlockSpec::home_level and the remote pool appearing
//     as a Remote-backed bottom hierarchy level (spill-to-remote and
//     promote-on-access then fall out of the engine's existing
//     demotion cascade and promote-to-top fetch protocol);
//   * a cluster-level event queue advances the iteration protocol:
//     each node computes, injects its halo onto the network (six face
//     messages: latency chain + serialization, message-rate-limited
//     for small faces), and starts the next iteration only when its
//     own halo is out and both ring neighbours' halos for the current
//     iteration have arrived.  Node skew therefore propagates one hop
//     per iteration instead of being averaged away analytically.
//
// After the run the coordinator's ledgers are reconciled against every
// node engine's ground-truth residency (placement bytes + promoted -
// spilled must equal what the node actually holds locally);
// ClusterRunResult::audit carries any violation, and CI gates on it
// staying empty.
//
// Identical nodes run one shared BlockStore per distinct per-node
// byte share (weak scaling: one; strong scaling with a remainder:
// two), so sweeping 512 nodes costs two node simulations, not 512.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/block_store.hpp"
#include "cluster/coordinator.hpp"
#include "sim/cluster.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/federate.hpp"
#include "trace/tracer.hpp"

namespace hmr::cluster {

struct ClusterConfig {
  hw::MachineModel node = hw::knl_flat_all_to_all();
  sim::NetworkModel net;
  int nodes = 8;
  /// Per-node working set (weak scaling keeps this constant).
  std::uint64_t bytes_per_node = 32ull << 30;
  /// Strong scaling: nonzero fixes the *global* working set, split
  /// evenly across nodes (node 0 takes the remainder).  Overrides
  /// bytes_per_node.
  std::uint64_t total_bytes = 0;
  std::uint64_t reduced_bytes = 2ull << 30;
  int iterations = 5;
  ooc::Strategy strategy = ooc::Strategy::MultiIo;

  /// Append the disaggregated remote pool (sim::add_remote_tier) to
  /// every node's hierarchy and let the coordinator home over-budget
  /// objects there.
  bool remote_tier = false;
  /// Local home budget per node in bytes — caps the lowest local
  /// hierarchy level so part of the working set must home remotely
  /// (0 = the model's own capacity, nothing spills at placement).
  /// Requires remote_tier.
  std::uint64_t node_local_capacity = 0;
  /// Ablation: home every object on the remote pool and never move it
  /// (ooc::Strategy::DdrOnly against the remote-augmented model) — the
  /// naive all-remote baseline the placement cascade must beat.
  bool all_remote = false;

  /// Record cluster-level lanes (lane n = node n: Compute bars and
  /// halo-injection Prefetch bars), readable via ClusterSim::tracer.
  bool trace = false;

  /// Give every share-group's node DES its own MetricsRegistry and
  /// stall-attribution table, and fold the per-node snapshots into a
  /// telemetry::Federation after the run (one snapshot per group,
  /// weighted by the nodes it stands for).  Read them back via
  /// federation() / metrics_json() / attrib_json() — the payloads of
  /// the /cluster/metrics and /cluster/attrib status routes.
  bool metrics = false;
};

/// Per-node outcome (nodes sharing a BlockStore report equal values).
struct NodeStats {
  NodeId node = 0;
  std::uint64_t bytes = 0; // per-node working set share
  double local_iteration_s = 0;
  std::uint64_t remote_messages = 0; // pool migrations, network msgs
  ooc::PolicyEngine::Stats policy;
};

struct ClusterRunResult {
  int nodes = 0;
  // Classic weak-scaling decomposition (node critical path).
  double node_iteration_s = 0;
  double halo_s = 0;
  double iteration_s = 0; // node_iteration_s + halo_s
  double comm_fraction = 0;
  /// Cluster DES end time (== the per-node DES total on one node; on
  /// heterogeneous shares skew pipelining makes it less than
  /// iteration_s * iterations).
  double total_s = 0;
  std::uint64_t halo_bytes_per_node = 0; // critical (largest) share

  // Deterministic counters (CI gates on them byte-for-byte).
  std::uint64_t halo_messages = 0;   // cluster DES network messages
  std::uint64_t remote_messages = 0; // pool-migration network messages
  std::uint64_t remote_fetches = 0, remote_fetch_bytes = 0;
  std::uint64_t remote_evicts = 0, remote_evict_bytes = 0;
  std::uint64_t placements_local = 0, placements_remote = 0;

  std::vector<NodeStats> node_stats;
  std::vector<NodeLedger> ledgers;
  /// Coordinator-ledger / engine-residency conservation violations
  /// (empty = every byte accounted for).
  std::vector<std::string> audit;
};

class ClusterSim {
public:
  explicit ClusterSim(ClusterConfig cfg);

  /// Run placement, the per-node DESs and the cluster DES to
  /// completion (once per instance).
  ClusterRunResult run();

  /// Valid after run().
  const PlacementCoordinator& coordinator() const;
  /// Cluster-level lanes when ClusterConfig::trace was set.
  const trace::Tracer& tracer() const { return tracer_; }
  /// JSON for the StatusServer /cluster route: coordinator ledgers
  /// plus the run's deterministic counters.
  std::string to_json() const;

  /// Federated per-node metrics (empty unless ClusterConfig::metrics).
  const telemetry::Federation& federation() const { return fed_; }
  /// The /cluster/metrics payload: per-group node snapshots plus the
  /// weighted aggregate (telemetry::Federation::write_json).
  std::string metrics_json() const;
  /// The /cluster/attrib payload: each group's stall-attribution
  /// rollup, weighted by the nodes it stands for.
  std::string attrib_json() const;

private:
  /// One share-group's attribution rollup (stands for `weight` nodes).
  struct NodeAttrib {
    std::string name;
    std::uint64_t weight = 1;
    telemetry::AttributionTable::Rollup roll;
  };

  ClusterConfig cfg_;
  std::unique_ptr<PlacementCoordinator> coord_;
  trace::Tracer tracer_;
  ClusterRunResult result_;
  telemetry::Federation fed_;
  std::vector<NodeAttrib> attribs_;
  bool ran_ = false;
};

} // namespace hmr::cluster
