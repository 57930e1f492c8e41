#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/stencil_workload.hpp"
#include "util/check.hpp"

namespace hmr::cluster {

namespace {

/// A node's workload: the shared stencil generator with the
/// coordinator's homing decisions stamped onto the block table.
class PlacedWorkload final : public sim::Workload {
public:
  explicit PlacedWorkload(sim::StencilWorkload base)
      : base_(std::move(base)), blocks_(base_.blocks()) {}

  void set_home(std::size_t i, std::int32_t level) {
    blocks_.at(i).home_level = level;
  }

  std::string name() const override { return base_.name(); }
  int iterations() const override { return base_.iterations(); }
  const std::vector<sim::BlockSpec>& blocks() const override {
    return blocks_;
  }
  std::vector<ooc::TaskDesc> iteration_tasks(int iter) const override {
    return base_.iteration_tasks(iter);
  }

private:
  sim::StencilWorkload base_;
  std::vector<sim::BlockSpec> blocks_;
};

/// Nodes with equal byte shares are statistically identical, so they
/// share one BlockStore run (weak scaling: one group; strong scaling
/// with a remainder: two).
struct Group {
  std::uint64_t share = 0;
  std::vector<NodeId> members;
  std::unique_ptr<PlacedWorkload> w;
  std::unique_ptr<BlockStore> bs;
  std::vector<double> iter_s;   // per-iteration local time
  double mean_iter_s = 0;
  std::uint64_t halo = 0;       // halo bytes per iteration
  double halo_dur = 0;          // full exchange: latency chain + serialize
  std::uint64_t halo_msgs = 0;  // network messages per exchange
};

ObjectId object_id(NodeId n, std::size_t block) {
  return (static_cast<ObjectId>(static_cast<std::uint32_t>(n)) << 32) |
         static_cast<ObjectId>(block);
}

} // namespace

ClusterSim::ClusterSim(ClusterConfig cfg)
    : cfg_(std::move(cfg)), tracer_(cfg_.trace) {}

ClusterRunResult ClusterSim::run() {
  HMR_CHECK_MSG(!ran_, "a ClusterSim runs once");
  ran_ = true;
  HMR_CHECK(cfg_.nodes >= 1 && cfg_.iterations >= 1);
  const bool remote = cfg_.remote_tier || cfg_.all_remote;
  HMR_CHECK_MSG(cfg_.node_local_capacity == 0 || remote,
                "capping the local home budget needs the remote pool");
  HMR_CHECK_MSG(!remote || cfg_.all_remote ||
                    ooc::strategy_moves_data(cfg_.strategy),
                "a disaggregated cluster needs a movement strategy "
                "(the coordinator homes objects; only the engine's "
                "fetch/demote protocol can move them afterwards)");

  const int N = cfg_.nodes;
  result_.nodes = N;

  // Per-node byte shares (strong scaling: node 0 takes the remainder).
  std::vector<std::uint64_t> shares(static_cast<std::size_t>(N));
  if (cfg_.total_bytes > 0) {
    const std::uint64_t each =
        cfg_.total_bytes / static_cast<std::uint64_t>(N);
    const std::uint64_t rem =
        cfg_.total_bytes % static_cast<std::uint64_t>(N);
    for (int n = 0; n < N; ++n) {
      shares[static_cast<std::size_t>(n)] = each + (n == 0 ? rem : 0);
    }
  } else {
    for (auto& s : shares) s = cfg_.bytes_per_node;
  }
  for (const auto s : shares) {
    HMR_CHECK_MSG(s > 0, "a node needs a nonzero sub-domain");
  }

  // Node model and placement hierarchy.
  hw::MachineModel m = cfg_.node;
  std::vector<ooc::TierDesc> tiers; // empty = derive from model
  std::int32_t home = -1;           // lowest local level (local homes)
  std::uint64_t home_capacity = 0;  // its byte budget (placement ledger)
  if (remote) {
    sim::add_remote_tier(m, cfg_.net);
    tiers = sim::tiers_with_remote(m, cfg_.net);
    for (std::size_t k = 0; k < tiers.size(); ++k) {
      if (tiers[k].backend == ooc::TierBackendKind::LocalArena) {
        home = static_cast<std::int32_t>(k);
      }
    }
    HMR_CHECK_MSG(home >= 1,
                  "a disaggregated node needs a middle local level to "
                  "home objects on (level 0 is the prefetch budget)");
    if (cfg_.node_local_capacity > 0) {
      tiers[static_cast<std::size_t>(home)].capacity =
          cfg_.node_local_capacity;
    }
    home_capacity = tiers[static_cast<std::size_t>(home)].capacity;
  }

  PlacementCoordinator::Config ccfg;
  ccfg.nodes = N;
  ccfg.node_capacity = remote ? home_capacity : 0;
  ccfg.allow_remote = remote;
  ccfg.all_remote = cfg_.all_remote;
  coord_ = std::make_unique<PlacementCoordinator>(ccfg);

  // Group nodes by share and build each group's workload.
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(static_cast<std::size_t>(N));
  for (int n = 0; n < N; ++n) {
    const std::uint64_t s = shares[static_cast<std::size_t>(n)];
    std::size_t g = groups.size();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].share == s) { g = i; break; }
    }
    if (g == groups.size()) {
      Group grp;
      grp.share = s;
      const auto wp = sim::StencilWorkload::params_for_reduced(
          s, cfg_.reduced_bytes, cfg_.node.num_pes, cfg_.iterations);
      grp.w = std::make_unique<PlacedWorkload>(sim::StencilWorkload(wp));
      if (N > 1) {
        grp.halo = sim::halo_bytes(s);
        grp.halo_dur = sim::halo_time(cfg_.net, grp.halo);
        grp.halo_msgs =
            std::max<std::uint64_t>(6, cfg_.net.messages(grp.halo));
      }
      groups.push_back(std::move(grp));
    }
    group_of[static_cast<std::size_t>(n)] = g;
  }

  // Object placement: every node's blocks go through the coordinator
  // (sub-domain affinity pins ownership).  The group representative's
  // decisions are stamped onto the shared workload — identical shares
  // against identical budgets place identically.
  for (int n = 0; n < N; ++n) {
    Group& g = groups[group_of[static_cast<std::size_t>(n)]];
    const bool rep = g.members.empty();
    const auto& blocks = g.w->blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto p = coord_->place(object_id(n, i), blocks[i].bytes, n);
      if (p.remote) {
        ++result_.placements_remote;
      } else {
        ++result_.placements_local;
      }
      // Local homes sit on the lowest local level; remote homes keep
      // the strategy default (the unbounded Remote bottom).
      if (rep && remote && !p.remote) g.w->set_home(i, home);
    }
    g.members.push_back(n);
  }

  // Per-node DES: one BlockStore per group.  Group registries live
  // only for the run; the federation keeps value snapshots.
  std::vector<std::unique_ptr<telemetry::MetricsRegistry>> regs;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    Group& g = groups[gi];
    BlockStore::Config bcfg;
    bcfg.node = g.members.front();
    bcfg.sim.model = m;
    bcfg.sim.strategy =
        cfg_.all_remote ? ooc::Strategy::DdrOnly : cfg_.strategy;
    bcfg.sim.tiers = tiers;
    if (cfg_.metrics) {
      regs.push_back(std::make_unique<telemetry::MetricsRegistry>());
      bcfg.sim.metrics = regs.back().get();
      bcfg.sim.history_depth = 0; // the federation snapshots instead
    }
    g.bs = std::make_unique<BlockStore>(std::move(bcfg));
    const sim::SimResult& r = g.bs->run(*g.w);
    g.iter_s = r.iteration_times;
    HMR_CHECK(static_cast<int>(g.iter_s.size()) == cfg_.iterations);
    g.mean_iter_s = r.total_time / static_cast<double>(cfg_.iterations);
    if (cfg_.metrics) {
      const std::string name =
          "node" + std::to_string(g.members.front());
      const auto weight =
          static_cast<std::uint64_t>(g.members.size());
      fed_.add(name, regs.back()->snapshot(), weight);
      if (const auto* at = g.bs->executor().attribution()) {
        attribs_.push_back({name, weight, at->rollup()});
      }
    }
  }

  // Reconcile the coordinator's ledgers against every node engine's
  // ground truth, then audit ledger conservation.
  for (int n = 0; n < N; ++n) {
    const Group& g = groups[group_of[static_cast<std::size_t>(n)]];
    const auto& st = g.bs->result().policy;
    coord_->record_promotions(n, st.remote_fetches, st.remote_fetch_bytes);
    coord_->record_spills(n, st.remote_evicts, st.remote_evict_bytes);
    const auto v = coord_->reconcile(n, g.bs->local_resident_bytes(),
                                     g.bs->remote_resident_bytes());
    result_.audit.insert(result_.audit.end(), v.begin(), v.end());

    NodeStats ns;
    ns.node = n;
    ns.bytes = shares[static_cast<std::size_t>(n)];
    ns.local_iteration_s = g.mean_iter_s;
    ns.remote_messages = g.bs->result().remote_messages;
    ns.policy = st;
    result_.node_stats.push_back(ns);
    result_.remote_messages += ns.remote_messages;
    result_.remote_fetches += st.remote_fetches;
    result_.remote_fetch_bytes += st.remote_fetch_bytes;
    result_.remote_evicts += st.remote_evicts;
    result_.remote_evict_bytes += st.remote_evict_bytes;
  }
  {
    const auto v = coord_->audit();
    result_.audit.insert(result_.audit.end(), v.begin(), v.end());
    for (int n = 0; n < N; ++n) {
      result_.ledgers.push_back(coord_->node(n));
    }
  }

  // Critical-path decomposition for the classic weak-scaling report.
  for (const Group& g : groups) {
    result_.node_iteration_s =
        std::max(result_.node_iteration_s, g.mean_iter_s);
    result_.halo_bytes_per_node =
        std::max(result_.halo_bytes_per_node, g.halo);
  }
  result_.halo_s =
      N > 1 ? sim::halo_time(cfg_.net, result_.halo_bytes_per_node) : 0.0;
  result_.iteration_s = result_.node_iteration_s + result_.halo_s;
  result_.comm_fraction =
      result_.iteration_s > 0 ? result_.halo_s / result_.iteration_s : 0.0;

  if (N == 1) {
    // Degenerate cluster: the node DES *is* the cluster (and must be
    // byte-identical to a standalone single-node simulation).
    result_.total_s = groups.front().bs->result().total_time;
    return result_;
  }

  // Cluster DES: nodes compute, inject halos, and advance in a ring
  // dependence — node n starts iteration i+1 only when its own halo
  // for i is injected and both ring neighbours' halos for i arrived.
  struct NodeState {
    int iter = 0;
    bool compute_done = false;
    bool halo_sent = false;
    std::vector<int> recv; // neighbour halos received, per iteration
    bool finished = false;
  };
  std::vector<NodeState> ns(static_cast<std::size_t>(N));
  for (auto& s : ns) s.recv.assign(static_cast<std::size_t>(cfg_.iterations), 0);

  auto neighbours = [N](int n) {
    std::vector<int> v;
    const int l = (n - 1 + N) % N;
    const int r = (n + 1) % N;
    if (l != n) v.push_back(l);
    if (r != n && r != l) v.push_back(r);
    return v;
  };

  sim::EventQueue eq;
  double now = 0;
  double end = 0;

  std::function<void(int)> start_iter;
  std::function<void(int)> compute_done;
  std::function<void(int)> halo_done;
  std::function<void(int)> try_advance;

  start_iter = [&](int n) {
    NodeState& s = ns[static_cast<std::size_t>(n)];
    const Group& g = groups[group_of[static_cast<std::size_t>(n)]];
    const double L = g.iter_s[static_cast<std::size_t>(s.iter)];
    if (cfg_.trace) {
      tracer_.record(n, trace::Category::Compute, now, now + L,
                     static_cast<std::uint64_t>(s.iter) + 1);
    }
    eq.at(now + L, [&, n] { compute_done(n); });
  };

  compute_done = [&](int n) {
    NodeState& s = ns[static_cast<std::size_t>(n)];
    const Group& g = groups[group_of[static_cast<std::size_t>(n)]];
    s.compute_done = true;
    result_.halo_messages += g.halo_msgs;
    if (cfg_.trace) {
      tracer_.record_migration(n, trace::Category::Prefetch, now,
                               now + g.halo_dur,
                               static_cast<std::uint64_t>(s.iter) + 1, 0, 0,
                               g.halo);
    }
    eq.at(now + g.halo_dur, [&, n] { halo_done(n); });
  };

  halo_done = [&](int n) {
    NodeState& s = ns[static_cast<std::size_t>(n)];
    s.halo_sent = true;
    for (const int nb : neighbours(n)) {
      ++ns[static_cast<std::size_t>(nb)].recv[static_cast<std::size_t>(s.iter)];
      try_advance(nb);
    }
    try_advance(n);
  };

  try_advance = [&](int n) {
    NodeState& s = ns[static_cast<std::size_t>(n)];
    if (s.finished || !s.compute_done || !s.halo_sent) return;
    const int need = static_cast<int>(neighbours(n).size());
    if (s.recv[static_cast<std::size_t>(s.iter)] < need) return;
    ++s.iter;
    s.compute_done = false;
    s.halo_sent = false;
    if (s.iter >= cfg_.iterations) {
      s.finished = true;
      end = std::max(end, now);
      return;
    }
    start_iter(n);
  };

  for (int n = 0; n < N; ++n) {
    eq.at(0.0, [&, n] { start_iter(n); });
  }
  while (!eq.empty()) {
    auto ev = eq.pop();
    now = ev.first;
    ev.second();
  }
  for (const auto& s : ns) {
    HMR_CHECK_MSG(s.finished, "cluster DES wedged: a node never reached "
                              "its final iteration");
  }
  if (cfg_.trace) tracer_.fill_idle(0.0, end);
  result_.total_s = end;
  return result_;
}

const PlacementCoordinator& ClusterSim::coordinator() const {
  HMR_CHECK_MSG(coord_ != nullptr, "coordinator exists after run()");
  return *coord_;
}

std::string ClusterSim::to_json() const {
  HMR_CHECK_MSG(ran_, "to_json after run()");
  std::ostringstream os;
  os << "{\"nodes\":" << result_.nodes << ",\"iteration_s\":"
     << result_.iteration_s << ",\"halo_s\":" << result_.halo_s
     << ",\"comm_fraction\":" << result_.comm_fraction
     << ",\"total_s\":" << result_.total_s
     << ",\"halo_messages\":" << result_.halo_messages
     << ",\"remote_messages\":" << result_.remote_messages
     << ",\"remote_fetch_bytes\":" << result_.remote_fetch_bytes
     << ",\"remote_evict_bytes\":" << result_.remote_evict_bytes
     << ",\"placements_local\":" << result_.placements_local
     << ",\"placements_remote\":" << result_.placements_remote
     << ",\"audit_violations\":" << result_.audit.size()
     << ",\"coordinator\":" << coord_->to_json() << "}";
  return os.str();
}

std::string ClusterSim::metrics_json() const {
  HMR_CHECK_MSG(ran_, "metrics_json after run()");
  HMR_CHECK_MSG(cfg_.metrics,
                "metrics_json needs ClusterConfig::metrics");
  std::ostringstream os;
  fed_.write_json(os);
  return os.str();
}

std::string ClusterSim::attrib_json() const {
  HMR_CHECK_MSG(ran_, "attrib_json after run()");
  HMR_CHECK_MSG(cfg_.metrics,
                "attrib_json needs ClusterConfig::metrics");
  std::ostringstream os;
  std::uint64_t total = 0;
  for (const auto& a : attribs_) total += a.weight;
  os << "{\"total_nodes\":" << total << ",\"nodes\":[";
  for (std::size_t i = 0; i < attribs_.size(); ++i) {
    if (i) os << ",";
    const NodeAttrib& a = attribs_[i];
    os << "{\"node\":\"";
    telemetry::json_escape(os, a.name);
    os << "\",\"weight\":" << a.weight << ",\"attrib\":";
    telemetry::AttributionTable::write_rollup_json(os, a.roll);
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

} // namespace hmr::cluster
