#pragma once
// TenantEngine: the multi-tenant serving decorator over the policy
// engine (docs/SERVING.md).
//
// Implemented once against the ooc::Engine interface, so the sim
// executor and the threaded runtime both inherit tenancy from the
// same ~600 lines wrapped around their ooc::PolicyEngine:
//
//   submission ──> admission verdict (token bucket, queue depth,
//                  quota gate, QoS priority + starvation aging)
//        admitted ──> inner engine ──> commands observed:
//            Fetch:  QuotaLedger transfer to requester, latency stamp
//            Evict:  QuotaLedger move between the owner's levels
//        deferred ──> parked here, released on engine events in
//                     (QoS rank, round-robin) order
//
// Locking: one mutex serializes every entry point *including* the
// wrapped inner calls — exactly the serialization a PolicyEngine
// caller already owes it.  With tenancy disabled the runtime does not
// construct a TenantEngine at all, so single-tenant paths are
// untouched (and stats stay byte-identical).
//
// Time is injected (set_clock): the sim feeds virtual seconds so
// token buckets and latency percentiles are deterministic; the
// runtime feeds a steady_clock (the default).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ooc/engine.hpp"
#include "ooc/types.hpp"
#include "serve/admission.hpp"
#include "serve/quota.hpp"
#include "serve/tenant.hpp"

namespace hmr::telemetry {
class MetricsRegistry;
}

namespace hmr::serve {

struct ServeConfig {
  std::vector<TenantDesc> tenants;
  AdmissionConfig admission;
  /// Rolling window (seconds; virtual under the DES) for the SLO
  /// burn-rate gauge: attained fetch p99 over this window divided by
  /// the tenant's slo_p99_fetch_s target.  Burn > 1 means the tenant
  /// is *currently* missing its SLO — unlike the lifetime percentiles,
  /// a recovered tenant's burn falls back under 1.  0 disables.
  double burn_window_s = 30.0;
  bool enabled() const { return !tenants.empty(); }
};

class TenantEngine : public ooc::Engine {
public:
  /// Wrap `inner` (not owned; must outlive this).  `now` seeds the
  /// token buckets; pass the injected clock's current value.
  TenantEngine(ooc::Engine& inner, ServeConfig cfg, double now = 0);
  ~TenantEngine() override;

  /// Replace the time source (seconds, monotonic).  Call before the
  /// first event; the sim passes its virtual clock.
  void set_clock(std::function<double()> clock);

  const TenantRegistry& registry() const { return reg_; }
  const AdmissionConfig& admission_config() const {
    return adm_.config();
  }

  /// Should executors order their IO queues by dispatch_rank?  Off by
  /// config, and off below two tenants: with one tenant the only
  /// possible reordering is evict-before-fetch, which would make the
  /// single-tenant configuration diverge from the pre-tenancy FIFO
  /// (that configuration must stay byte-identical).
  bool priority_dispatch() const {
    return adm_.config().priority_dispatch && reg_.size() > 1;
  }

  /// Quota-aware demotion advice (demote_first + kLevelFar for blocks
  /// whose owner borrows beyond its reservation), or nullptr when
  /// fewer than two tenants are registered — with one tenant the
  /// advisor could only change victim order for no benefit, and
  /// installing it would flip the serial engine onto its LRU
  /// bookkeeping path (single-tenant runs must stay byte-identical).
  ooc::AdviceProvider* advisor();

  // ---- verdict-aware submission (sim executor) ----

  /// Run one submission through admission.  Admit: forwards to the
  /// inner engine, appending its commands.  Defer: parked here until
  /// an engine event releases it.  Reject: dropped — the caller owns
  /// telling the submitter.  task.tenant must be registered.
  Verdict submit(const ooc::TaskDesc& task,
                 std::vector<ooc::Command>& cmds);

  // ---- ooc::Engine (fire-and-forget paths; thread-safe) ----

  ooc::TierId add_block(ooc::BlockId b, std::uint64_t bytes) override;
  void remove_block(ooc::BlockId b) override;
  /// submit() with Reject degraded to Defer (this path cannot drop
  /// work); the rejection is still counted.
  std::vector<ooc::Command> on_task_arrived(
      const ooc::TaskDesc& task) override;
  std::vector<ooc::Command> on_fetch_complete(ooc::BlockId b) override;
  std::vector<ooc::Command> on_evict_complete(ooc::BlockId b) override;
  std::vector<ooc::Command> on_task_complete(ooc::TaskId t,
                                             std::int32_t pe) override;

  ooc::EngineStats engine_stats() const override;
  /// Inner quiescence AND no deferred work parked here.
  bool quiescent() const override;
  std::size_t total_waiting() const override;
  const std::vector<ooc::TierDesc>& tiers() const override;
  std::uint64_t tier_used(std::int32_t level) const override;
  ooc::BlockState block_state(ooc::BlockId b) const override;
  std::int32_t block_level(ooc::BlockId b) const override;
  std::uint32_t refcount(ooc::BlockId b) const override;
  /// Inner audit + ledger conservation + tenancy bookkeeping.
  std::vector<std::string> audit_invariants(
      bool at_quiescence) const override;

  // ---- priority dispatch (executors) ----

  /// Dispatch rank of a queued IO command: lower runs first.  Evicts
  /// outrank every fetch (they free capacity someone is waiting on);
  /// fetches rank by their tenant's QoS class.
  int dispatch_rank(const ooc::Command& c) const;
  /// Executor inserted a `winner`-tenant fetch ahead of a queued
  /// `loser`-tenant fetch (both from dispatch_rank's tenant lookup).
  void note_displacement(TenantId winner, TenantId loser);
  /// Tenant a queued Fetch command belongs to (kUnowned for Evict or
  /// unknown): the executor's key for dispatch ordering and lanes.
  TenantId command_tenant(const ooc::Command& c) const;

  // ---- observability ----

  std::vector<TenantSnapshot> snapshots() const;
  /// {"tenants":[...]} — the StatusServer /tenants route body.
  void write_json(std::ostream& os) const;
  /// Per-tenant counters/gauges, labeled tenant="name".
  void export_metrics(telemetry::MetricsRegistry& reg) const;

private:
  struct TenantState {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t rejected = 0;
    std::uint64_t forced = 0;
    std::uint64_t completed = 0;
    std::uint64_t fetches = 0;
    std::uint64_t fetch_bytes = 0;
    std::uint64_t evicts = 0;
    std::uint64_t evict_bytes = 0;
    std::uint64_t displaced = 0;
    std::uint64_t displaced_by = 0;
    std::uint64_t borrows = 0;
    std::uint64_t fetch_samples = 0;
    /// Exact samples up to a cap (kMaxSamples); beyond it only the
    /// count grows and percentiles describe the prefix.
    std::vector<double> samples;
    /// (completion time, latency) pairs inside the burn window —
    /// trimmed on every completion, so the deque stays bounded by the
    /// window's arrival rate.
    std::deque<std::pair<double, double>> window_samples;
    double fetch_max_s = 0;
    double first_completion_s = 0;
    double last_completion_s = 0;
  };

  struct BlockInfo {
    std::uint64_t bytes = 0;
    TenantId owner = QuotaLedger::kUnowned;
  };

  struct FetchInFlight {
    double issued_s = 0;
    TenantId tenant = 0;
  };

  class Advisor;

  static constexpr std::size_t kMaxSamples = 1u << 16;

  std::int32_t level_of(ooc::TierId tid) const;
  Verdict submit_locked(const ooc::TaskDesc& task, bool degrade_reject,
                        std::vector<ooc::Command>& cmds);
  void admit_locked(const ooc::TaskDesc& task,
                    std::vector<ooc::Command>& cmds);
  /// Release deferred work the latest event may have unblocked.
  void pump_locked(std::vector<ooc::Command>& cmds);
  /// Account the quota/stat effects of inner-engine commands.
  void observe_locked(const std::vector<ooc::Command>& cmds);
  double now_locked() const { return clock_(); }

  ooc::Engine& inner_;
  TenantRegistry reg_;
  double burn_window_s_ = 30.0;
  mutable std::mutex mu_;
  std::function<double()> clock_;
  QuotaLedger ledger_;
  AdmissionController adm_;
  std::unique_ptr<Advisor> advisor_;
  std::vector<TenantState> tenants_;
  std::unordered_map<ooc::TaskId, TenantId> task_tenant_;
  std::unordered_map<ooc::BlockId, BlockInfo> blocks_;
  std::unordered_map<ooc::BlockId, FetchInFlight> fetch_inflight_;
  /// TierDesc::id -> hierarchy level, resolved from inner_.tiers().
  std::unordered_map<ooc::TierId, std::int32_t> tier_level_;
  std::size_t inner_live_ = 0;
};

} // namespace hmr::serve
