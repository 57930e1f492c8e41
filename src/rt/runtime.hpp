#pragma once
// Runtime: a charm-lite threaded runtime with memory-heterogeneity
// aware scheduling — the real-execution counterpart of hmr::sim.
//
// Shape (paper §III-A / §IV):
//   * work is over-decomposed into chares, block-mapped onto PE worker
//     threads; chares never migrate;
//   * entry methods are delivered as messages through a per-PE
//     converse-style scheduler loop;
//   * entry methods annotated `prefetch` are *intercepted*: instead of
//     executing, the runtime registers an OOCTask with the policy
//     engine, whose commands drive real block migrations between two
//     host-memory tier arenas (MemoryManager) before the method is
//     queued on the PE's run queue.  Migration buffers are always
//     pooled per tier by exact size (the paper's §IV-C pool), and the
//     pool gives its bytes back to the arena on a miss;
//   * IO threads (0, 1 or one per PE, by strategy) perform the
//     asynchronous fetches and evictions; synchronous strategies run
//     them inline on the worker, exactly like the paper's
//     pre/post-processing steps.
//
// Scheduling hot path: every configuration drives one
// ooc::PolicyEngine — the same engine hmr::sim uses — under one mutex
// (engine_mu_).  PE and IO threads amortize that lock by handing the
// engine whole event batches (PolicyEngine::step_batch): a wakeup's
// worth of arrivals, completions or finished migrations per
// acquisition.  A batch holds the lock for a few microseconds (dense
// block table, one command vector per batch, arrivals moved in), so a
// thread that finds it taken spins briefly before sleeping
// (trace::lock_counted) instead of paying a futex wake per visit; the
// spin is charged to the lock-wait counters.  An IO wakeup likewise
// hands every command it drained (up to 16) to one
// MemoryManager::migrate_batch, which takes the block table's and each
// tier's lock once per batch instead of once per block.  Step clocks
// run only when something reads them: with tracing or metrics on, the
// batch is timed (three clock reads per migration) and each
// migration's trace interval and latency sample is its own step time
// plus an equal share of the batch's lock sections, so its intervals
// tile the batch on the IO lane; otherwise the batch reads no clock
// and the IO thread reads one per batch, the flight recorder's stamp.
// The commands an engine visit returns are dispatched one section per
// destination: each PE's Run commands take its pending shard and run
// queue once and wake it once, each IO thread's transfers take its
// queue once and wake it once, in command order per destination.  A
// visit's events, commands, migrate ops and results live in buffers
// the PE/IO loop owns and reuses (VisitStack), one set per level of
// re-entry, since inline transfers run a nested visit from inside
// dispatch.  The watchdog's fetch counters are written only when the
// watchdog is on.  With tenancy on, the events go one at a time
// through a serve::TenantEngine wrapped around the same engine, still
// under engine_mu_.
//
// Configuration (Config) is the paper's choices — strategy, eager or
// lazy eviction, PE count — plus the node model and opt-in telemetry.
// The placement hierarchy always comes from the model, and the
// always-on recorders have fixed depths (8 flight-recorder transitions
// per block, 240 history samples, 1024 decisions), so every field
// below has a caller that sets it.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adapt/block_profiler.hpp"
#include "adapt/placement_advisor.hpp"
#include "adapt/strategy_governor.hpp"
#include "hw/machine_model.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "serve/tenant_engine.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/decision_log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/serve.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/contention.hpp"
#include "trace/tracer.hpp"

namespace hmr::rt {

class Runtime {
public:
  struct Config {
    /// Node model: tier shapes and roles (capacities get scaled).
    hw::MachineModel model = hw::knl_flat_all_to_all();
    /// Scale factor applied to tier capacities (1/1024 turns the
    /// 16 GB/96 GB KNL into a 16 MiB/96 MiB testbed).
    double mem_scale = 1.0 / 1024;
    ooc::Strategy strategy = ooc::Strategy::MultiIo;
    int num_pes = 4;
    bool eager_evict = true;
    bool evict_by_worker = false;
    bool writeonly_nocopy = false;
    /// Record per-PE execution intervals.
    bool trace = false;
    /// Tracer knobs (per-lane ring capacity).
    trace::Tracer::Options trace_opts;
    /// Maintain a MetricsRegistry: latency/wait/queue-depth histograms
    /// updated inline, engine/lock/chunk counters mirrored at each
    /// wait_idle() (and on demand via sample_metrics()).  Read it
    /// through metrics().
    bool metrics = false;
    /// Pin threads to cores (Linux): PE i on core i, its IO thread on
    /// the SMT sibling when one exists — the paper's placement ("the
    /// IO threads are scheduled on the hyperthread cores corresponding
    /// to the worker threads, so as to not increase the usage of the
    /// number of physical cores").  No-op when cores are scarce.
    bool pin_threads = false;
    /// Online adaptive guidance (src/adapt/): same components as
    /// hmr::sim, driven here under the engine lock.  Phase boundaries
    /// are wait_idle() calls (one governor step per call).  Requires a
    /// movement strategy; `strategy` / `eager_evict` above are the
    /// starting point.  Wait fraction is read from the tracer when
    /// tracing is on (0 otherwise — the thresholds that depend on it
    /// simply never fire).
    bool adaptive = false;
    adapt::ProfilerConfig profiler_cfg;

    /// Chunked cooperative migration: block copies of at least
    /// `chunk_threshold` bytes stream through the MemoryManager's
    /// ChunkRing in ChunkRing::kDefaultChunkBytes pieces so idle IO
    /// threads can assist on one large transfer.  0 disables chunking.
    std::uint64_t chunk_threshold = 1ull << 20;
    /// Zero-copy admission (docs/PERF.md §4): copying migrations
    /// retain their source buffer as a byte-identical shadow, and a
    /// later migration whose destination still holds a valid shadow is
    /// admitted as a pointer swap — no alloc, no memcpy, no free.  The
    /// runtime invalidates a block's shadow after every task that
    /// declared it ReadWrite/WriteOnly; code writing through
    /// block_ptr() outside a declared dependency must call
    /// memory().mark_dirty() itself.  Policy-inert: engine decisions
    /// and migration stats are identical with this on or off.
    bool zero_copy = false;
    /// Collect engine-lock contention counters (bench/rt_contention
    /// reads them via lock_stats()).
    bool lock_stats = false;

    // ---- live introspection & self-diagnosis (src/telemetry/) ----

    /// Status server port: -1 = off (default), 0 = any free loopback
    /// port (read it back with serve_port()), >0 = that port.  The
    /// server binds 127.0.0.1 only and serves /healthz, /metrics,
    /// /status, /tenants, /attrib, /blocks?id=N, /history, /decisions
    /// and the /cluster routes.  Enabling it forces `metrics` on so
    /// /metrics and /history have something to say.
    int serve_port = -1;
    /// /cluster route payload provider.  Kept as a plain callable so
    /// rt does not link the cluster library: wire in
    /// cluster::ClusterSim::to_json (or any JSON producer) after the
    /// sim has run.  Unset, the route answers 404.
    std::function<std::string()> cluster_json;
    /// Same pattern for the federated cluster views: /cluster/metrics
    /// (per-node + aggregate registry snapshots) and /cluster/attrib
    /// (per-node stall attribution).  Wire in ClusterSim's
    /// metrics_json / attrib_json after a run; unset = 404.
    std::function<std::string()> cluster_metrics_json;
    std::function<std::string()> cluster_attrib_json;
    /// Stall watchdog: a monitor thread that trips when outstanding
    /// work stops retiring (see telemetry::Watchdog).  Off by default
    /// so tests and benches stay byte-identical in output.
    bool watchdog = false;
    telemetry::Watchdog::Config watchdog_cfg;
    /// Engine invariant audits at every wait_idle(): -1 = auto (on in
    /// debug / sanitizer builds, HMR_AUDIT env overrides), 0 = off,
    /// 1 = on.  A failed audit aborts (telemetry::check_audit).
    int audit = -1;

    /// Multi-tenant serving (src/serve/): registering tenants wraps
    /// the policy engine in a serve::TenantEngine — QoS-aware
    /// admission, per-tenant placement quotas, priority dispatch on
    /// the IO queues, a /tenants status route and tenant-labeled
    /// metrics.  Tag work via send_prefetch's tenant argument.
    /// Incompatible with `adaptive` (both claim the engine's advisor
    /// slot).  With no tenants registered the runtime is
    /// byte-identical to the pre-tenancy build.
    serve::ServeConfig serve;
  };

  explicit Runtime(Config cfg);
  ~Runtime(); // drains and joins all threads

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const { return cfg_; }
  int num_pes() const { return cfg_.num_pes; }
  int num_io_threads() const { return static_cast<int>(io_.size()); }

  mem::MemoryManager& memory() { return *mm_; }
  trace::Tracer& tracer() { return tracer_; }

  /// Metrics registry (nullptr unless Config::metrics).  Histograms
  /// are live; mirrored counters are refreshed by sample_metrics().
  telemetry::MetricsRegistry* metrics() { return metrics_.get(); }
  /// Refresh every bridged counter/gauge (engine stats, lock
  /// contention, chunk ring, tier occupancy, trace drops)
  /// into the registry.  Called from wait_idle(); also usable as a
  /// SnapshotSampler pre-sample callback.  No-op when metrics are off.
  void sample_metrics();

  /// Block flight recorder: the last 8 residency transitions per block
  /// (HMR_FLIGHT_DEPTH overrides the depth; nullptr when it is 0).
  const telemetry::BlockFlightRecorder* flight_recorder() const {
    return flight_.get();
  }

  /// Metrics history ring of the last 240 registry snapshots (nullptr
  /// unless Config::metrics).  One sample per wait_idle() quiescence
  /// tick, served via /history and tools/hmr_top.
  const telemetry::HistoryBuffer* history() const { return history_.get(); }
  /// Decision provenance log of the last 1024 advisor / governor
  /// decisions with their triggering inputs (nullptr unless
  /// Config::adaptive), served via /decisions and hmr_trace
  /// --decisions.  Snapshot reads are safe from any thread.
  const telemetry::DecisionLog* decisions() const {
    return decisions_.get();
  }

  /// Per-task stall attribution (nullptr unless Config::metrics):
  /// fetch-wait / queue-wait / compute per retired prefetch task,
  /// rolled up per tenant and served via /attrib.  Sharded per PE;
  /// read rollup() at quiescence for exact totals.
  const telemetry::AttributionTable* attribution() const {
    return attrib_.get();
  }

  // ---- data blocks ----

  /// Allocate a migratable data block of `bytes`.  Placement follows
  /// the strategy (movement strategies: the bottom hierarchy level;
  /// Naive: fastest level with room).  Dies if the placement tier
  /// cannot hold it.
  mem::BlockId alloc_block(std::uint64_t bytes);

  /// Current storage of a block (moves as the runtime migrates it).
  void* block_ptr(mem::BlockId b) { return mm_->block_ptr(b); }

  /// Release a block.  It must be idle: no outstanding task depends on
  /// it and no migration is in flight (call at quiescence).
  void free_block(mem::BlockId b);

  // ---- messaging ----

  using Body = std::function<void()>;
  using DepList = std::vector<ooc::Dep>;

  /// Deliver a plain (non-prefetch) entry method invocation to `pe`.
  void send(int pe, Body body);

  /// Deliver a [prefetch]-annotated entry method invocation: the
  /// converse scheduler on `pe` will intercept it, ensure `deps` are
  /// resident in the fast tier under the configured strategy, and only
  /// then execute `body`.
  /// `tenant` keys tenancy admission/quotas/stats when Config::serve
  /// registered tenants, and must name one of them; without tenants it
  /// must be 0.  Either way a bad id dies here, at send time.
  void send_prefetch(int pe, DepList deps, Body body,
                     double work_factor = 1.0, std::uint32_t tenant = 0);

  /// Batched enqueue: one idle-counter update, one queue lock and one
  /// wakeup for the whole vector (senders that fan out thousands of
  /// fine-grained messages otherwise pay that per message).
  void send_batch(int pe, std::vector<Body> bodies);

  struct PrefetchMsg {
    DepList deps;
    Body body;
    double work_factor = 1.0;
    std::uint32_t tenant = 0; // as send_prefetch's `tenant`
  };
  void send_prefetch_batch(int pe, std::vector<PrefetchMsg> msgs);

  /// Block until every delivered message has executed and all
  /// fetch/evict traffic has drained (quiescence detection).
  void wait_idle();

  /// Seconds since runtime start (the tracer's clock).
  double now() const;

  // ---- introspection ----

  ooc::PolicyEngine::Stats policy_stats();
  std::uint64_t tasks_executed() const;

  /// TierBudget work-stealing rebalances.  Always 0: the runtime's
  /// single policy engine keeps its budget under engine_mu_ and owns
  /// no TierBudget.  Kept so ledger readers need no special case.
  std::uint64_t budget_steals() const { return 0; }
  /// Engine-lock contention counters; nullptr unless
  /// Config::lock_stats.  One slot: the engine mutex.
  const trace::ContentionStats* lock_stats() const {
    return lock_stats_.get();
  }

  /// Adaptive runs: the guidance components (nullptr otherwise).
  /// Read only at quiescence — the PE/IO threads feed them.
  const adapt::BlockProfiler* profiler() const { return profiler_.get(); }
  const adapt::StrategyGovernor* governor() const { return governor_.get(); }

  /// Multi-tenant serving decorator (nullptr unless Config::serve
  /// registered tenants).  Snapshot/JSON reads are safe from any
  /// thread.
  const serve::TenantEngine* tenancy() const { return tenancy_.get(); }

  // ---- live introspection & self-diagnosis ----

  /// Bound status-server port (0 when Config::serve_port was -1 or the
  /// bind failed; the failure is a one-line stderr warning, not fatal).
  std::uint16_t serve_port() const {
    return server_ ? server_->port() : 0;
  }
  /// Stall watchdog (nullptr unless Config::watchdog).
  const telemetry::Watchdog* watchdog() const { return watchdog_.get(); }

  /// Run the engine invariant audit now (under the engine lock; exact
  /// at any time, with the quiescence-only checks gated on
  /// AuditReport::at_quiescence).
  telemetry::AuditReport audit_now();
  /// wait_idle() audits completed so far (0 when audits are disabled).
  std::uint64_t audit_runs() const;

  /// The /status document: one JSON object with queue depths,
  /// heartbeat ages, tier occupancy, governor and watchdog state and
  /// the last audit report.  Safe from any thread.
  std::string status_json();
  /// Full diagnostic bundle: status + metrics snapshot + flight
  /// recorder + trace summary.  Written on watchdog trips.
  void write_diagnostics(std::ostream& os);

private:
  struct Msg {
    Body body;
    DepList deps;
    double work_factor = 1.0;
    bool prefetch = false;
    std::uint32_t tenant = 0;
  };

  struct ReadyTask {
    ooc::TaskId id;
    Body body;
    double t_arrive = 0; // interception time (metrics runs only)
    double t_ready = 0;  // Run-command time: deps resident, queued
    std::uint32_t tenant = 0;
    // Blocks this task declared writable (zero-copy runs only): their
    // shadows are invalidated right after the body executes.
    std::vector<mem::BlockId> writes;
  };

  struct PeWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Msg> msgs;          // converse message queue
    std::deque<ReadyTask> run_q;   // tasks with resident data
    std::thread thread;
  };

  struct IoWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ooc::Command> cmds;
    std::thread thread;
  };

  /// Pending (intercepted, not yet runnable) task bodies, sharded per
  /// PE: a task is inserted by its home PE and removed when its Run
  /// command (always targeted at the same PE) arrives, so two PEs
  /// never contend on one map.
  struct alignas(64) PendingShard {
    std::mutex mu;
    std::unordered_map<ooc::TaskId, ReadyTask> map;
  };

  struct alignas(64) PadCounter {
    std::atomic<std::uint64_t> v{0};
  };

  /// The buffers of one engine visit and the dispatch after it:
  /// events, the commands they yield, a transfer batch's ops and
  /// results, and process()'s grouping state.  Kept and reused, so a
  /// visit allocates only while its buffers are still growing.
  struct Visit {
    std::vector<ooc::PolicyEngine::Event> evs;
    std::vector<ooc::Command> cmds;
    std::vector<mem::MigrateOp> ops;
    std::vector<mem::MigrateResult> res;
    std::vector<std::uint8_t> sent; // process(): command dispatched
    std::vector<ReadyTask> ready;   // dispatch_runs(): one PE's tasks
  };

  /// One thread's Visits, one per level of re-entry: an inline
  /// transfer (SyncNoIo, evict_by_worker) runs a whole nested visit
  /// from inside process() while the outer level is still walking its
  /// commands, so each level needs buffers of its own.  Owned by the
  /// PE/IO loop (or a governor phase end) and never shared.
  class VisitStack {
  public:
    Visit& push();
    void pop() { --depth_; }

  private:
    std::deque<Visit> levels_; // push() never moves a live level
    std::size_t depth_ = 0;
  };

  /// The next level of a VisitStack for one scope.
  class VisitScope {
  public:
    explicit VisitScope(VisitStack& s) : s_(s), v_(s.push()) {}
    ~VisitScope() { s_.pop(); }
    VisitScope(const VisitScope&) = delete;
    VisitScope& operator=(const VisitScope&) = delete;
    Visit& operator*() { return v_; }
    Visit* operator->() { return &v_; }

  private:
    VisitStack& s_;
    Visit& v_;
  };

  /// Dies unless `tenant` is one send_prefetch accepts.
  void check_tenant(std::uint32_t tenant) const;
  void pe_loop(int pe);
  void io_loop(int io);
  void run_ready_batch(int pe, std::vector<ReadyTask>& tasks,
                       VisitStack& visits);
  void intercept_batch(int pe, std::vector<Msg>& msgs, VisitStack& visits);
  /// Execute a wakeup's migrations as one MemoryManager batch, record
  /// each one's trace interval, then report them in one engine visit.
  void perform_transfer_batch(std::span<const ooc::Command> cmds,
                              int trace_lane, VisitStack& visits);
  /// Dispatch `v.cmds`: one section per destination PE or IO thread
  /// (dispatch_runs / dispatch_transfers), then the inline transfers
  /// on this thread, each one VisitStack level down.
  void process(Visit& v, int context_lane, VisitStack& visits);
  /// The Run commands of `v.cmds[first]`'s PE from `first` on: one
  /// pending-shard section, one run-queue section, one wakeup.
  void dispatch_runs(Visit& v, std::size_t first);
  /// The queued transfers of `v.cmds[first]`'s IO thread from `first`
  /// on: one queue section (priority_dispatch ranks each command
  /// inside it), one wakeup.
  void dispatch_transfers(Visit& v, std::size_t first);
  /// One engine visit under engine_mu_: a step_batch, or one
  /// TenantEngine call per event with tenancy on; `out` is cleared,
  /// then receives the commands.  `pe` is the PE any TaskComplete
  /// events ran on.
  void engine_step(std::vector<ooc::PolicyEngine::Event>& evs, int pe,
                   std::vector<ooc::Command>& out);
  /// The engine block/quiescence/audit calls go to: the tenancy
  /// decorator when on, else the policy engine.  Call under engine_mu_.
  ooc::Engine& active_engine() {
    return tenancy_ ? static_cast<ooc::Engine&>(*tenancy_) : engine_;
  }
  /// `outstanding_msgs_` -= n, waking idle waiters on the final one.
  void msgs_add(std::uint64_t n);
  void note_done(std::uint64_t n);
  void ops_add(std::uint64_t n);
  void ops_sub(std::uint64_t n);
  bool engine_quiescent();
  /// Wake every IO thread so idle ones can assist a chunked copy.
  void poke_io_for_assist();
  /// Called with engine_mu_ held after an engine event: feed the
  /// profiler the fetches just issued and sample governor signals.
  void observe_locked(const std::vector<ooc::Command>& cmds);
  /// One governor step; called from wait_idle at quiescence.
  void governor_phase_end();
  /// Steady-clock ns since t0_ (heartbeat / fetch-age timebase).
  std::uint64_t now_ns() const;
  /// Fetch-latency p99 in seconds from the metrics histogram (<= 0 =
  /// unknown: metrics off or no fetches observed yet).
  double fetch_p99_seconds() const;
  /// Start status server / watchdog (constructor tail, after the
  /// worker threads exist) and stop them (destructor head, while the
  /// workers are still alive to answer hooks).
  void start_introspection();
  void stop_introspection();
  /// wait_idle() audit step: run, record for /status, fail-stop.
  void run_wait_idle_audit();

  Config cfg_;
  std::unique_ptr<mem::MemoryManager> mm_;

  /// The policy engine; all access under engine_mu_.
  std::mutex engine_mu_;
  ooc::PolicyEngine engine_;
  std::unique_ptr<trace::ContentionStats> lock_stats_;

  /// Tenancy decorator over engine_ (null = single-tenant: events go
  /// straight to the engine, exactly as before).  Calls still hold
  /// engine_mu_ (lock order engine_mu_ -> TenantEngine's mutex; the
  /// decorator never locks back).
  std::unique_ptr<serve::TenantEngine> tenancy_;

  /// Serializes block id allocation across the engine and the
  /// MemoryManager so their dense id spaces stay aligned.
  std::mutex alloc_mu_;
  std::uint64_t blocks_created_ = 0; // guarded by alloc_mu_

  // Adaptive guidance; all state guarded by engine_mu_ (the advisor is
  // only read by the engine, which is itself driven under that lock).
  std::unique_ptr<adapt::BlockProfiler> profiler_;
  std::unique_ptr<adapt::PlacementAdvisor> advisor_;
  std::unique_ptr<adapt::StrategyGovernor> governor_;
  ooc::PolicyEngine::Stats phase_base_;
  std::size_t peak_inflight_ = 0;
  bool phase_contended_ = false;
  double phase_start_ = 0;

  std::vector<std::unique_ptr<PeWorker>> pes_;
  std::vector<std::unique_ptr<IoWorker>> io_;

  std::vector<PendingShard> pending_;
  std::atomic<ooc::TaskId> next_task_{1};

  // Quiescence detection: contention-free atomic counters; the
  // condvar is only touched on a counter's final decrement.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  alignas(64) std::atomic<std::uint64_t> outstanding_msgs_{0};
  alignas(64) std::atomic<std::uint64_t> outstanding_ops_{0};

  std::vector<PadCounter> tasks_done_; // per PE, padded
  std::atomic<bool> stop_{false};

  trace::Tracer tracer_;
  std::chrono::steady_clock::time_point t0_;

  // Telemetry (src/telemetry/): registry + cached instrument handles
  // (so hot paths skip the name lookup), and the block flight
  // recorder.  All thread-safe by construction.
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  struct MetricHandles {
    telemetry::Histogram* fetch_ns = nullptr;
    telemetry::Histogram* evict_ns = nullptr;
    telemetry::Histogram* task_wait_ns = nullptr;
    telemetry::Histogram* run_q_depth = nullptr;
  } mh_;
  std::unique_ptr<telemetry::BlockFlightRecorder> flight_;
  std::unique_ptr<telemetry::HistoryBuffer> history_;
  std::unique_ptr<telemetry::DecisionLog> decisions_;
  std::unique_ptr<telemetry::AttributionTable> attrib_;

  // Live introspection: per-thread heartbeats (stamped each loop
  // wakeup; parked threads do not beat, the watchdog only reads them
  // under load), a monotonic retirement counter as the watchdog's
  // progress signal, fetch-age tracking (dispatch/complete counts +
  // last-activity stamp), and the server / watchdog / audit state.
  std::vector<telemetry::Heartbeat> pe_beats_;
  std::vector<telemetry::Heartbeat> io_beats_;
  alignas(64) std::atomic<std::uint64_t> retired_{0};
  alignas(64) std::atomic<std::uint64_t> fetch_dispatched_{0};
  alignas(64) std::atomic<std::uint64_t> fetch_completed_{0};
  std::atomic<std::uint64_t> fetch_last_ns_{0};
  std::unique_ptr<telemetry::Watchdog> watchdog_;
  std::unique_ptr<telemetry::StatusServer> server_;
  mutable std::mutex audit_mu_; // guards the two fields below
  telemetry::AuditReport last_audit_;
  std::uint64_t audit_runs_ = 0;
};

} // namespace hmr::rt
