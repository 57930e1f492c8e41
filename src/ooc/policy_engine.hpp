#pragma once
// PolicyEngine: the paper's prefetch/evict scheduling protocol as a
// deterministic, executor-agnostic state machine.
//
// The same engine is driven by two executors:
//   * hmr::rt  — real threads, real memcpy between tier arenas;
//   * hmr::sim — a discrete-event simulator with virtual time.
// The engine owns all policy state (wait queues, block residency, ref
// counts, per-tier budgets) and returns Commands; it never blocks and
// never measures time, which is what makes it testable in isolation
// and reusable across executors.
//
// Placement is an N-level hierarchy (Config::tiers, fastest first).
// The engine reasons in *levels* (vector positions); executors see
// tier ids on the commands.  Fetches promote a block from its resident
// level to level 0; evictions demote along a cascade: the victim lands
// on the first lower level with room (per-level capacity), overflowing
// to the unbounded bottom level.  Intermediate levels are trimmed back
// to their watermark (coldest resident first) whenever a demotion is
// scheduled into them.  With two levels the cascade degenerates to the
// classic fast/slow protocol below and the command stream is
// bit-identical to the pre-tier engine (tests/test_tier_equivalence
// pins this down).
//
// Protocol (paper §IV-B, Algorithm 1):
//  * every PE has a FIFO wait queue for tasks whose data is not yet in
//    HBM, and a run queue of ready tasks;
//  * a task *claims* (refcount++) all its dependence blocks when it is
//    admitted; a block is evictable only at refcount 0;
//  * admission is all-or-nothing: a task is admitted only when the HBM
//    budget can hold *all* of its non-resident dependences.  (The
//    paper's Algorithm 1 fetches block-by-block; all-or-nothing is the
//    deadlock-free refinement — partial claims by two tasks could
//    otherwise wedge the node.  DESIGN.md §5 records this choice.)
//  * on completion a task releases its claims; blocks that drop to
//    refcount 0 are evicted back to DDR4 (eager mode, the paper's
//    behaviour) or parked in an LRU from which space is reclaimed on
//    demand (lazy mode, our ablation extension);
//  * HBM budget accounting covers blocks InFast, FetchInFlight and
//    EvictInFlight — capacity is released only when an eviction has
//    finished, mirroring when numa_free actually returns the bytes.
//
// Event cost: the rt executor calls step_batch under its one engine
// mutex, so every nanosecond spent here is held lock time.  Block
// records live in a dense table indexed by BlockId (both executors
// number blocks 0, 1, 2, ...; a `live` flag marks registered ids), the
// four event handlers append to one caller-owned command vector (a
// batch allocates one vector, not one per event), and an arrival's
// TaskDesc is moved into its task record.  Task records stay in a
// hash map — rt task ids grow without bound over a run — whose nodes
// are recycled from completed tasks; a queued head's admission bytes
// are computed once per visit, and records are passed by reference
// rather than looked up again by id.
//
// Thread safety: none.  Callers serialize (the rt executor wraps every
// call in one mutex; the DES is single-threaded).

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "ooc/engine.hpp"
#include "ooc/types.hpp"

namespace hmr::ooc {

class PolicyEngine : public Engine {
public:
  struct Config {
    Strategy strategy = Strategy::MultiIo;
    std::int32_t num_pes = 1;
    /// Budget for blocks resident in (or in flight to) the fast tier.
    std::uint64_t fast_capacity = 0;
    /// Evict refcount-0 blocks immediately on task completion (paper
    /// behaviour).  false = lazy: keep them warm in an LRU and evict
    /// on demand when admission needs space (ablation extension).
    bool eager_evict = true;
    /// Worker evicts its own blocks synchronously in post-processing
    /// (paper text for SyncNoIo).  When false, evictions are queued on
    /// the responsible IO agent.  Ignored for SyncNoIo (always true).
    bool evict_by_worker = false;
    /// Write-only dependences get a fast-tier buffer without copying
    /// the stale contents (extension; the paper always copies).
    bool writeonly_nocopy = false;
    /// Fair admission: a PE's outstanding admission claims may not
    /// exceed fast_capacity / num_pes (unless it has none at all, so
    /// progress is always possible).  Models the physical reality that
    /// each IO thread allocates HBM one memcpy at a time, which
    /// rate-limits how much budget any one PE can grab; without it a
    /// greedy per-PE drain lets low-numbered PEs fill MCDRAM with
    /// far-future blocks and starve the rest.  SingleIo's round-robin
    /// is already fair and ignores this.
    bool fair_admission = true;
    /// Optional per-block guidance (adaptive subsystem).  Not owned;
    /// must outlive the engine.  When set, the LRU machinery is active
    /// even in eager mode (pinned blocks park there), advice can skip
    /// fetches entirely, and reclaim prefers demote-advised victims.
    const AdviceProvider* advisor = nullptr;
    /// Lazy/pinned LRU cap as a fraction of fast_capacity: parking a
    /// block that pushes parked bytes beyond the watermark evicts the
    /// coldest unpinned parked blocks until back under.  1.0 = no cap.
    double lru_watermark = 1.0;
    /// Placement hierarchy, fastest level first.  Empty = the classic
    /// two-level hierarchy {fast_capacity/lru_watermark, unbounded
    /// slow} with tier ids 1 (fast) and 0 (slow).  When set, it must
    /// have >= 2 levels; the last level is always unbounded (its
    /// capacity field is ignored, use 0 by convention) and
    /// fast_capacity / lru_watermark are taken from the first level.
    std::vector<TierDesc> tiers;
    /// Demotion cascade: evicted blocks land on the first lower level
    /// with room instead of going straight to the bottom.  false =
    /// always demote to the bottom level (the ablation baseline).
    /// No effect on two-level hierarchies.
    bool demote_cascade = true;
  };

  /// Historical name for the shared counter struct (ooc/types.hpp).
  using Stats = EngineStats;

  /// Growth bound of the dense block table: registering an id more
  /// than this far past the table's end is a caller bug (a stray or
  /// uninitialized id), not a reason to allocate gigabytes.
  static constexpr BlockId kMaxBlockIdGap = BlockId{1} << 20;

  /// One engine event, reified so executors can hand the engine a
  /// whole batch under a single lock acquisition (the threaded
  /// runtime's IO/PE loops drain queues in batches; the DES keeps
  /// calling the per-event entry points).
  struct Event {
    enum class Kind : std::uint8_t {
      TaskArrived,
      FetchComplete,
      EvictComplete,
      TaskComplete,
    };
    Kind kind = Kind::TaskArrived;
    TaskDesc task;                      // TaskArrived
    BlockId block = mem::kInvalidBlock; // Fetch/EvictComplete
    TaskId task_id = kInvalidTask;      // TaskComplete

    static Event arrived(TaskDesc t);
    static Event fetched(BlockId b);
    static Event evicted(BlockId b);
    static Event completed(TaskId t);
  };

  explicit PolicyEngine(Config cfg);

  const Config& config() const { return cfg_; }

  // ---- block registry ----

  /// Register a data block; returns the tier id its storage must be
  /// placed on (strategy-dependent: movement strategies start
  /// everything on the bottom level; Naive packs the bounded levels
  /// first-fit in speed order; HbmOnly requires it to fit on level 0).
  /// Ids index a dense table: gaps are allowed, but an id may lie at
  /// most kMaxBlockIdGap past the table's current end.
  TierId add_block(BlockId b, std::uint64_t bytes) override;

  /// Register a block with an explicit home: under a movement
  /// strategy the block starts on hierarchy level `home_level`
  /// instead of the bottom (a placement coordinator homing objects on
  /// a node's local pool rather than the disaggregated remote tier —
  /// DOLMA-style object-level placement).  Only middle levels are
  /// valid homes: level 0 is the prefetch budget and the bottom is
  /// the default.  `home_level < 0` or a non-movement strategy falls
  /// back to the plain overload.
  TierId add_block(BlockId b, std::uint64_t bytes,
                   std::int32_t home_level);

  /// Forget a block.  Must be unreferenced and not in flight.
  void remove_block(BlockId b) override;

  // ---- events (each returns the commands to execute) ----

  /// A message for a [prefetch] entry method arrived at the converse
  /// scheduler (pre-processing step).  Task ids must be unique among
  /// live tasks; a completed task's id may be submitted again.
  std::vector<Command> on_task_arrived(const TaskDesc& task) override;

  /// The executor finished migrating `b` slow -> fast.
  std::vector<Command> on_fetch_complete(BlockId b) override;

  /// The executor finished migrating `b` fast -> slow.
  std::vector<Command> on_evict_complete(BlockId b) override;

  /// A task previously issued via Command::Run finished executing
  /// (post-processing step).
  std::vector<Command> on_task_complete(TaskId t);

  /// ooc::Engine signature: this engine's task records know their PE,
  /// so the hint is unused.
  std::vector<Command> on_task_complete(TaskId t, std::int32_t) override {
    return on_task_complete(t);
  }

  /// Process a batch of events in order, appending the resulting
  /// commands to `out`.  Exactly equivalent to calling the per-event
  /// entry points one by one; exists so a threaded executor can
  /// amortize one engine-lock acquisition over the whole batch, into
  /// buffers it reuses.  Arrivals' task descriptors are moved out of
  /// `events`.
  void step_batch(std::vector<Event>& events, std::vector<Command>& out);

  /// step_batch() into a fresh vector.
  std::vector<Command> step_batch(std::vector<Event> events) {
    std::vector<Command> out;
    step_batch(events, out);
    return out;
  }

  // ---- online reconfiguration (adaptive governor) ----
  //
  // The governor retunes a quiescent engine between phases; each
  // setter is also safe to call when the value does not change.

  /// Install / replace / remove (nullptr) the advice provider.
  void set_advisor(const AdviceProvider* advisor);

  /// Switch the scheduling strategy online.  Only defined between the
  /// movement strategies (they share block placement: everything
  /// starts on the slow tier); the engine must be quiescent.
  void set_strategy(Strategy s);

  /// Flip eager/lazy eviction.  Turning eager on flushes the parked
  /// LRU (pinned blocks stay when an advisor is installed) — execute
  /// the returned eviction commands.
  std::vector<Command> set_eager_evict(bool eager);

  void set_fair_admission(bool fair);

  /// Retune the parked-LRU watermark; returns the evictions needed to
  /// get under the new cap (unpinned victims only).
  std::vector<Command> set_lru_watermark(double frac);

  // ---- introspection (tests, executors, tracing) ----

  BlockState block_state(BlockId b) const override;
  std::uint32_t refcount(BlockId b) const override;
  std::uint64_t fast_used() const { return used_.front(); }
  std::uint64_t fast_capacity() const { return cfg_.fast_capacity; }

  /// The placement hierarchy (levels, fastest first).
  const std::vector<TierDesc>& tiers() const override { return tiers_; }
  std::int32_t num_levels() const {
    return static_cast<std::int32_t>(tiers_.size());
  }
  /// Hierarchy level the block occupies (for an in-flight block, the
  /// migration destination).
  std::int32_t block_level(BlockId b) const override {
    return block(b).level;
  }
  /// Tier id of block_level(b) — what executors key arenas/channels by.
  TierId block_tier(BlockId b) const {
    return tiers_[static_cast<std::size_t>(block(b).level)].id;
  }
  /// Bytes resident on (or in flight to) a hierarchy level.
  std::uint64_t tier_used(std::int32_t level) const override {
    return used_[static_cast<std::size_t>(level)];
  }
  std::size_t waiting_tasks(std::int32_t pe) const;
  std::size_t total_waiting() const override;
  std::size_t live_tasks() const { return n_live_tasks_; }
  std::size_t inflight_fetches() const { return n_inflight_fetch_; }
  std::size_t inflight_evicts() const { return n_inflight_evict_; }
  std::size_t lru_size() const { return lru_.size(); }
  std::uint64_t lru_bytes() const { return lru_bytes_; }
  const Stats& stats() const { return stats_; }
  EngineStats engine_stats() const override { return stats_; }

  /// True when every arrived task has completed and nothing is queued
  /// or in flight — used by executors to assert quiescence.
  bool quiescent() const override;

  /// Debug: number of fast-resident blocks with refcount 0 (should be
  /// none at quiescence under eager eviction) and the first waiting
  /// task's admissibility, dumped by executors on wedge detection.
  void debug_dump(std::FILE* out) const;

  /// Cross-check the incremental bookkeeping against ground truth
  /// recomputed from the block/task records: per-level used_/outbound_
  /// bytes (a migrating block is counted on both its source and
  /// destination level until it lands), LRU membership and byte
  /// counts, waiting/live/in-flight counters, per-PE claims, block
  /// refcounts vs live-task dependence lists, waiter-list sanity.
  /// Returns one human-readable line per violation (empty = clean).
  /// `at_quiescence` adds the idle-only invariants: nothing queued, in
  /// flight, referenced or claimed.  O(blocks + tasks); callers
  /// serialize like every other entry point.
  std::vector<std::string> audit_invariants(
      bool at_quiescence) const override;

private:
  enum class TaskState : std::uint8_t { Waiting, Admitted, Ready };

  struct BlockRec {
    std::uint64_t bytes = 0;
    /// Hierarchy level the block occupies; while migrating, the
    /// destination level (budget is reserved there up front).
    std::int32_t level = 0;
    /// Migration source level, or -1 when the block is resident.  The
    /// pair encodes the old four BlockStates: resident level 0 =
    /// InFast, resident lower = InSlow, migrating to 0 =
    /// FetchInFlight, migrating downward = EvictInFlight.
    std::int32_t from_level = -1;
    std::uint32_t refcount = 0;
    std::vector<TaskId> fetch_waiters; // admitted tasks awaiting fetch
    bool in_lru = false; // level-0 parking LRU (lazy / pinned)
    bool in_mid = false; // mid_lru_[level] cold list (middle levels)
    /// Admitted tasks reading this block from the slow tier on bypass
    /// advice.  While nonzero, no fetch may be issued for the block
    /// (the executors' migration would free the copy being read), so
    /// later admissions are forced onto the bypass path too.
    std::uint32_t slow_claims = 0;
    bool live = false; // registered (dense-table slot in use)
  };

  struct TaskRec {
    TaskDesc desc;
    TaskState state = TaskState::Waiting;
    std::uint32_t missing = 0;      // deps not yet InFast
    std::uint64_t claim_bytes = 0;  // fresh fast-tier bytes it claimed
    std::vector<BlockId> bypassed;  // deps claimed in the slow tier
  };

  BlockRec& block(BlockId b);
  const BlockRec& block(BlockId b) const;
  bool has_block(BlockId b) const {
    return b < blocks_.size() && blocks_[b].live;
  }
  TaskRec& task(TaskId t);

  /// Insert the record of an arriving task (reusing a spare node when
  /// one is kept); dies on a duplicate live id.
  TaskRec& new_task(TaskId t);

  /// Claim the dense-table slot for a new block (bounded growth, no
  /// duplicates) and record its size; placement is the caller's.
  BlockRec& new_block(BlockId b, std::uint64_t bytes);

  // The event handlers behind the public entry points and step_batch:
  // each appends its commands to `cmds`.
  void handle_arrival(TaskDesc desc, std::vector<Command>& cmds);
  void handle_fetch_complete(BlockId b, std::vector<Command>& cmds);
  void handle_evict_complete(BlockId b, std::vector<Command>& cmds);
  void handle_task_complete(TaskId t, std::vector<Command>& cmds);

  /// The old four-state view of a block, derived from level/from_level.
  static BlockState state_of(const BlockRec& br) {
    if (br.from_level >= 0) {
      return br.level == 0 ? BlockState::FetchInFlight
                           : BlockState::EvictInFlight;
    }
    return br.level == 0 ? BlockState::InFast : BlockState::InSlow;
  }

  std::int32_t bottom() const {
    return static_cast<std::int32_t>(tiers_.size()) - 1;
  }

  /// Advice for `b`, or all-defaults when no advisor is installed.
  BlockAdvice advice_for(BlockId b, const BlockRec& br) const;

  /// True when this dependence is (or must be) served from the slow
  /// tier: bypass advice, or an already-active slow claim.
  bool dep_bypasses(BlockId b, const BlockRec& br) const;

  /// The LRU can hold blocks: lazy mode, or an advisor that pins.
  bool lru_enabled() const {
    return !cfg_.eager_evict || cfg_.advisor != nullptr;
  }

  /// Evict parked blocks (coldest first, unpinned unless
  /// `evict_pinned`) until parked bytes are <= `limit`.
  void flush_lru_over(std::uint64_t limit, std::int32_t agent,
                      std::int32_t pe, bool evict_pinned,
                      std::vector<Command>& cmds);

  /// Bytes of additional fast-tier space task admission would claim.
  /// Returns false via `admissible` when a dep is mid-eviction (must
  /// wait for it to land before it can be re-fetched).
  std::uint64_t admission_bytes(const TaskRec& tr, bool* admissible) const;

  bool can_admit(const TaskRec& tr) const;

  /// `extra` admission bytes fit the level-0 budget.
  bool fits(std::uint64_t extra) const {
    return used_[0] + extra <= cfg_.fast_capacity;
  }

  /// Fair-admission gate for the per-PE drains (MultiIo / SyncNoIo).
  /// `extra` = admission_bytes(tr) of an admissible task.
  bool within_fair_share(const TaskRec& tr, std::uint64_t extra) const;

  /// Claim deps, plan fetches, emit Run when already resident.
  void admit(TaskRec& tr, std::int32_t fetch_agent,
             std::vector<Command>& cmds);

  void mark_ready(TaskRec& tr, std::vector<Command>& cmds);

  /// Drain admissible tasks.  SingleIo: round-robin one task per PE
  /// queue per pass over all queues.  MultiIo: drain agent's own queue.
  /// SyncNoIo: drain `pe`'s queue with inline fetches.
  void io_step_single(std::vector<Command>& cmds);
  void io_step_multi(std::int32_t agent, std::vector<Command>& cmds);
  void io_step_sync(std::int32_t pe, std::vector<Command>& cmds);

  /// Lazy mode: schedule evictions of LRU refcount-0 blocks until
  /// `need` bytes will become free.  Returns bytes scheduled.
  std::uint64_t reclaim_lru(std::uint64_t need, std::int32_t agent,
                            std::int32_t pe, std::vector<Command>& cmds);

  /// Evict a refcount-0 level-0 block: picks the demotion destination
  /// (advice, then cascade fit search) and schedules the migration.
  /// `pe` identifies the worker lane that performs the eviction when
  /// `agent` is kWorkerInline (executors charge the stall there).
  void evict_block(BlockId b, std::int32_t agent, std::int32_t pe,
                   std::vector<Command>& cmds);

  /// Demotion landing level for a block leaving `src`: the advised
  /// level if any, else the first lower bounded level with room, else
  /// the unbounded bottom (which keeps the cascade deadlock-free).
  std::int32_t demote_target(std::int32_t src, std::uint64_t bytes,
                             std::int32_t advised) const;

  /// Schedule the migration src(=block's level) -> dst, reserving dst
  /// budget and recording in-flight outbound bytes on src, then trim
  /// dst back under its watermark if it is a middle level.
  void demote_block(BlockId b, std::int32_t dst, std::int32_t agent,
                    std::int32_t pe, std::vector<Command>& cmds);

  /// Watermark trim for middle level `k`: demote the coldest
  /// refcount-0 residents onward until (resident - outbound) bytes
  /// fall under watermark * capacity.
  void cascade_from(std::int32_t k, std::int32_t agent, std::int32_t pe,
                    std::vector<Command>& cmds);

  void lru_touch(BlockId b);
  void lru_unlink(BlockId b);
  void mid_touch(BlockId b);
  void mid_unlink(BlockId b, BlockRec& br);

  /// Wedge detection: waiting tasks but nothing live, in flight or
  /// reclaimable means the head task can never be admitted.
  void check_progress() const;

  Config cfg_;
  bool base_evict_by_worker_ = false; // Config value before strategy
                                      // overrides (restored on switch)
  std::vector<TierDesc> tiers_; // resolved hierarchy (>= 2 levels)
  /// Indexed by BlockId; records of unregistered ids have live=false.
  std::vector<BlockRec> blocks_;
  std::unordered_map<TaskId, TaskRec> tasks_;
  /// Map nodes of completed tasks, reused by later arrivals so the
  /// steady state allocates no node per task; never more than the
  /// peak number of live task records.
  std::vector<std::unordered_map<TaskId, TaskRec>::node_type> spare_tasks_;
  std::vector<std::deque<TaskId>> wait_q_;
  std::deque<BlockId> lru_; // front = coldest (lazy / pinned parking)
  std::uint64_t lru_bytes_ = 0;
  /// Middle-level cold lists (front = coldest): refcount-0 residents
  /// of each intermediate level, the watermark trim's victim order.
  /// Unused for levels 0 (the parking LRU) and bottom.
  std::vector<std::deque<BlockId>> mid_lru_;

  /// Bytes resident on or in flight to each level — level 0 is the
  /// old fast_used_: budget covers InFast + FetchInFlight +
  /// EvictInFlight, released only when the outbound migration lands.
  std::vector<std::uint64_t> used_;
  /// In-flight bytes leaving each level (subset of used_): the
  /// watermark trim targets (used_ - outbound_) so bytes already on
  /// their way out are not demoted twice.
  std::vector<std::uint64_t> outbound_;
  std::size_t n_live_tasks_ = 0; // Admitted + Ready (not yet completed)
  std::size_t n_waiting_ = 0;
  std::size_t n_inflight_fetch_ = 0;
  std::size_t n_inflight_evict_ = 0;
  std::int32_t rr_cursor_ = 0; // SingleIo fairness cursor
  std::vector<std::uint64_t> pe_claims_; // outstanding claims per PE
  Stats stats_;
  /// Telemetry annotation: the task whose completion (eager eviction)
  /// or attempted admission (LRU reclaim) triggered the eviction being
  /// built.  Stamped into Command::task on Evict commands so the trace
  /// exporter can stitch fetch -> execute -> evict causal chains;
  /// never read by the policy itself.  kInvalidTask = untriggered
  /// (governor flushes, watermark trims at reconfiguration).
  TaskId evict_cause_ = kInvalidTask;
};

} // namespace hmr::ooc
