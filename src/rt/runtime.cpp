#include "rt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "telemetry/bridge.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr::rt {

namespace {

/// The runtime's placement hierarchy is the model's tiers in bandwidth
/// order, with non-bottom budgets equal to the *scaled* arenas (the
/// engine must not admit bytes the MemoryManager cannot physically
/// hold) and the bottom unbounded.  A two-tier model therefore behaves
/// exactly like the classic fast/slow runtime; deeper hierarchies get
/// the engine's demotion cascade.
ooc::PolicyEngine::Config engine_config(const Runtime::Config& cfg,
                                        const mem::MemoryManager& mm) {
  ooc::PolicyEngine::Config ec;
  ec.strategy = cfg.strategy;
  ec.num_pes = cfg.num_pes;
  ec.tiers = ooc::tiers_from_model(cfg.model);
  for (std::size_t k = 0; k + 1 < ec.tiers.size(); ++k) {
    ec.tiers[k].capacity = mm.usage(ec.tiers[k].id).capacity;
  }
  ec.tiers.back().capacity = 0;
  ec.fast_capacity = ec.tiers.front().capacity;
  ec.eager_evict = cfg.eager_evict;
  ec.evict_by_worker = cfg.evict_by_worker;
  ec.writeonly_nocopy = cfg.writeonly_nocopy;
  return ec;
}

/// Block flight recorder depth: the last N residency transitions per
/// block, kept for post-mortem debugging.  Cheap — one striped-map
/// update per migration — so it is always on; HMR_FLIGHT_DEPTH is the
/// operator override (telemetry::flight_depth_from_env).
constexpr std::size_t kFlightDepth = 8;

/// Max engine events a PE/IO thread hands the engine per lock
/// acquisition, and the per-wakeup drain depth of the worker loops.
constexpr std::size_t kBatch = 16;

int io_thread_count(const Runtime::Config& cfg) {
  // Adaptive runs may switch to MultiIo mid-run: give them the full
  // complement (commands route via agent % io_.size()).
  if (cfg.adaptive) return cfg.num_pes;
  switch (cfg.strategy) {
    case ooc::Strategy::SingleIo:
      return 1;
    case ooc::Strategy::MultiIo:
      return cfg.num_pes;
    default:
      return 0;
  }
}

/// Best-effort CPU pinning; silently ignored off-Linux or when the
/// machine has fewer cores than threads.
void pin_to_core(std::thread& t, int core) {
#ifdef __linux__
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0 || core >= n) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core), &set);
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)core;
#endif
}

} // namespace

Runtime::Runtime(Config cfg)
    : cfg_(std::move(cfg)),
      mm_(std::make_unique<mem::MemoryManager>(
          mem::MemoryManager::specs_from_model(cfg_.model, cfg_.mem_scale),
          /*enable_pool=*/true)),
      engine_(engine_config(cfg_, *mm_)),
      pending_(static_cast<std::size_t>(std::max(1, cfg_.num_pes))),
      tasks_done_(static_cast<std::size_t>(std::max(1, cfg_.num_pes))),
      tracer_(cfg_.trace, cfg_.trace_opts),
      t0_(std::chrono::steady_clock::now()) {
  HMR_CHECK(cfg_.num_pes > 0);
  if (cfg_.serve_port >= 0) cfg_.metrics = true; // /metrics needs them
  if (cfg_.metrics) {
    metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    mh_.fetch_ns = &metrics_->histogram(
        "hmr_fetch_latency_ns", "", "Fetch migration wall time (ns)");
    mh_.evict_ns = &metrics_->histogram(
        "hmr_evict_latency_ns", "", "Evict migration wall time (ns)");
    mh_.task_wait_ns = &metrics_->histogram(
        "hmr_task_wait_ns", "",
        "Interception-to-execution wait per prefetch task (ns)");
    mh_.run_q_depth = &metrics_->histogram(
        "hmr_run_queue_depth", "",
        "Ready-queue depth observed per PE wakeup");
    telemetry::AttributionTable::Options ao;
    ao.shards = static_cast<std::size_t>(cfg_.num_pes);
    attrib_ = std::make_unique<telemetry::AttributionTable>(ao);
    history_ = std::make_unique<telemetry::HistoryBuffer>(*metrics_);
    history_->set_clock([this] { return now(); });
  }
  if (const std::size_t depth = telemetry::flight_depth_from_env(kFlightDepth);
      depth > 0) {
    flight_ = std::make_unique<telemetry::BlockFlightRecorder>(depth);
  }
  if (cfg_.chunk_threshold > 0) {
    // Idle IO threads join a chunked copy only once woken.
    mm_->set_chunked_copy(cfg_.chunk_threshold,
                          mem::ChunkRing::kDefaultChunkBytes,
                          [this] { poke_io_for_assist(); });
  }
  if (cfg_.zero_copy) mm_->set_zero_copy(true);
  if (cfg_.lock_stats) {
    lock_stats_ = std::make_unique<trace::ContentionStats>(1);
  }
  if (cfg_.adaptive) {
    HMR_CHECK_MSG(ooc::strategy_moves_data(cfg_.strategy),
                  "adaptive guidance requires a movement strategy");
    profiler_ = std::make_unique<adapt::BlockProfiler>(cfg_.profiler_cfg);
    adapt::AdvisorConfig ac = adapt::AdvisorConfig::from_model(cfg_.model);
    advisor_ = std::make_unique<adapt::PlacementAdvisor>(*profiler_, ac);
    adapt::GovernorConfig gc;
    gc.initial_strategy = cfg_.strategy;
    gc.initial_eager_evict = cfg_.eager_evict;
    gc.num_pes = cfg_.num_pes;
    gc.channel_bytes_per_second =
        cfg_.model.channel_capacity(cfg_.model.slow, cfg_.model.fast);
    governor_ = std::make_unique<adapt::StrategyGovernor>(gc);
    engine_.set_advisor(advisor_.get()); // before any thread starts
    decisions_ = std::make_unique<telemetry::DecisionLog>();
    decisions_->set_clock([this] { return now(); });
    advisor_->set_decision_sink(decisions_.get());
    governor_->set_decision_sink(decisions_.get());
  }
  if (cfg_.serve.enabled()) {
    HMR_CHECK_MSG(!cfg_.adaptive,
                  "multi-tenant serving and adaptive guidance both claim "
                  "the engine's advisor slot; enable one");
    tenancy_ =
        std::make_unique<serve::TenantEngine>(engine_, cfg_.serve, now());
    tenancy_->set_clock([this] { return now(); });
    // Quota-aware victim selection (null below two tenants).
    if (auto* adv = tenancy_->advisor()) engine_.set_advisor(adv);
  }
  pes_.reserve(static_cast<std::size_t>(cfg_.num_pes));
  for (int pe = 0; pe < cfg_.num_pes; ++pe) {
    pes_.push_back(std::make_unique<PeWorker>());
  }
  const int n_io = io_thread_count(cfg_);
  io_.reserve(static_cast<std::size_t>(n_io));
  for (int i = 0; i < n_io; ++i) {
    io_.push_back(std::make_unique<IoWorker>());
  }
  pe_beats_ =
      std::vector<telemetry::Heartbeat>(static_cast<std::size_t>(cfg_.num_pes));
  io_beats_ =
      std::vector<telemetry::Heartbeat>(static_cast<std::size_t>(n_io));
  // Launch only after all structures exist.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int pe = 0; pe < cfg_.num_pes; ++pe) {
    auto& th = pes_[static_cast<std::size_t>(pe)]->thread;
    th = std::thread([this, pe] { pe_loop(pe); });
    if (cfg_.pin_threads) pin_to_core(th, pe);
  }
  for (int i = 0; i < n_io; ++i) {
    auto& th = io_[static_cast<std::size_t>(i)]->thread;
    th = std::thread([this, i] { io_loop(i); });
    // The SMT sibling of worker i sits num_pes cores later in the
    // common Linux enumeration; fall back to sharing the core.
    if (cfg_.pin_threads) {
      const int sibling = i + cfg_.num_pes < hw ? i + cfg_.num_pes : i;
      pin_to_core(th, sibling);
    }
  }
  start_introspection();
}

Runtime::~Runtime() {
  stop_introspection();
  wait_idle();
  stop_.store(true);
  for (auto& w : pes_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : io_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : pes_) w->thread.join();
  for (auto& w : io_) w->thread.join();
}

double Runtime::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

mem::BlockId Runtime::alloc_block(std::uint64_t bytes) {
  // One small lock keeps the engine's and the MemoryManager's dense
  // sequential id spaces aligned under concurrent allocation.
  std::lock_guard alk(alloc_mu_);
  const mem::BlockId expected = blocks_created_++;
  hw::TierId tier;
  {
    std::lock_guard elk(engine_mu_);
    tier = active_engine().add_block(expected, bytes);
  }
  const mem::BlockId b = mm_->register_block(bytes, tier);
  HMR_CHECK_MSG(b != mem::kInvalidBlock,
                "tier out of memory while allocating a block");
  HMR_CHECK_MSG(b == expected, "block id spaces diverged");
  return b;
}

void Runtime::free_block(mem::BlockId b) {
  {
    std::lock_guard alk(alloc_mu_);
    std::lock_guard elk(engine_mu_);
    active_engine().remove_block(b);
  }
  mm_->unregister_block(b);
}

void Runtime::send(int pe, Body body) {
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  msgs_add(1);
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::lock_guard lk(w.mu);
  Msg m;
  m.body = std::move(body);
  m.prefetch = false;
  w.msgs.push_back(std::move(m));
  w.cv.notify_one();
}

void Runtime::send_prefetch(int pe, DepList deps, Body body,
                            double work_factor, std::uint32_t tenant) {
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  msgs_add(1);
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::lock_guard lk(w.mu);
  Msg m;
  m.body = std::move(body);
  m.deps = std::move(deps);
  m.work_factor = work_factor;
  m.prefetch = true;
  m.tenant = tenant;
  w.msgs.push_back(std::move(m));
  w.cv.notify_one();
}

void Runtime::send_batch(int pe, std::vector<Body> bodies) {
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  if (bodies.empty()) return;
  msgs_add(bodies.size());
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::lock_guard lk(w.mu);
  for (auto& body : bodies) {
    Msg m;
    m.body = std::move(body);
    m.prefetch = false;
    w.msgs.push_back(std::move(m));
  }
  w.cv.notify_one();
}

void Runtime::send_prefetch_batch(int pe, std::vector<PrefetchMsg> msgs) {
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  if (msgs.empty()) return;
  msgs_add(msgs.size());
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::lock_guard lk(w.mu);
  for (auto& pm : msgs) {
    Msg m;
    m.body = std::move(pm.body);
    m.deps = std::move(pm.deps);
    m.work_factor = pm.work_factor;
    m.prefetch = true;
    m.tenant = pm.tenant;
    w.msgs.push_back(std::move(m));
  }
  w.cv.notify_one();
}

void Runtime::pe_loop(int pe) {
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::vector<ReadyTask> tasks;
  std::vector<Msg> msgs;
  telemetry::Heartbeat& hb = pe_beats_[static_cast<std::size_t>(pe)];
  for (;;) {
    // Liveness stamp for /status and the watchdog.  A parked thread
    // stops beating — that is the signal, not a bug: the watchdog only
    // reads heartbeats while work is outstanding.
    hb.beat(now_ns());
    tasks.clear();
    msgs.clear();
    {
      std::unique_lock lk(w.mu);
      w.cv.wait(lk, [&] {
        return stop_.load() || !w.run_q.empty() || !w.msgs.empty();
      });
      // Ready tasks (data resident) run before new messages are
      // intercepted, keeping the PE's pipeline full.  Draining a
      // batch amortizes the queue lock and the engine lock over the
      // whole batch.
      while (!w.run_q.empty() && tasks.size() < kBatch) {
        tasks.push_back(std::move(w.run_q.front()));
        w.run_q.pop_front();
      }
      if (metrics_ && !tasks.empty()) {
        mh_.run_q_depth->observe(tasks.size() + w.run_q.size());
      }
      if (tasks.empty()) {
        while (!w.msgs.empty() && msgs.size() < kBatch) {
          msgs.push_back(std::move(w.msgs.front()));
          w.msgs.pop_front();
        }
      }
      if (tasks.empty() && msgs.empty()) {
        return; // stop requested and nothing left to do
      }
    }
    if (!tasks.empty()) {
      run_ready_batch(pe, tasks);
    } else {
      intercept_batch(pe, msgs);
    }
  }
}

void Runtime::io_loop(int io) {
  IoWorker& w = *io_[static_cast<std::size_t>(io)];
  const int lane = cfg_.num_pes + io;
  std::vector<ooc::Command> batch;
  telemetry::Heartbeat& hb = io_beats_[static_cast<std::size_t>(io)];
  for (;;) {
    hb.beat(now_ns());
    batch.clear();
    {
      std::unique_lock lk(w.mu);
      for (;;) {
        if (!w.cmds.empty() || stop_.load()) break;
        if (mm_->copy_assist_pending()) {
          // Idle with a large chunked copy in flight somewhere: lend
          // this core to it instead of sleeping.
          lk.unlock();
          mm_->assist_copies();
          lk.lock();
          continue;
        }
        w.cv.wait(lk, [&] {
          return stop_.load() || !w.cmds.empty() ||
                 mm_->copy_assist_pending();
        });
      }
      if (w.cmds.empty()) return; // stop requested, queue drained
      while (!w.cmds.empty() && batch.size() < kBatch) {
        batch.push_back(w.cmds.front());
        w.cmds.pop_front();
      }
    }
    perform_transfer_batch(batch, lane);
  }
}

void Runtime::intercept_batch(int pe, std::vector<Msg>& msgs) {
  std::vector<ooc::PolicyEngine::Event> arrivals;
  arrivals.reserve(msgs.size());
  auto flush = [&] {
    if (arrivals.empty()) return;
    process(engine_step(std::move(arrivals), pe), pe);
    arrivals.clear();
  };
  for (auto& msg : msgs) {
    if (!msg.prefetch) {
      // Plain entry method: the converse scheduler delivers it
      // directly.  Flush queued arrivals first to keep delivery order.
      flush();
      const double ts = now();
      msg.body();
      tracer_.record(pe, trace::Category::Compute, ts, now());
      note_done(1);
      continue;
    }
    // Pre-processing step of a [prefetch] entry method: wrap it as an
    // OOCTask and hand it to the policy engine.
    const ooc::TaskId id = next_task_.fetch_add(1);
    std::vector<mem::BlockId> writes;
    if (cfg_.zero_copy) {
      for (const auto& d : msg.deps) {
        if (d.mode != ooc::AccessMode::ReadOnly) writes.push_back(d.block);
      }
    }
    {
      ReadyTask rt;
      rt.id = id;
      rt.body = std::move(msg.body);
      rt.t_arrive = metrics_ ? now() : 0;
      rt.tenant = msg.tenant;
      rt.writes = std::move(writes);
      PendingShard& ps = pending_[static_cast<std::size_t>(pe)];
      std::lock_guard lk(ps.mu);
      ps.map.emplace(id, std::move(rt));
    }
    ooc::TaskDesc desc;
    desc.id = id;
    desc.pe = pe;
    desc.deps = std::move(msg.deps);
    desc.work_factor = msg.work_factor;
    desc.tenant = msg.tenant;
    arrivals.push_back(ooc::PolicyEngine::Event::arrived(std::move(desc)));
  }
  flush();
}

void Runtime::run_ready_batch(int pe, std::vector<ReadyTask>& tasks) {
  for (const auto& task : tasks) {
    const double ts = now();
    if (metrics_) {
      mh_.task_wait_ns->observe(
          static_cast<std::uint64_t>((ts - task.t_arrive) * 1e9));
    }
    task.body();
    // Zero-copy runs: written blocks' shadows are stale now.  Safe
    // here — the engine still holds this task's claims, so none of
    // these blocks can be mid-migration until the completion event
    // below releases them.
    for (const mem::BlockId b : task.writes) mm_->mark_dirty(b);
    const double te = now();
    tracer_.record(pe, trace::Category::Compute, ts, te, task.id);
    if (attrib_) {
      telemetry::TaskAttribution a;
      a.task = task.id;
      a.pe = pe;
      a.tenant = task.tenant;
      a.arrive = task.t_arrive;
      a.start = ts;
      a.end = te;
      const double window = std::max(0.0, ts - a.arrive);
      const double fetch =
          std::clamp(task.t_ready - a.arrive, 0.0, window);
      a.seconds[static_cast<int>(telemetry::Bucket::Compute)] = te - ts;
      a.seconds[static_cast<int>(telemetry::Bucket::FetchWait)] = fetch;
      a.seconds[static_cast<int>(telemetry::Bucket::QueueWait)] =
          window - fetch;
      attrib_->record(static_cast<std::size_t>(pe), a);
    }
  }
  tasks_done_[static_cast<std::size_t>(pe)].v.fetch_add(
      tasks.size(), std::memory_order_relaxed);
  // Post-processing step: release claims, trigger evictions — one
  // engine visit for the whole batch.
  std::vector<ooc::PolicyEngine::Event> evs;
  evs.reserve(tasks.size());
  for (const auto& t : tasks) {
    evs.push_back(ooc::PolicyEngine::Event::completed(t.id));
  }
  process(engine_step(std::move(evs), pe), pe);
  note_done(tasks.size());
}

std::vector<ooc::Command> Runtime::engine_step(
    std::vector<ooc::PolicyEngine::Event> evs, int pe) {
  trace::lock_counted(engine_mu_, lock_stats_.get(), 0);
  std::lock_guard elk(engine_mu_, std::adopt_lock);
  if (!tenancy_) {
    if (profiler_) {
      for (const auto& e : evs) {
        if (e.kind != ooc::PolicyEngine::Event::Kind::TaskArrived) continue;
        profiler_->on_task_arrived(
            e.task, [this](mem::BlockId b) { return mm_->block_bytes(b); });
      }
    }
    std::vector<ooc::Command> cmds = engine_.step_batch(std::move(evs));
    observe_locked(cmds);
    return cmds;
  }
  // Per-event visits through the decorator (admission may defer or
  // reorder, so batching buys nothing); lock order engine_mu_ ->
  // TenantEngine's mutex.  Adaptive guidance is excluded by
  // construction, so there is nothing to observe.
  std::vector<ooc::Command> cmds;
  for (auto& e : evs) {
    std::vector<ooc::Command> c;
    switch (e.kind) {
      case ooc::PolicyEngine::Event::Kind::TaskArrived:
        c = tenancy_->on_task_arrived(e.task);
        break;
      case ooc::PolicyEngine::Event::Kind::FetchComplete:
        c = tenancy_->on_fetch_complete(e.block);
        break;
      case ooc::PolicyEngine::Event::Kind::EvictComplete:
        c = tenancy_->on_evict_complete(e.block);
        break;
      case ooc::PolicyEngine::Event::Kind::TaskComplete:
        c = tenancy_->on_task_complete(e.task_id, pe);
        break;
    }
    cmds.insert(cmds.end(), std::make_move_iterator(c.begin()),
                std::make_move_iterator(c.end()));
  }
  return cmds;
}

void Runtime::perform_transfer_batch(const std::vector<ooc::Command>& cmds,
                                     int trace_lane) {
  const std::size_t n = cmds.size();
  // A write-only dependence's old contents are dead: skip the memcpy
  // (the paper's migration always copies; this is the optional
  // writeonly_nocopy extension).
  std::vector<mem::MigrateOp> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i] = {cmds[i].block, cmds[i].dst_tier, !cmds[i].nocopy};
  }
  std::vector<mem::MigrateResult> res(n);
  // Per-migration intervals and latency samples only when someone
  // reads them; the flight recorder needs one stamp per batch.
  const bool timed = tracer_.enabled() || metrics_ != nullptr;
  const double ts = timed ? now() : 0;
  mm_->migrate_batch(ops, res);
  const double te = timed || flight_ ? now() : 0;
  double work = 0;
  for (const mem::MigrateResult& r : res) {
    HMR_CHECK_MSG(r.ok,
                  "migration failed: tier fragmentation exceeded the policy "
                  "engine's byte budget");
    work += r.total();
  }
  // Each migration's interval is its own alloc + copy + free time plus
  // an equal share of the batch's shared lock sections, so the
  // intervals tile [ts, te] on this lane without overlapping.
  const double shared =
      std::max(0.0, (te - ts - work) / static_cast<double>(n));

  std::vector<ooc::PolicyEngine::Event> evs;
  evs.reserve(n);
  std::uint64_t fetches = 0;
  double start = ts;
  for (std::size_t i = 0; i < n; ++i) {
    const ooc::Command& cmd = cmds[i];
    const mem::MigrateResult& r = res[i];
    const bool fetch = cmd.kind == ooc::Command::Kind::Fetch;
    double end = te;
    if (timed && i + 1 < n) end = std::min(te, start + r.total() + shared);
    // Interval.task == 0 means "not task-bound"; the engine uses
    // kInvalidTask for untriggered evictions.
    const ooc::TaskId cause = cmd.task == ooc::kInvalidTask ? 0 : cmd.task;
    // Traced traffic is *physical* bytes: nocopy skips the copy by
    // contract, zero-copy admissions skip it via a shadow swap.
    const std::uint64_t bytes = cmd.nocopy || r.zero_copy ? 0 : r.bytes;
    tracer_.record_migration(
        trace_lane, fetch ? trace::Category::Prefetch : trace::Category::Evict,
        start, end, cause, cmd.src_tier, cmd.dst_tier, bytes);
    if (metrics_) {
      (fetch ? mh_.fetch_ns : mh_.evict_ns)
          ->observe(static_cast<std::uint64_t>((end - start) * 1e9));
    }
    if (flight_) {
      flight_->record(cmd.block,
                      {end, cause, cmd.src_tier, cmd.dst_tier, bytes, fetch});
    }
    start = end;
    fetches += fetch ? 1 : 0;
    evs.push_back(fetch ? ooc::PolicyEngine::Event::fetched(cmd.block)
                        : ooc::PolicyEngine::Event::evicted(cmd.block));
  }
  if (cfg_.watchdog && fetches > 0) {
    fetch_last_ns_.store(now_ns(), std::memory_order_relaxed);
    fetch_completed_.fetch_add(fetches, std::memory_order_relaxed);
  }
  process(engine_step(std::move(evs), /*pe=*/-1), trace_lane);
  ops_sub(n);
}

void Runtime::process(std::vector<ooc::Command> cmds, int context_lane) {
  if (cfg_.watchdog) {
    // The watchdog's fetch-age hook is these counters' only reader.
    // Count before dispatching, so completions never outrun them.
    const auto fetches = static_cast<std::uint64_t>(std::count_if(
        cmds.begin(), cmds.end(), [](const ooc::Command& c) {
          return c.kind == ooc::Command::Kind::Fetch;
        }));
    if (fetches > 0) {
      fetch_last_ns_.store(now_ns(), std::memory_order_relaxed);
      fetch_dispatched_.fetch_add(fetches, std::memory_order_relaxed);
    }
  }
  for (auto& c : cmds) {
    switch (c.kind) {
      case ooc::Command::Kind::Run: {
        ReadyTask task;
        {
          PendingShard& ps = pending_[static_cast<std::size_t>(c.pe)];
          std::lock_guard lk(ps.mu);
          auto it = ps.map.find(c.task);
          HMR_CHECK_MSG(it != ps.map.end(), "run of unknown task");
          task = std::move(it->second);
          ps.map.erase(it);
        }
        // Deps are resident from here; start - t_ready is pure run
        // queue wait, t_ready - t_arrive is the fetch wait.
        if (attrib_) task.t_ready = now();
        PeWorker& w = *pes_[static_cast<std::size_t>(c.pe)];
        std::lock_guard lk(w.mu);
        w.run_q.push_back(std::move(task));
        w.cv.notify_one();
        break;
      }
      case ooc::Command::Kind::Fetch:
      case ooc::Command::Kind::Evict: {
        ops_add(1);
        if (c.agent == ooc::kWorkerInline) {
          // Synchronous pre/post-processing on the current thread.
          perform_transfer_batch({c}, context_lane);
        } else {
          HMR_CHECK(!io_.empty());
          IoWorker& w =
              *io_[static_cast<std::size_t>(c.agent) % io_.size()];
          std::lock_guard lk(w.mu);
          if (tenancy_ && tenancy_->priority_dispatch()) {
            // QoS preemption of not-yet-started transfers: slot ahead
            // of every queued command with a worse dispatch rank.
            const int rank = tenancy_->dispatch_rank(c);
            auto pos = w.cmds.end();
            for (auto it = w.cmds.begin(); it != w.cmds.end(); ++it) {
              if (tenancy_->dispatch_rank(*it) > rank) {
                pos = it;
                break;
              }
            }
            if (pos != w.cmds.end() &&
                c.kind == ooc::Command::Kind::Fetch) {
              const auto winner = tenancy_->command_tenant(c);
              for (auto it = pos; it != w.cmds.end(); ++it) {
                if (it->kind == ooc::Command::Kind::Fetch) {
                  tenancy_->note_displacement(winner,
                                              tenancy_->command_tenant(*it));
                }
              }
            }
            w.cmds.insert(pos, c);
          } else {
            w.cmds.push_back(c);
          }
          w.cv.notify_one();
        }
        break;
      }
    }
  }
}

void Runtime::observe_locked(const std::vector<ooc::Command>& cmds) {
  if (!governor_) return;
  for (const auto& c : cmds) {
    if (c.kind == ooc::Command::Kind::Fetch) {
      profiler_->on_fetch(c.block, mm_->block_bytes(c.block));
    }
  }
  peak_inflight_ = std::max(peak_inflight_, engine_.inflight_fetches());
  if (engine_.total_waiting() > 0) phase_contended_ = true;
}

void Runtime::governor_phase_end() {
  const double t_now = now();
  std::vector<ooc::Command> cmds;
  {
    std::lock_guard elk(engine_mu_);
    adapt::PhaseObservation obs;
    obs.phase_seconds = t_now - phase_start_;
    const ooc::PolicyEngine::Stats& st = engine_.stats();
    obs.tasks = st.tasks_run - phase_base_.tasks_run;
    obs.fetches = st.fetches - phase_base_.fetches;
    obs.fetch_bytes = st.fetch_bytes - phase_base_.fetch_bytes;
    obs.evict_bytes = st.evict_bytes - phase_base_.evict_bytes;
    obs.fetch_dedup_hits =
        st.fetch_dedup_hits - phase_base_.fetch_dedup_hits;
    obs.lru_reclaims = st.lru_reclaims - phase_base_.lru_reclaims;
    obs.peak_inflight_fetches = peak_inflight_;
    obs.admission_contended = phase_contended_;
    obs.unique_bytes = profiler_->end_phase().unique_bytes;
    if (tracer_.enabled() && obs.phase_seconds > 0) {
      const double compute =
          tracer_.summarize(cfg_.num_pes, phase_start_, t_now)
              .total_of(trace::Category::Compute);
      obs.wait_fraction = std::clamp(
          1.0 - compute / (obs.phase_seconds * cfg_.num_pes), 0.0, 1.0);
    }
    phase_base_ = st;
    peak_inflight_ = 0;
    phase_contended_ = false;

    const adapt::Decision d = governor_->on_phase_end(obs);
    advisor_->set_streaming_bypass(d.bypass_streaming);
    engine_.set_fair_admission(d.fair_admission);
    engine_.set_strategy(d.strategy);
    auto flush = engine_.set_eager_evict(d.eager_evict);
    cmds.insert(cmds.end(), flush.begin(), flush.end());
    auto trim = engine_.set_lru_watermark(d.lru_watermark);
    cmds.insert(cmds.end(), trim.begin(), trim.end());
  }
  phase_start_ = t_now;
  if (cmds.empty()) return;
  // Any LRU-flush evictions count as outstanding ops; push them and
  // wait for the node to settle again before the next phase starts.
  process(std::move(cmds), /*context_lane=*/0);
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [&] {
    if (outstanding_msgs_.load(std::memory_order_acquire) != 0 ||
        outstanding_ops_.load(std::memory_order_acquire) != 0) {
      return false;
    }
    return engine_quiescent();
  });
}

void Runtime::msgs_add(std::uint64_t n) {
  outstanding_msgs_.fetch_add(n, std::memory_order_acq_rel);
}

void Runtime::note_done(std::uint64_t n) {
  if (n == 0) return;
  retired_.fetch_add(n, std::memory_order_relaxed);
  // Wake idle waiters only on the transition to zero: the hot path
  // never touches idle_mu_.  Taking the mutex before notifying closes
  // the race with a waiter that just evaluated its predicate.
  if (outstanding_msgs_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

void Runtime::ops_add(std::uint64_t n) {
  outstanding_ops_.fetch_add(n, std::memory_order_acq_rel);
}

void Runtime::ops_sub(std::uint64_t n) {
  retired_.fetch_add(n, std::memory_order_relaxed);
  if (outstanding_ops_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

bool Runtime::engine_quiescent() {
  // With tenancy, deferred submissions parked in the decorator count
  // as pending work; its quiescent() folds them in with the engine's.
  std::lock_guard elk(engine_mu_);
  return active_engine().quiescent();
}

void Runtime::poke_io_for_assist() {
  for (auto& w : io_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
}

void Runtime::wait_idle() {
  {
    std::unique_lock lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      if (outstanding_msgs_.load(std::memory_order_acquire) != 0 ||
          outstanding_ops_.load(std::memory_order_acquire) != 0) {
        return false;
      }
      return engine_quiescent();
    });
  }
  // Each wait_idle barrier is a phase boundary for the governor.
  if (governor_) governor_phase_end();
  sample_metrics();
  // ...and a history tick: the bridged counters were just refreshed,
  // so the snapshot that lands in the ring is coherent.
  if (history_) history_->sample();
  // Quiescence is the one point where every ledger must reconcile
  // exactly — audit here.
  if (telemetry::audit_enabled(cfg_.audit)) run_wait_idle_audit();
}

void Runtime::sample_metrics() {
  if (!metrics_) return;
  telemetry::export_policy_stats(*metrics_, policy_stats());
  if (attrib_) attrib_->export_metrics(*metrics_);
  if (tenancy_) tenancy_->export_metrics(*metrics_);
  if (lock_stats_) telemetry::export_contention(*metrics_, *lock_stats_);
  if (mm_->chunked_copy_enabled()) {
    telemetry::export_chunk_ring(*metrics_, mm_->chunk_ring());
    // Mirror the cumulative fallback count onto the tracer so trace
    // summaries / CSV dumps carry it next to the timing data.
    tracer_.note_copy_fallbacks(mm_->chunk_ring().ring_fallbacks());
  }
  telemetry::export_data_movement(*metrics_, *mm_);
  metrics_
      ->counter("hmr_trace_events_dropped_total", "",
                "Trace intervals lost to ring overflow")
      .set(tracer_.dropped());
  const auto tier_gauges = [&](std::int32_t level, std::uint64_t used,
                               std::uint64_t cap) {
    const std::string labels =
        telemetry::prom_label("level", std::to_string(level));
    metrics_
        ->gauge("hmr_tier_used_bytes", labels,
                "Bytes claimed on the hierarchy level")
        .set(static_cast<double>(used));
    metrics_
        ->gauge("hmr_tier_capacity_bytes", labels,
                "Level budget (0 = unbounded bottom)")
        .set(static_cast<double>(cap));
  };
  std::lock_guard elk(engine_mu_);
  const auto& tiers = engine_.tiers();
  for (std::int32_t k = 0; k < engine_.num_levels(); ++k) {
    tier_gauges(k, engine_.tier_used(k),
                tiers[static_cast<std::size_t>(k)].capacity);
  }
}

ooc::PolicyEngine::Stats Runtime::policy_stats() {
  std::lock_guard elk(engine_mu_);
  return engine_.stats();
}

std::uint64_t Runtime::tasks_executed() const {
  std::uint64_t n = 0;
  for (const auto& c : tasks_done_) {
    n += c.v.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Runtime::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

double Runtime::fetch_p99_seconds() const {
  if (!metrics_) return 0;
  const telemetry::Histogram& h = *mh_.fetch_ns;
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const std::uint64_t rank = n - n / 100; // the p99 sample, 1-based
  std::uint64_t cum = 0;
  for (int i = 0; i < telemetry::Histogram::kBuckets; ++i) {
    cum += h.bucket_count(i);
    if (cum >= rank) {
      return static_cast<double>(telemetry::Histogram::bucket_upper(i)) *
             1e-9;
    }
  }
  return 0;
}

telemetry::AuditReport Runtime::audit_now() {
  telemetry::AuditReport r;
  r.time = now();
  // With tenancy the audit is the engine's plus quota-ledger
  // conservation and admitted/completed bookkeeping.
  std::lock_guard elk(engine_mu_);
  const ooc::Engine& eng = active_engine();
  r.at_quiescence = eng.quiescent();
  r.violations = eng.audit_invariants(r.at_quiescence);
  return r;
}

std::uint64_t Runtime::audit_runs() const {
  std::lock_guard lk(audit_mu_);
  return audit_runs_;
}

void Runtime::run_wait_idle_audit() {
  telemetry::AuditReport r = audit_now();
  {
    std::lock_guard lk(audit_mu_);
    last_audit_ = r;
    ++audit_runs_;
  }
  telemetry::check_audit(r); // aborts on violations
}

std::string Runtime::status_json() {
  std::ostringstream os;
  const auto num = [&os](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    os << buf;
  };
  const std::uint64_t t = now_ns();
  os << "{\"time_s\":";
  num(static_cast<double>(t) * 1e-9);
  os << ",\"strategy\":\"" << ooc::strategy_name(cfg_.strategy) << "\""
     << ",\"num_pes\":" << cfg_.num_pes
     << ",\"num_io_threads\":" << io_.size() << ",\"outstanding_msgs\":"
     << outstanding_msgs_.load(std::memory_order_acquire)
     << ",\"outstanding_ops\":"
     << outstanding_ops_.load(std::memory_order_acquire)
     << ",\"tasks_executed\":" << tasks_executed()
     << ",\"retired\":" << retired_.load(std::memory_order_relaxed);

  const auto beat_json = [&](const telemetry::Heartbeat& hb) {
    const std::uint64_t beats = hb.beats.load(std::memory_order_relaxed);
    const std::uint64_t last = hb.last_ns.load(std::memory_order_relaxed);
    os << "\"beats\":" << beats << ",\"beat_age_s\":";
    if (beats == 0) {
      os << "-1"; // never woke up (or just launched)
    } else {
      num(t > last ? static_cast<double>(t - last) * 1e-9 : 0.0);
    }
  };
  os << ",\"pes\":[";
  for (std::size_t pe = 0; pe < pes_.size(); ++pe) {
    if (pe) os << ",";
    std::size_t msgs = 0, run_q = 0;
    {
      std::lock_guard lk(pes_[pe]->mu);
      msgs = pes_[pe]->msgs.size();
      run_q = pes_[pe]->run_q.size();
    }
    os << "{\"msgs\":" << msgs << ",\"run_q\":" << run_q << ",";
    beat_json(pe_beats_[pe]);
    os << "}";
  }
  os << "],\"io_threads\":[";
  for (std::size_t i = 0; i < io_.size(); ++i) {
    if (i) os << ",";
    std::size_t cmds = 0;
    {
      std::lock_guard lk(io_[i]->mu);
      cmds = io_[i]->cmds.size();
    }
    os << "{\"cmds\":" << cmds << ",";
    beat_json(io_beats_[i]);
    os << "}";
  }
  os << "],\"tiers\":[";
  const auto tier_json = [&](std::int32_t level, std::uint64_t used,
                             std::uint64_t cap) {
    if (level) os << ",";
    os << "{\"level\":" << level << ",\"used_bytes\":" << used
       << ",\"capacity_bytes\":" << cap << "}";
  };
  {
    std::lock_guard elk(engine_mu_);
    const auto& tiers = engine_.tiers();
    for (std::int32_t k = 0; k < engine_.num_levels(); ++k) {
      tier_json(k, engine_.tier_used(k),
                tiers[static_cast<std::size_t>(k)].capacity);
    }
  }
  os << "]";

  // Top-N hottest tracked blocks (adaptive runs; [] otherwise) — the
  // hmr_top dashboard's hot-block panel.
  os << ",\"hot_blocks\":[";
  if (profiler_) {
    std::lock_guard elk(engine_mu_);
    std::vector<adapt::BlockProfile> profs = profiler_->profiles();
    std::sort(profs.begin(), profs.end(),
              [](const adapt::BlockProfile& a, const adapt::BlockProfile& b) {
                return a.expected_accesses_per_phase() >
                       b.expected_accesses_per_phase();
              });
    const std::size_t n = std::min<std::size_t>(profs.size(), 8);
    for (std::size_t i = 0; i < n; ++i) {
      const adapt::BlockProfile& p = profs[i];
      if (i) os << ",";
      os << "{\"block\":" << p.block << ",\"bytes\":" << p.bytes
         << ",\"hotness\":";
      num(p.expected_accesses_per_phase());
      os << ",\"readonly_frac\":";
      num(p.readonly_fraction());
      os << ",\"reuse_distance\":";
      num(p.reuse_distance);
      os << "}";
    }
  }
  os << "]";

  os << ",\"governor\":";
  if (governor_) {
    // The governor only mutates under engine_mu_ (phase boundaries).
    std::lock_guard elk(engine_mu_);
    const adapt::Decision& d = governor_->current();
    os << "{\"strategy\":\"" << ooc::strategy_name(d.strategy) << "\""
       << ",\"eager_evict\":" << (d.eager_evict ? "true" : "false")
       << ",\"fair_admission\":" << (d.fair_admission ? "true" : "false")
       << ",\"lru_watermark\":";
    num(d.lru_watermark);
    os << ",\"bypass_streaming\":"
       << (d.bypass_streaming ? "true" : "false")
       << ",\"switches\":" << governor_->switches()
       << ",\"phases\":" << governor_->phases_observed() << "}";
  } else {
    os << "null";
  }

  os << ",\"watchdog\":";
  if (watchdog_) {
    os << "{\"trips\":" << watchdog_->trips()
       << ",\"stalled\":" << (watchdog_->stalled() ? "true" : "false")
       << ",\"last_reason\":\"";
    telemetry::json_escape(os, watchdog_->last_reason());
    os << "\"}";
  } else {
    os << "null";
  }

  {
    std::lock_guard lk(audit_mu_);
    os << ",\"audit_runs\":" << audit_runs_ << ",\"audit\":";
    if (audit_runs_ == 0) {
      os << "null";
    } else {
      telemetry::write_audit_json(os, last_audit_);
    }
  }
  os << "}";
  return os.str();
}

void Runtime::write_diagnostics(std::ostream& os) {
  os << "==== status ====\n" << status_json() << "\n";
  if (metrics_) {
    sample_metrics();
    os << "==== metrics ====\n";
    telemetry::MetricsRegistry::write_prometheus(os, metrics_->snapshot());
  }
  if (flight_) {
    os << "==== flight recorder ====\n";
    flight_->dump(os);
  }
  os << "==== trace ====\n";
  if (tracer_.enabled()) {
    const trace::TraceSummary s = tracer_.summarize(cfg_.num_pes);
    os << "span_s=" << s.span
       << " compute_s=" << s.total_of(trace::Category::Compute)
       << " prefetch_s=" << s.total_of(trace::Category::Prefetch)
       << " evict_s=" << s.total_of(trace::Category::Evict)
       << " dropped=" << s.dropped << "\n";
  } else {
    os << "(tracing off)\n";
  }
}

void Runtime::start_introspection() {
  if (cfg_.watchdog) {
    telemetry::Watchdog::Hooks h;
    h.under_load = [this] {
      return outstanding_msgs_.load(std::memory_order_acquire) != 0 ||
             outstanding_ops_.load(std::memory_order_acquire) != 0;
    };
    h.progress = [this] {
      return retired_.load(std::memory_order_relaxed);
    };
    h.fetch_age = [this]() -> double {
      const auto done = fetch_completed_.load(std::memory_order_relaxed);
      const auto sent = fetch_dispatched_.load(std::memory_order_relaxed);
      if (done >= sent) return -1; // nothing in flight
      const auto last = fetch_last_ns_.load(std::memory_order_relaxed);
      const std::uint64_t t = now_ns();
      return t > last ? static_cast<double>(t - last) * 1e-9 : 0.0;
    };
    h.fetch_p99 = [this] { return fetch_p99_seconds(); };
    h.trace_drops = [this] { return tracer_.dropped(); };
    h.remote_fetches = [this] {
      // hmr_remote_fetches_total's source counter (engine stats); the
      // monitor tick cadence makes the engine-lock grab negligible.
      return policy_stats().remote_fetches;
    };
    h.dump = [this](std::ostream& os) { write_diagnostics(os); };
    watchdog_ = std::make_unique<telemetry::Watchdog>(cfg_.watchdog_cfg,
                                                      std::move(h));
    watchdog_->start();
  }
  if (cfg_.serve_port >= 0) {
    using Request = telemetry::StatusServer::Request;
    using Response = telemetry::StatusServer::Response;
    auto srv = std::make_unique<telemetry::StatusServer>();
    srv->route("/healthz", [this](const Request&) {
      Response r;
      if (watchdog_ && watchdog_->stalled()) {
        r.status = 503;
        r.body = "stalled: " + watchdog_->last_reason() + "\n";
      } else {
        r.body = "ok\n";
      }
      return r;
    });
    srv->route("/metrics", [this](const Request&) {
      sample_metrics();
      Response r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      std::ostringstream body;
      telemetry::MetricsRegistry::write_prometheus(body,
                                                   metrics_->snapshot());
      r.body = body.str();
      return r;
    });
    srv->route("/status", [this](const Request&) {
      Response r;
      r.content_type = "application/json";
      r.body = status_json();
      return r;
    });
    srv->route("/tenants", [this](const Request&) {
      Response r;
      if (!tenancy_) {
        r.status = 404;
        r.body = "multi-tenant serving disabled (Config::serve empty)\n";
        return r;
      }
      r.content_type = "application/json";
      std::ostringstream body;
      tenancy_->write_json(body);
      r.body = body.str();
      return r;
    });
    srv->route("/cluster", [this](const Request&) {
      Response r;
      if (!cfg_.cluster_json) {
        r.status = 404;
        r.body = "no cluster attached (Config::cluster_json unset)\n";
        return r;
      }
      r.content_type = "application/json";
      r.body = cfg_.cluster_json();
      return r;
    });
    srv->route("/cluster/metrics", [this](const Request&) {
      Response r;
      if (!cfg_.cluster_metrics_json) {
        r.status = 404;
        r.body = "no federated metrics attached "
                 "(Config::cluster_metrics_json unset)\n";
        return r;
      }
      r.content_type = "application/json";
      r.body = cfg_.cluster_metrics_json();
      return r;
    });
    srv->route("/cluster/attrib", [this](const Request&) {
      Response r;
      if (!cfg_.cluster_attrib_json) {
        r.status = 404;
        r.body = "no federated attribution attached "
                 "(Config::cluster_attrib_json unset)\n";
        return r;
      }
      r.content_type = "application/json";
      r.body = cfg_.cluster_attrib_json();
      return r;
    });
    srv->route("/attrib", [this](const Request&) {
      Response r;
      r.content_type = "application/json";
      std::ostringstream body;
      attrib_->write_json(body); // serve_port forces metrics on
      r.body = body.str();
      return r;
    });
    srv->route("/blocks", [this](const Request& rq) {
      Response r;
      if (!flight_) {
        r.status = 404;
        r.body = "flight recorder disabled (HMR_FLIGHT_DEPTH=0)\n";
        return r;
      }
      const auto it = rq.query.find("id");
      if (it == rq.query.end()) {
        r.status = 400;
        r.body = "usage: /blocks?id=<block id>\n";
        return r;
      }
      std::uint64_t id = 0;
      if (!parse_u64(it->second, &id)) {
        r.status = 400;
        r.body = "bad block id: " + it->second + "\n";
        return r;
      }
      const auto hist = flight_->history(static_cast<mem::BlockId>(id));
      std::ostringstream body;
      body << "{\"block\":" << id << ",\"transitions\":[";
      for (std::size_t i = 0; i < hist.size(); ++i) {
        if (i) body << ",";
        char tbuf[32];
        std::snprintf(tbuf, sizeof tbuf, "%.6f", hist[i].time);
        body << "{\"time_s\":" << tbuf << ",\"task\":" << hist[i].task
             << ",\"src_tier\":" << hist[i].src_tier
             << ",\"dst_tier\":" << hist[i].dst_tier
             << ",\"bytes\":" << hist[i].bytes
             << ",\"fetch\":" << (hist[i].fetch ? "true" : "false")
             << "}";
      }
      body << "]}";
      r.content_type = "application/json";
      r.body = body.str();
      return r;
    });
    srv->route("/history", [this](const Request& rq) {
      Response r;
      std::string metric;
      double window = 0;
      if (const auto it = rq.query.find("metric"); it != rq.query.end()) {
        metric = it->second;
      }
      if (const auto it = rq.query.find("window"); it != rq.query.end()) {
        if (!parse_f64(it->second, &window) || window < 0) {
          r.status = 400;
          r.body = "bad window (seconds): " + it->second +
                   "\nusage: /history?metric=<name>&window=<finite "
                   "seconds >= 0>\n";
          return r;
        }
      }
      r.content_type = "application/json";
      std::ostringstream body;
      history_->write_json(body, metric, window);
      r.body = body.str();
      return r;
    });
    srv->route("/decisions", [this](const Request& rq) {
      Response r;
      if (!decisions_) {
        r.status = 404;
        r.body = "no decision log (Config::adaptive off)\n";
        return r;
      }
      std::vector<telemetry::DecisionLog::Record> recs;
      if (const auto it = rq.query.find("block"); it != rq.query.end()) {
        std::uint64_t id = 0;
        if (!parse_u64(it->second, &id)) {
          r.status = 400;
          r.body = "bad block id: " + it->second + "\n";
          return r;
        }
        recs = decisions_->snapshot_block(static_cast<mem::BlockId>(id));
      } else {
        recs = decisions_->snapshot();
      }
      std::ostringstream body;
      if (const auto it = rq.query.find("format");
          it != rq.query.end() && it->second == "csv") {
        telemetry::DecisionLog::write_csv(body, recs);
        r.content_type = "text/csv; charset=utf-8";
      } else {
        telemetry::DecisionLog::write_json(body, recs,
                                           decisions_->total_recorded(),
                                           decisions_->overwritten());
        r.content_type = "application/json";
      }
      r.body = body.str();
      return r;
    });
    std::string err;
    if (!srv->start(static_cast<std::uint16_t>(cfg_.serve_port), &err)) {
      // Diagnostics must never kill the job: warn and run without.
      std::fprintf(stderr, "hmr: status server disabled: %s\n",
                   err.c_str());
    } else {
      server_ = std::move(srv);
    }
  }
}

void Runtime::stop_introspection() {
  if (server_) server_->stop();
  if (watchdog_) watchdog_->stop();
}

} // namespace hmr::rt
