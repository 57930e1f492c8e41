// Property-based tests: drive the PolicyEngine with randomized
// synthetic workloads across all strategies and check the protocol
// invariants of the paper's Algorithm 1 at every step:
//   * the fast-tier budget is never exceeded,
//   * refcounts never underflow and blocks are only evicted at 0,
//   * every task runs exactly once, with all deps resident at run time,
//   * the system quiesces (no lost tasks, no leaked in-flight ops),
//   * under eager eviction, quiescence implies an empty fast tier.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "ooc/policy_engine.hpp"
#include "sim/synthetic_workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hmr::ooc {
namespace {

// gtest lists a parameter it cannot print as its raw bytes, so every
// byte is a named, zeroed member: with implicit padding the listed
// test ids carried whatever the padding held and differed per build.
// (A PrintTo would rename the listed ids instead.)
struct Scenario {
  Strategy strategy;
  bool eager;
  std::uint8_t zero_pad[6] = {};
  std::uint64_t seed;
  double reuse;
};
static_assert(sizeof(Scenario) == 24, "Scenario must have no padding");

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const auto& s = info.param;
  std::string n = strategy_name(s.strategy);
  n += s.eager ? "_eager" : "_lazy";
  n += "_s" + std::to_string(s.seed);
  n += s.reuse > 0.5 ? "_hireuse" : "_loreuse";
  return n;
}

// A randomized executor: it interleaves completion of outstanding
// fetch/evict/run work in random order, which explores many more
// protocol schedules than the deterministic simulator does.
class FuzzExecutor {
public:
  FuzzExecutor(PolicyEngine& e, std::uint64_t seed,
               const std::vector<sim::BlockSpec>& blocks)
      : eng_(&e), rng_(seed) {
    for (const auto& b : blocks) bytes_[b.id] = b.bytes;
  }

  void arrive(const TaskDesc& t) {
    descs_[t.id] = t;
    absorb(eng_->on_task_arrived(t));
  }

  bool step() {
    // Pick a random outstanding obligation and complete it.
    const std::size_t total =
        fetches_.size() + evicts_.size() + running_.size();
    if (total == 0) return false;
    std::size_t pick = rng_.below(total);
    if (pick < fetches_.size()) {
      const BlockId b = take(fetches_, pick);
      absorb(eng_->on_fetch_complete(b));
    } else if (pick < fetches_.size() + evicts_.size()) {
      const BlockId b = take(evicts_, pick - fetches_.size());
      absorb(eng_->on_evict_complete(b));
    } else {
      const TaskId t =
          take(running_, pick - fetches_.size() - evicts_.size());
      // Invariant: under movement strategies, all deps are resident
      // when the task actually runs (static strategies run wherever
      // the data was placed).
      if (strategy_moves_data(eng_->config().strategy)) {
        for (const auto& d : descs_[t].deps) {
          EXPECT_EQ(eng_->block_state(d.block), BlockState::InFast)
              << "task " << t << " ran with non-resident dep " << d.block;
        }
      }
      ++run_count_[t];
      absorb(eng_->on_task_complete(t));
    }
    check_invariants();
    return true;
  }

  void drain() {
    while (step()) {
    }
  }

  void check_invariants() {
    ASSERT_LE(eng_->fast_used(), eng_->fast_capacity());
  }

  const std::map<TaskId, int>& run_count() const { return run_count_; }

private:
  template <typename V>
  typename V::value_type take(V& v, std::size_t i) {
    auto x = v[i];
    v[i] = v.back();
    v.pop_back();
    return x;
  }

  void absorb(std::vector<Command> cmds) {
    for (const auto& c : cmds) {
      switch (c.kind) {
        case Command::Kind::Fetch:
          fetches_.push_back(c.block);
          break;
        case Command::Kind::Evict:
          evicts_.push_back(c.block);
          break;
        case Command::Kind::Run:
          running_.push_back(c.task);
          break;
      }
    }
  }

  PolicyEngine* eng_;
  Xoshiro256 rng_;
  std::unordered_map<BlockId, std::uint64_t> bytes_;
  std::unordered_map<TaskId, TaskDesc> descs_;
  std::vector<BlockId> fetches_;
  std::vector<BlockId> evicts_;
  std::vector<TaskId> running_;
  std::map<TaskId, int> run_count_;
};

class PolicyProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(PolicyProperty, ProtocolInvariantsHold) {
  const auto& sc = GetParam();

  sim::SyntheticWorkload::Params wp;
  wp.num_blocks = 96;
  wp.block_bytes = 1 * MiB;
  wp.tasks_per_iteration = 80;
  wp.deps_per_task = 3;
  wp.reuse = sc.reuse;
  wp.num_pes = 6;
  wp.num_iterations = 2;
  wp.seed = sc.seed;
  sim::SyntheticWorkload w(wp);

  PolicyEngine::Config cfg;
  cfg.strategy = sc.strategy;
  cfg.num_pes = wp.num_pes;
  // Tight budget: at most ~8 tasks' worth of blocks resident.
  cfg.fast_capacity = 24 * MiB;
  cfg.eager_evict = sc.eager;
  PolicyEngine eng(cfg);

  for (const auto& b : w.blocks()) eng.add_block(b.id, b.bytes);

  FuzzExecutor ex(eng, sc.seed * 7919 + 13, w.blocks());
  std::size_t expected_tasks = 0;
  Xoshiro256 mix(sc.seed + 1);
  for (int iter = 0; iter < w.iterations(); ++iter) {
    for (const auto& t : w.iteration_tasks(iter)) {
      ex.arrive(t);
      ++expected_tasks;
      // Randomly interleave progress with arrivals.
      while (mix.uniform() < 0.5 && ex.step()) {
      }
    }
    ex.drain();
  }

  // Completeness: every task ran exactly once.
  EXPECT_EQ(ex.run_count().size(), expected_tasks);
  for (const auto& [t, n] : ex.run_count()) {
    EXPECT_EQ(n, 1) << "task " << t << " ran " << n << " times";
  }

  // Quiescence: nothing waiting, nothing live, nothing in flight.
  EXPECT_TRUE(eng.quiescent());
  EXPECT_EQ(eng.total_waiting(), 0u);
  EXPECT_EQ(eng.inflight_fetches(), 0u);
  EXPECT_EQ(eng.inflight_evicts(), 0u);

  // Refcounts all returned to zero.
  for (const auto& b : w.blocks()) {
    EXPECT_EQ(eng.refcount(b.id), 0u) << "block " << b.id;
  }

  // Under eager eviction, quiescence implies an empty fast tier; under
  // lazy eviction the warm set must still respect the budget.
  if (sc.eager && strategy_moves_data(sc.strategy)) {
    EXPECT_EQ(eng.fast_used(), 0u);
  } else {
    EXPECT_LE(eng.fast_used(), cfg.fast_capacity);
  }
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> out;
  for (Strategy s : {Strategy::SingleIo, Strategy::SyncNoIo,
                     Strategy::MultiIo}) {
    for (bool eager : {true, false}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        for (double reuse : {0.0, 0.8}) {
          out.push_back(
              {.strategy = s, .eager = eager, .seed = seed, .reuse = reuse});
        }
      }
    }
  }
  // Static strategies: only eager flag irrelevant; include a couple to
  // cover the no-movement path under the same harness.
  out.push_back(
      {.strategy = Strategy::Naive, .eager = true, .seed = 4, .reuse = 0.5});
  out.push_back(
      {.strategy = Strategy::DdrOnly, .eager = true, .seed = 5, .reuse = 0.5});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolicyProperty,
                         ::testing::ValuesIn(all_scenarios()),
                         scenario_name);

} // namespace
} // namespace hmr::ooc
