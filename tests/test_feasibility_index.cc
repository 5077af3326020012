// The feasibility index must be an invisible optimization: every query
// returns exactly the leaf the linear rotation scan picks, under any
// sequence of place / preempt / finish / crash mutations. Two layers of
// evidence:
//
//  - index-level property tests drive random aggregate mutations and
//    compare FindPlace/FindPreempt against a brute-force reference on
//    every step;
//  - scheduler-level tests run the same workload with the index on and
//    off and require identical simulation results, including under
//    mid-sweep node crashes and with node-pinned (image-bound) restores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "scheduler/cluster_scheduler.h"
#include "scheduler/feasibility_index.h"
#include "sim/simulator.h"
#include "trace/google_trace.h"

namespace ckpt {
namespace {

// Brute-force reference: the scheduler's circular first-fit scan over the
// raw per-leaf aggregates.
size_t LinearFind(const std::vector<FeasibilityAgg>& leaves, size_t cursor,
                  const Resources& demand, int priority) {
  const size_t n = leaves.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t at = (cursor + i) % n;
    const Resources& have = priority < 0
                                ? leaves[at].place
                                : leaves[at].preempt[static_cast<size_t>(priority)];
    if (demand.FitsIn(have)) return at;
  }
  return FeasibilityIndex::npos;
}

FeasibilityAgg RandomAgg(Rng& rng) {
  FeasibilityAgg agg;
  agg.place = Resources{static_cast<double>(rng.UniformInt(0, 16)),
                        GiB(rng.UniformInt(0, 64))};
  Resources cum = agg.place;
  for (size_t p = 0; p < agg.preempt.size(); ++p) {
    agg.preempt[p] = cum;
    cum += Resources{static_cast<double>(rng.UniformInt(0, 4)),
                     GiB(rng.UniformInt(0, 8))};
  }
  return agg;
}

TEST(FeasibilityIndexProperty, MatchesLinearScanUnderRandomMutations) {
  for (const size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 100u}) {
    Rng rng(1000 + n);
    FeasibilityIndex index;
    index.Reset(n);
    std::vector<FeasibilityAgg> leaves(n);
    for (size_t i = 0; i < n; ++i) {
      leaves[i] = RandomAgg(rng);
      index.Update(i, leaves[i]);
    }
    for (int step = 0; step < 2000; ++step) {
      // Mutate a random leaf: place/finish/preempt all reduce to "the
      // aggregate changed"; crash zeroes it (offline Available() is empty).
      const size_t victim = static_cast<size_t>(rng.UniformInt(0, n - 1));
      if (rng.Bernoulli(0.1)) {
        leaves[victim] = FeasibilityAgg{};  // crash
      } else {
        leaves[victim] = RandomAgg(rng);
      }
      index.Update(victim, leaves[victim]);

      const size_t cursor = static_cast<size_t>(rng.UniformInt(0, n - 1));
      const Resources demand{static_cast<double>(rng.UniformInt(1, 12)),
                             GiB(rng.UniformInt(1, 48))};
      // priority < 0 queries the placement family; 0..11 the preempt one.
      const int priority = static_cast<int>(rng.UniformInt(0, 12)) - 1;

      size_t got;
      if (priority < 0) {
        got = index.FindPlace(cursor, demand, [&](size_t i) {
          return demand.FitsIn(leaves[i].place);
        });
      } else {
        got = index.FindPreempt(
            cursor, static_cast<size_t>(priority), demand, [&](size_t i) {
              return demand.FitsIn(
                  leaves[i].preempt[static_cast<size_t>(priority)]);
            });
      }
      ASSERT_EQ(got, LinearFind(leaves, cursor, demand, priority))
          << "n=" << n << " step=" << step << " cursor=" << cursor
          << " priority=" << priority;
    }
  }
}

// The scheduler's contract with the index: leaves are exact (Available()
// plus the releasable demand below p, kept by AddReleasable and
// RemoveReleasable), the place maxima above them are exact, and the
// preempt aggregates above them are upper bounds that a flush
// (RaisePreempt on every touched leaf) raises and a failing FindPreempt
// tightens. A model of each node's Available() and running tasks drives
// random interleavings of place updates, task starts and stops at random
// priorities, whole-leaf overwrites, crashes, flushes and queries. After
// every step each leaf must equal the model, and every internal node must
// hold the exact place max and dominate the preempt values of each leaf
// under it that has been flushed since it last changed. Every query must
// return what a linear scan over the model returns, and a preemption search
// that fails at every leaf on one component must leave the root rejecting
// its demand.
TEST(FeasibilityIndexProperty, UpperBoundsAnswerLikeExactLeaves) {
  struct Task {
    size_t priority;
    Resources demand;
  };
  constexpr size_t kPriorities = FeasibilityAgg::kPriorities;
  for (const size_t n : {1u, 2u, 3u, 5u, 17u, 33u, 64u, 100u}) {
    Rng rng(3000 + n);
    FeasibilityIndex index;
    index.Reset(n);
    std::vector<Resources> place(n);
    std::vector<std::vector<Task>> running(n);
    // Leaves touched since the last flush, as in the scheduler's list.
    std::vector<bool> stale(n, false);

    auto random_place = [&rng] {
      return Resources{static_cast<double>(rng.UniformInt(0, 16)),
                       GiB(rng.UniformInt(0, 64))};
    };
    auto exact = [&](size_t i, size_t p) {
      Resources r = place[i];
      for (const Task& t : running[i]) {
        if (t.priority < p) r += t.demand;
      }
      return r;
    };
    auto random_task = [&rng] {
      return Task{static_cast<size_t>(rng.UniformInt(0, 11)),
                  Resources{static_cast<double>(rng.UniformInt(0, 4)),
                            GiB(rng.UniformInt(0, 8))}};
    };
    auto start = [&](size_t i) {
      const Task t = random_task();
      running[i].push_back(t);
      index.AddReleasable(i, t.priority, t.demand);
    };
    auto stop = [&](size_t i, size_t k) {
      const Task t = running[i][k];
      running[i].erase(running[i].begin() + static_cast<std::ptrdiff_t>(k));
      index.RemoveReleasable(i, t.priority, t.demand);
      if (running[i].empty()) index.ClearReleasable(i);
    };
    auto flush = [&] {
      for (size_t i = 0; i < n; ++i) {
        if (stale[i]) index.RaisePreempt(i);
        stale[i] = false;
      }
    };
    auto linear = [&](size_t cursor, const Resources& demand, int priority) {
      for (size_t k = 0; k < n; ++k) {
        const size_t at = (cursor + k) % n;
        const Resources have =
            priority < 0 ? place[at] : exact(at, static_cast<size_t>(priority));
        if (demand.FitsIn(have)) return at;
      }
      return FeasibilityIndex::npos;
    };
    auto find_preempt = [&](size_t cursor, size_t p, const Resources& demand) {
      flush();  // the scheduler flushes before every preemption query
      return index.FindPreempt(cursor, p, demand, [&](size_t i) {
        return demand.FitsIn(exact(i, p));
      });
    };
    auto check_tree = [&](int step) {
      const size_t cap = index.capacity();
      for (size_t i = 0; i < n; ++i) {
        const FeasibilityAgg& leaf = index.At(cap + i);
        ASSERT_EQ(leaf.place, place[i]) << "leaf " << i << " step " << step;
        for (size_t p = 0; p < kPriorities; ++p) {
          ASSERT_EQ(leaf.place + leaf.preempt[p], exact(i, p))
              << "leaf " << i << " p " << p << " step " << step;
        }
      }
      for (size_t pos = cap - 1; pos >= 1; --pos) {
        const Resources& l = index.At(2 * pos).place;
        const Resources& r = index.At(2 * pos + 1).place;
        ASSERT_EQ(index.At(pos).place,
                  (Resources{std::max(l.cpus, r.cpus),
                             std::max(l.memory, r.memory)}))
            << "node " << pos << " step " << step;
      }
      for (size_t i = 0; i < n; ++i) {
        if (stale[i]) continue;
        for (size_t pos = (cap + i) / 2; pos >= 1; pos /= 2) {
          for (size_t p = 0; p < kPriorities; ++p) {
            const Resources& bound = index.At(pos).preempt[p];
            const Resources have = exact(i, p);
            ASSERT_GE(bound.cpus, have.cpus)
                << "node " << pos << " leaf " << i << " p " << p << " step "
                << step;
            ASSERT_GE(bound.memory, have.memory)
                << "node " << pos << " leaf " << i << " p " << p << " step "
                << step;
          }
        }
      }
    };

    for (size_t i = 0; i < n; ++i) {
      place[i] = random_place();
      index.UpdatePlace(i, place[i]);
      for (int k = rng.UniformInt(0, 3); k > 0; --k) start(i);
      stale[i] = true;
    }
    flush();
    for (int step = 0; step < 3000; ++step) {
      const size_t leaf = static_cast<size_t>(rng.UniformInt(0, n - 1));
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      if (op < 20) {  // Available() moves: an allocation or a release
        place[leaf] = random_place();
        index.UpdatePlace(leaf, place[leaf]);
        stale[leaf] = true;
      } else if (op < 35) {  // a task enters kRunning
        start(leaf);
        stale[leaf] = true;
      } else if (op < 50) {  // a task leaves kRunning
        if (!running[leaf].empty()) {
          stop(leaf, static_cast<size_t>(rng.UniformInt(
                         0, static_cast<std::int64_t>(running[leaf].size()) -
                                1)));
        }
        stale[leaf] = true;
      } else if (op < 55) {  // crash: offline, every task stopped
        place[leaf] = Resources{};
        index.UpdatePlace(leaf, place[leaf]);
        while (!running[leaf].empty()) stop(leaf, running[leaf].size() - 1);
        stale[leaf] = true;
      } else if (op < 60) {  // whole-leaf overwrite, as Update promises
        place[leaf] = random_place();
        running[leaf].clear();
        for (int k = rng.UniformInt(0, 3); k > 0; --k) {
          running[leaf].push_back(random_task());
        }
        FeasibilityAgg agg;
        agg.place = place[leaf];
        for (size_t p = 0; p < kPriorities; ++p) agg.preempt[p] = exact(leaf, p);
        index.Update(leaf, agg);
        stale[leaf] = false;
      } else if (op < 65) {
        flush();
      } else if (op < 90) {  // a query against the linear scan
        const size_t cursor = static_cast<size_t>(rng.UniformInt(0, n - 1));
        const Resources demand{static_cast<double>(rng.UniformInt(1, 12)),
                               GiB(rng.UniformInt(1, 48))};
        const int priority = static_cast<int>(rng.UniformInt(0, 12)) - 1;
        size_t got;
        if (priority < 0) {
          got = index.FindPlace(cursor, demand, [&](size_t i) {
            return demand.FitsIn(place[i]);
          });
        } else {
          got = find_preempt(cursor, static_cast<size_t>(priority), demand);
        }
        ASSERT_EQ(got, linear(cursor, demand, priority))
            << "n=" << n << " step=" << step << " cursor=" << cursor
            << " priority=" << priority;
      } else {  // a demand every leaf fails on one component only
        const size_t p = static_cast<size_t>(rng.UniformInt(0, 11));
        Resources lo = exact(0, p);
        Resources hi = lo;
        for (size_t i = 1; i < n; ++i) {
          const Resources have = exact(i, p);
          lo = {std::min(lo.cpus, have.cpus), std::min(lo.memory, have.memory)};
          hi = {std::max(hi.cpus, have.cpus), std::max(hi.memory, have.memory)};
        }
        const Resources demand = rng.Bernoulli(0.5)
                                     ? Resources{hi.cpus + 1, lo.memory}
                                     : Resources{lo.cpus, hi.memory + 1};
        const size_t cursor = static_cast<size_t>(rng.UniformInt(0, n - 1));
        ASSERT_EQ(find_preempt(cursor, p, demand), FeasibilityIndex::npos);
        ASSERT_FALSE(demand.FitsIn(index.Root().preempt[p]))
            << "n=" << n << " step=" << step << " p=" << p;
      }
      check_tree(step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FeasibilityIndexProperty, CrashedLeavesAreNeverReturned) {
  Rng rng(7);
  const size_t n = 50;
  FeasibilityIndex index;
  index.Reset(n);
  std::vector<FeasibilityAgg> leaves(n);
  std::vector<bool> dead(n, false);
  for (size_t i = 0; i < n; ++i) {
    leaves[i] = RandomAgg(rng);
    index.Update(i, leaves[i]);
  }
  for (int step = 0; step < 500; ++step) {
    const size_t victim = static_cast<size_t>(rng.UniformInt(0, n - 1));
    dead[victim] = true;
    leaves[victim] = FeasibilityAgg{};
    index.Update(victim, leaves[victim]);
    const Resources demand{1.0, GiB(1)};
    const size_t got = index.FindPlace(
        static_cast<size_t>(rng.UniformInt(0, n - 1)), demand,
        [&](size_t i) { return demand.FitsIn(leaves[i].place); });
    if (got != FeasibilityIndex::npos) {
      EXPECT_FALSE(dead[got]) << "index returned crashed node " << got;
    }
  }
}

TEST(FeasibilityIndexEdge, EmptyAndSingleLeaf) {
  FeasibilityIndex index;
  index.Reset(0);
  const Resources demand{1.0, GiB(1)};
  EXPECT_EQ(index.FindPlace(0, demand, [](size_t) { return true; }),
            FeasibilityIndex::npos);

  index.Reset(1);
  FeasibilityAgg agg;
  agg.place = Resources{2.0, GiB(4)};
  index.Update(0, agg);
  EXPECT_EQ(index.FindPlace(0, demand, [](size_t) { return true; }), 0u);
  const Resources too_big{4.0, GiB(1)};
  EXPECT_EQ(index.FindPlace(0, too_big, [](size_t) { return true; }),
            FeasibilityIndex::npos);
}

// The scheduler calls ClearReleasable when a node's last task detaches:
// float residue of the cpus sums is dropped, and demand still counted on
// an idle leaf (a kRunning transition that skipped its update) aborts.
TEST(FeasibilityIndexDeathTest, ClearReleasableChecksIdleLeaves) {
  FeasibilityIndex index;
  index.Reset(2);
  const FeasibilityAgg& leaf = index.At(index.capacity());
  index.AddReleasable(0, 3, Resources{0.1, GiB(1)});
  index.AddReleasable(0, 3, Resources{0.2, 0});
  index.RemoveReleasable(0, 3, Resources{0.1, GiB(1)});
  index.RemoveReleasable(0, 3, Resources{0.2, 0});
  EXPECT_NE(leaf.preempt[4].cpus, 0.0);  // (0.1 + 0.2) - 0.1 - 0.2
  index.ClearReleasable(0);
  for (const Resources& sum : leaf.preempt) EXPECT_EQ(sum, Resources{});

  index.AddReleasable(1, 0, Resources{1.0, GiB(1)});
  EXPECT_DEATH(index.ClearReleasable(1), "left on idle leaf 1");
}

// --- Scheduler-level equivalence -------------------------------------------

Workload ContentiousWorkload(std::uint64_t seed) {
  GoogleTraceConfig config;
  config.sample_jobs = 150;
  config.seed = seed;
  Workload workload = GoogleTraceGenerator(config).GenerateWorkloadSample();
  for (JobSpec& job : workload.jobs) job.submit_time /= 12;
  return workload;
}

SimulationResult RunWith(const Workload& workload, SchedulerConfig config,
                         bool use_index, int nodes = 6) {
  config.use_feasibility_index = use_index;
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(nodes, Resources{16.0, GiB(64)}, config.medium);
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  return scheduler.Run();
}

void ExpectIdentical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sched_decisions, b.sched_decisions);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.local_restores, b.local_restores);
  EXPECT_EQ(a.remote_restores, b.remote_restores);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_DOUBLE_EQ(a.wasted_core_hours, b.wasted_core_hours);
  EXPECT_DOUBLE_EQ(a.energy_kwh, b.energy_kwh);
}

class IndexEquivalence : public ::testing::TestWithParam<PreemptionPolicy> {};

TEST_P(IndexEquivalence, SameResultsAsLinearScan) {
  const Workload workload = ContentiousWorkload(61);
  SchedulerConfig config;
  config.policy = GetParam();
  config.medium = StorageMedium::Ssd();
  ExpectIdentical(RunWith(workload, config, true),
                  RunWith(workload, config, false));
}

TEST_P(IndexEquivalence, SameResultsWithLatencyGuard) {
  const Workload workload = ContentiousWorkload(62);
  SchedulerConfig config;
  config.policy = GetParam();
  config.medium = StorageMedium::Nvm();
  config.protect_latency_class_at_least = 2;
  ExpectIdentical(RunWith(workload, config, true),
                  RunWith(workload, config, false));
}

// Image-bound edge case: with a local-only store (no DFS), a preempted
// task can only restore on the node that dumped it, which exercises the
// direct single-node probe next to the indexed search.
TEST_P(IndexEquivalence, SameResultsWhenImagesAreNodeBound) {
  const Workload workload = ContentiousWorkload(63);
  SchedulerConfig config;
  config.policy = GetParam();
  config.medium = StorageMedium::Ssd();
  config.checkpoint_to_dfs = false;
  ExpectIdentical(RunWith(workload, config, true),
                  RunWith(workload, config, false));
}

// Regression for the crash path: killing nodes mid-sweep must update the
// index (the scheduler may never place work on a dead node), and both
// executions must still agree decision for decision.
TEST_P(IndexEquivalence, SameResultsUnderMidSweepNodeCrashes) {
  const Workload workload = ContentiousWorkload(64);
  SchedulerConfig config;
  config.policy = GetParam();
  config.medium = StorageMedium::Ssd();
  config.fault.node_crashes.push_back({NodeId(2), Hours(1), /*down_for=*/-1});
  config.fault.node_crashes.push_back(
      {NodeId(4), Hours(2), /*down_for=*/Hours(1)});
  const SimulationResult on = RunWith(workload, config, true, 8);
  const SimulationResult off = RunWith(workload, config, false, 8);
  EXPECT_EQ(on.node_failures, 2);
  ExpectIdentical(on, off);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, IndexEquivalence,
                         ::testing::Values(PreemptionPolicy::kKill,
                                           PreemptionPolicy::kCheckpoint,
                                           PreemptionPolicy::kAdaptive));

}  // namespace
}  // namespace ckpt
