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

// The scheduler refreshes a leaf's placement half alone before placement
// probes and the whole leaf before preemption queries; the two families
// must stay exact under any interleaving of the two kinds of update.
TEST(FeasibilityIndexProperty, PlaceOnlyUpdatesKeepBothFamiliesExact) {
  for (const size_t n : {1u, 5u, 33u, 100u}) {
    Rng rng(2000 + n);
    FeasibilityIndex index;
    index.Reset(n);
    std::vector<FeasibilityAgg> leaves(n);
    for (size_t i = 0; i < n; ++i) {
      leaves[i] = RandomAgg(rng);
      index.Update(i, leaves[i]);
    }
    for (int step = 0; step < 2000; ++step) {
      const size_t leaf = static_cast<size_t>(rng.UniformInt(0, n - 1));
      if (rng.Bernoulli(0.5)) {
        leaves[leaf].place = RandomAgg(rng).place;
        index.UpdatePlace(leaf, leaves[leaf].place);
      } else {
        leaves[leaf] = RandomAgg(rng);
        index.Update(leaf, leaves[leaf]);
      }
      const size_t cursor = static_cast<size_t>(rng.UniformInt(0, n - 1));
      const Resources demand{static_cast<double>(rng.UniformInt(1, 12)),
                             GiB(rng.UniformInt(1, 48))};
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
          << "n=" << n << " step=" << step << " priority=" << priority;
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
