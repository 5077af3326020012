#include "yarn/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"

namespace ckpt {
namespace {

// Scripted AM: records allocations and preemption events.
class FakeAm : public AppClient {
 public:
  void OnContainerAllocated(const Container& container) override {
    allocated.push_back(container);
  }
  void OnPreemptContainer(ContainerId id) override {
    preempted.push_back(id);
  }
  std::vector<Container> allocated;
  std::vector<ContainerId> preempted;
};

// A standalone RM over `nodes` 4-core/8 GiB nodes (four default containers
// each), for tests that need a config the fixture does not build.
struct Rig {
  Rig(const YarnConfig& config, int nodes) : cluster(&sim) {
    cluster.AddNodes(nodes, Resources{4.0, GiB(8)}, config.medium);
    std::vector<NodeManager*> nms;
    for (Node* node : cluster.nodes()) {
      managers.push_back(std::make_unique<NodeManager>(node));
      nms.push_back(managers.back().get());
    }
    rm = std::make_unique<ResourceManager>(&sim, nms, config);
  }
  Simulator sim;
  Cluster cluster;
  std::vector<std::unique_ptr<NodeManager>> managers;
  std::unique_ptr<ResourceManager> rm;
};

class RmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_nodes = 2;
    config_.containers_per_node = 4;
    config_.policy = PreemptionPolicy::kAdaptive;  // monitor enabled
    cluster_ = std::make_unique<Cluster>(&sim_);
    cluster_->AddNodes(config_.num_nodes,
                       Resources{4.0, GiB(8)}, config_.medium);
    std::vector<NodeManager*> nms;
    for (Node* node : cluster_->nodes()) {
      node_managers_.push_back(std::make_unique<NodeManager>(node));
      nms.push_back(node_managers_.back().get());
    }
    rm_ = std::make_unique<ResourceManager>(&sim_, nms, config_);
  }

  Simulator sim_;
  YarnConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<NodeManager>> node_managers_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(RmTest, AllocatesUpToCapacity) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 10);
  sim_.Run();
  // 2 nodes x 4 slots.
  EXPECT_EQ(am.allocated.size(), 8u);
  EXPECT_EQ(rm_->live_containers(), 8);
  EXPECT_EQ(rm_->pending_asks(), 2);
}

TEST_F(RmTest, HigherPriorityAskServedFirst) {
  FakeAm low, high;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  const AppId high_app = rm_->RegisterApp(&high, 9);
  // Fill the cluster minus one slot with filler, then race two asks.
  FakeAm filler;
  const AppId filler_app = rm_->RegisterApp(&filler, 5);
  rm_->RequestContainers(filler_app, 7);
  sim_.Run();
  rm_->RequestContainers(low_app, 1);
  rm_->RequestContainers(high_app, 1);
  sim_.Run();
  EXPECT_EQ(high.allocated.size(), 1u);
  EXPECT_EQ(low.allocated.size(), 0u);
}

TEST_F(RmTest, PreferredNodeHonoredWhenFree) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 1, NodeId(1));
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 1u);
  EXPECT_EQ(am.allocated[0].node, NodeId(1));
}

TEST_F(RmTest, PreferredNodeFallsBackWhenFull) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 4, NodeId(1));  // fill node 1
  sim_.Run();
  rm_->RequestContainers(app, 1, NodeId(1));
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 5u);
  EXPECT_EQ(am.allocated.back().node, NodeId(0));
}

TEST_F(RmTest, ReleaseRecyclesSlot) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 8);
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 8u);
  rm_->ReleaseContainer(am.allocated[0].id);
  rm_->RequestContainers(app, 1);
  sim_.Run();
  EXPECT_EQ(am.allocated.size(), 9u);
}

TEST_F(RmTest, MonitorPreemptsLowerPriorityWhenFull) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  ASSERT_EQ(low.allocated.size(), 8u);

  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 3);
  sim_.Run();
  // Three ContainerPreemptEvents dispatched to the low-priority AM.
  EXPECT_EQ(low.preempted.size(), 3u);
  EXPECT_EQ(rm_->preempt_events_sent(), 3);
  EXPECT_TRUE(high.allocated.empty());  // AM has not released yet

  // AM complies: slots free, high app gets them.
  for (ContainerId id : low.preempted) rm_->ReleaseContainer(id);
  sim_.Run();
  EXPECT_EQ(high.allocated.size(), 3u);
}

TEST_F(RmTest, MonitorDoesNotDuplicateEventsWhilePending) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 2);
  sim_.Run();
  EXPECT_EQ(low.preempted.size(), 2u);
  // More traffic does not re-preempt the same containers.
  rm_->RequestContainers(high_app, 0);
  sim_.Run();
  EXPECT_EQ(low.preempted.size(), 2u);
}

TEST_F(RmTest, NoPreemptionAgainstEqualOrHigherPriority) {
  FakeAm a;
  const AppId app_a = rm_->RegisterApp(&a, 9);
  rm_->RequestContainers(app_a, 8);
  sim_.Run();
  FakeAm b;
  const AppId app_b = rm_->RegisterApp(&b, 9);
  rm_->RequestContainers(app_b, 2);
  sim_.Run();
  EXPECT_TRUE(a.preempted.empty());
  EXPECT_TRUE(b.allocated.empty());
}

TEST_F(RmTest, WaitPolicyDisablesMonitor) {
  config_.policy = PreemptionPolicy::kWait;
  std::vector<NodeManager*> nms;
  for (auto& nm : node_managers_) nms.push_back(nm.get());
  ResourceManager rm(&sim_, nms, config_);
  FakeAm low;
  const AppId low_app = rm.RegisterApp(&low, 1);
  rm.RequestContainers(low_app, 8);
  sim_.Run();
  FakeAm high;
  const AppId high_app = rm.RegisterApp(&high, 9);
  rm.RequestContainers(high_app, 1);
  sim_.Run();
  EXPECT_TRUE(low.preempted.empty());
  EXPECT_EQ(rm.preempt_events_sent(), 0);
}

TEST_F(RmTest, CostAwareVictimsPreferIdleStorageNodes) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  // Back up node 0's device so its victims look expensive.
  cluster_->node(NodeId(0)).storage().SubmitWrite(GiB(20), nullptr);

  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 2);
  sim_.Run();
  ASSERT_EQ(low.preempted.size(), 2u);
  for (ContainerId id : low.preempted) {
    const Container* c = rm_->FindContainer(id);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->node, NodeId(1)) << "victim picked on the congested node";
  }
}

// Random churn through every ask and preempt-pending mutation site
// (RequestContainers, allocation, ReleaseContainer, UnregisterApp,
// OnNodeFailure/OnNodeRecovered). Each step ends in exactly one scheduling
// round, after which the monitor must have dispatched exactly
// unsatisfied - in_flight top-priority preemptions, capped only by the
// containers it may take. Both sides are rebuilt here from the AMs' records
// and FindContainer, not from the RM's own counters.
TEST(RmChurn, MonitorDispatchesUnsatisfiedMinusInFlight) {
  constexpr int kNodes = 4;
  const std::vector<int> priorities = {1, 3, 5, 9};
  for (PreemptionPolicy policy :
       {PreemptionPolicy::kKill, PreemptionPolicy::kAdaptive}) {
    SCOPED_TRACE(policy == PreemptionPolicy::kKill ? "kill" : "adaptive");
    YarnConfig config;
    config.policy = policy;
    Rig rig(config, kNodes);
    ResourceManager& rm = *rig.rm;
    std::mt19937 rng(policy == PreemptionPolicy::kKill ? 11 : 12);
    auto pick = [&rng](size_t n) {
      return static_cast<size_t>(rng() % n);
    };

    struct App {
      std::unique_ptr<FakeAm> am;
      AppId id;
      int priority = 0;
      std::int64_t requested = 0;
      bool registered = true;
    };
    std::vector<App> apps;
    auto add_app = [&] {
      App app;
      app.am = std::make_unique<FakeAm>();
      app.priority = priorities[pick(priorities.size())];
      app.id = rm.RegisterApp(app.am.get(), app.priority);
      apps.push_back(std::move(app));
    };
    for (int i = 0; i < 4; ++i) add_app();
    auto registered_app = [&]() -> App& {
      std::vector<size_t> live;
      for (size_t i = 0; i < apps.size(); ++i) {
        if (apps[i].registered) live.push_back(i);
      }
      return apps[live[pick(live.size())]];
    };

    int exact_rounds = 0;
    std::int64_t dispatched_total = 0;
    for (int step = 0; step < 800; ++step) {
      const int ops = 1 + static_cast<int>(pick(3));
      for (int op = 0; op < ops; ++op) {
        switch (pick(8)) {
          case 0:
          case 1: {
            App& app = registered_app();
            const int count = 1 + static_cast<int>(pick(4));
            const NodeId preferred =
                pick(3) == 0 ? NodeId(static_cast<std::int64_t>(pick(kNodes)))
                             : NodeId();
            rm.RequestContainers(app.id, count, preferred);
            app.requested += count;
            break;
          }
          case 2:
          case 3:
          case 4: {
            // Release a live container; preempted ones (the AM complying)
            // half of the time when there are any.
            std::vector<ContainerId> live, pending;
            for (const App& app : apps) {
              for (const Container& c : app.am->allocated) {
                if (rm.FindContainer(c.id) != nullptr) live.push_back(c.id);
              }
              for (ContainerId id : app.am->preempted) {
                if (rm.FindContainer(id) != nullptr) pending.push_back(id);
              }
            }
            if (!pending.empty() && pick(2) == 0) {
              rm.ReleaseContainer(pending[pick(pending.size())]);
            } else if (!live.empty()) {
              rm.ReleaseContainer(live[pick(live.size())]);
            }
            break;
          }
          case 5: {
            App& app = registered_app();
            rm.UnregisterApp(app.id);
            app.registered = false;
            add_app();
            break;
          }
          case 6: {
            const NodeId node(static_cast<std::int64_t>(pick(kNodes)));
            if (pick(3) == 0) {
              rm.OnNodeFailure(node);
            } else {
              rm.OnNodeRecovered(node);
            }
            break;
          }
          default:
            break;  // a quiet step: only the nudge below
        }
      }
      // Every step ends in one scheduling round (UnregisterApp alone does
      // not request one).
      rm.RequestContainers(apps.back().id, 0);

      // State the round starts from, after this step's mutations.
      std::map<ContainerId, Container> live_before;
      std::set<ContainerId> pending_before;
      std::map<ContainerId, bool> app_registered;
      for (const App& app : apps) {
        for (const Container& c : app.am->allocated) {
          if (rm.FindContainer(c.id) != nullptr) {
            live_before[c.id] = c;
            app_registered[c.id] = app.registered;
          }
        }
        for (ContainerId id : app.am->preempted) {
          if (rm.FindContainer(id) != nullptr) pending_before.insert(id);
        }
      }
      const std::int64_t sent_before = rm.preempt_events_sent();
      rig.sim.Run();
      const std::int64_t dispatched = rm.preempt_events_sent() - sent_before;
      dispatched_total += dispatched;

      // Outstanding asks after the round's allocation pass.
      std::int64_t outstanding = 0;
      std::map<int, std::int64_t> by_priority;
      for (const App& app : apps) {
        if (!app.registered) continue;
        const std::int64_t left =
            app.requested - static_cast<std::int64_t>(app.am->allocated.size());
        ASSERT_GE(left, 0);
        outstanding += left;
        if (left > 0) by_priority[app.priority] += left;
      }
      ASSERT_EQ(outstanding, rm.pending_asks()) << "step " << step;

      std::int64_t expected = 0;
      if (!by_priority.empty()) {
        const int top = by_priority.rbegin()->first;
        const std::int64_t unsatisfied = by_priority.rbegin()->second;
        const auto in_flight = static_cast<std::int64_t>(pending_before.size());
        // The dispatchable count does not depend on the ranking: each node
        // yields up to its remaining vacating room.
        std::vector<int> eligible(kNodes, 0), room(kNodes, 1 << 20);
        if (policy != PreemptionPolicy::kKill) {
          std::fill(room.begin(), room.end(), config.max_vacating_per_node);
          for (ContainerId id : pending_before) {
            room[static_cast<size_t>(live_before.at(id).node.value())]--;
          }
        }
        for (const auto& [id, c] : live_before) {
          if (c.priority < top && pending_before.count(id) == 0 &&
              app_registered.at(id)) {
            eligible[static_cast<size_t>(c.node.value())]++;
          }
        }
        std::int64_t dispatchable = 0;
        for (int n = 0; n < kNodes; ++n) {
          dispatchable += std::max(0, std::min(eligible[n], room[n]));
        }
        const std::int64_t want = unsatisfied - in_flight;
        expected = std::max<std::int64_t>(0, std::min(want, dispatchable));
        if (want > 0 && want <= dispatchable) ++exact_rounds;
      }
      ASSERT_EQ(dispatched, expected) << "step " << step;
    }

    std::int64_t received = 0;
    for (const App& app : apps) {
      received += static_cast<std::int64_t>(app.am->preempted.size());
    }
    EXPECT_EQ(received, dispatched_total);
    EXPECT_EQ(rm.preempt_events_sent(), dispatched_total);
    // The churn must reach the uncapped case the property is about.
    EXPECT_GE(exact_rounds, 10);
  }
}

// Cost-aware dispatch order equals a brute-force ranking rebuilt from
// FindContainer and DumpQueueDelay: cheapest estimated checkpoint first,
// equal costs youngest first, then by container id.
TEST(RmRanking, CostAwareDispatchOrderMatchesBruteForce) {
  YarnConfig config;
  config.policy = PreemptionPolicy::kKill;  // no vacating cap: all dispatch
  Rig rig(config, 4);
  FakeAm low;
  const AppId low_app = rig.rm->RegisterApp(&low, 1);
  // Four rounds at distinct times; each spreads one container per node, so
  // `started` ties within a round and differs across rounds.
  for (int round = 0; round < 4; ++round) {
    rig.rm->RequestContainers(low_app, 4);
    rig.sim.Run();
    rig.sim.ScheduleAfter(Seconds(5), [] {});
    rig.sim.Run();
  }
  ASSERT_EQ(low.allocated.size(), 16u);
  // Skewed backlog: node 1 heavy, node 3 light, nodes 0 and 2 idle so their
  // containers cost the same.
  rig.cluster.node(NodeId(1)).storage().SubmitWrite(GiB(20), nullptr);
  rig.cluster.node(NodeId(3)).storage().SubmitWrite(GiB(1), nullptr);

  struct Ref {
    SimDuration cost;
    SimTime started;
    std::int64_t id;
  };
  std::vector<Ref> ref;
  for (const Container& allocated : low.allocated) {
    const Container* c = rig.rm->FindContainer(allocated.id);
    ASSERT_NE(c, nullptr);
    const SimDuration cost =
        rig.rm->DumpQueueDelay(c->node) +
        rig.cluster.node(c->node).storage().EstimateWrite(c->size.memory);
    ref.push_back(Ref{cost, c->started, c->id.value()});
  }
  std::sort(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.cost, b.started, a.id) <
           std::tie(b.cost, a.started, b.id);
  });
  int started_ties = 0, id_ties = 0;
  for (size_t i = 1; i < ref.size(); ++i) {
    if (ref[i].cost != ref[i - 1].cost) continue;
    (ref[i].started == ref[i - 1].started ? id_ties : started_ties)++;
  }
  EXPECT_GT(started_ties, 0);
  EXPECT_GT(id_ties, 0);

  FakeAm high;
  rig.rm->RequestContainers(rig.rm->RegisterApp(&high, 9), 16);
  rig.sim.Run();
  std::vector<std::int64_t> want, got;
  for (const Ref& r : ref) want.push_back(r.id);
  for (ContainerId id : low.preempted) got.push_back(id.value());
  EXPECT_EQ(got, want);
}

// Capacity mode with production and batch asks outstanding together: the
// monitor reclaims min(deficit, unsatisfied, surplus) containers from the
// queue over its guarantee, never more while reclaims are in flight.
TEST(RmCapacity, MonitorReclaimsMinOfDeficitUnsatisfiedSurplus) {
  YarnConfig config;
  config.scheduling_mode = SchedulingMode::kCapacity;
  config.policy = PreemptionPolicy::kKill;  // no vacating cap
  config.production_guarantee = 0.5;
  auto all_batch = [](const FakeAm& batch, const FakeAm& other) {
    for (ContainerId id : batch.preempted) {
      if (std::none_of(batch.allocated.begin(), batch.allocated.end(),
                       [id](const Container& c) { return c.id == id; })) {
        return false;
      }
    }
    return other.preempted.empty();
  };

  {
    // 12 slots, 6 guaranteed per queue; batch borrowed all of them.
    Rig rig(config, 3);
    ResourceManager& rm = *rig.rm;
    FakeAm batch, prod;
    const AppId batch_app = rm.RegisterApp(&batch, 1);
    rm.RequestContainers(batch_app, 12);
    rig.sim.Run();
    ASSERT_EQ(batch.allocated.size(), 12u);

    // Production asks at two priorities plus more batch asks.
    FakeAm prod_hi;
    rm.RequestContainers(rm.RegisterApp(&prod, 9), 3);
    rm.RequestContainers(rm.RegisterApp(&prod_hi, 11), 2);
    rm.RequestContainers(rm.RegisterApp(&batch, 3), 2);
    rig.sim.Run();
    // deficit 6, unsatisfied 5, surplus 6: unsatisfied binds.
    EXPECT_EQ(rm.preempt_events_sent(), 5);
    EXPECT_TRUE(all_batch(batch, prod));
    EXPECT_TRUE(prod_hi.preempted.empty());

    for (ContainerId id : batch.preempted) rm.ReleaseContainer(id);
    rig.sim.Run();
    EXPECT_EQ(prod.allocated.size() + prod_hi.allocated.size(), 5u);
    EXPECT_EQ(rm.pending_asks(), 2);  // the batch asks

    // Production 5/6, batch 7/6: deficit 1 = surplus 1 < unsatisfied 4.
    rm.RequestContainers(rm.RegisterApp(&prod, 10), 4);
    rig.sim.Run();
    EXPECT_EQ(rm.preempt_events_sent(), 6);
    // The reclaim in flight leaves no surplus: no second event.
    rm.RequestContainers(rm.RegisterApp(&prod, 9), 1);
    rig.sim.Run();
    EXPECT_EQ(rm.preempt_events_sent(), 6);
  }

  {
    // Losing a node shrinks the surplus below the deficit.
    Rig rig(config, 3);
    ResourceManager& rm = *rig.rm;
    FakeAm batch, prod;
    rm.RequestContainers(rm.RegisterApp(&batch, 1), 12);
    rig.sim.Run();
    rm.OnNodeFailure(NodeId(2));
    rig.sim.Run();
    ASSERT_EQ(rm.live_containers(), 8);
    rm.RequestContainers(rm.RegisterApp(&prod, 9), 5);
    rm.RequestContainers(rm.RegisterApp(&batch, 3), 1);
    rig.sim.Run();
    // deficit 6, unsatisfied 5, surplus 8 - 6 = 2: surplus binds.
    EXPECT_EQ(rm.preempt_events_sent(), 2);
    EXPECT_TRUE(all_batch(batch, prod));
    rm.RequestContainers(rm.RegisterApp(&prod, 11), 1);
    rig.sim.Run();
    EXPECT_EQ(rm.preempt_events_sent(), 2);
  }
}

}  // namespace
}  // namespace ckpt
