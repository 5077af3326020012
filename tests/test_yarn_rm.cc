#include "yarn/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "obs/observability.h"

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

// The churn tests' cluster: four 4-slot nodes.
constexpr int kChurnNodes = 4;

// What one churn round starts from, rebuilt from the fake AMs' records and
// FindContainer rather than from the RM's own counters: the live
// containers, the ones asked to vacate, whether each one's app is still
// registered, and the asks still outstanding after the round's allocation
// pass. `live_after` also holds the containers that pass allocated.
struct ChurnRound {
  std::map<ContainerId, Container> live_before;
  std::set<ContainerId> pending_before;
  std::map<ContainerId, bool> app_registered;
  std::map<ContainerId, Container> live_after;
  std::map<int, std::int64_t> asks_by_priority;
};

// How many notices one walk can send: each node yields up to its remaining
// vacating room (unbounded under kill) of the containers that satisfy
// `eligible`, are not yet asked to vacate and whose app is registered. The
// count does not depend on the ranking.
template <typename Pred>
std::int64_t Dispatchable(const ChurnRound& round, PreemptionPolicy policy,
                          Pred eligible) {
  std::vector<int> candidates(kChurnNodes, 0);
  std::vector<int> room(kChurnNodes, 1 << 20);
  if (policy != PreemptionPolicy::kKill) {
    std::fill(room.begin(), room.end(), kMaxVacatingPerNode);
    for (ContainerId id : round.pending_before) {
      room[static_cast<size_t>(round.live_before.at(id).node.value())]--;
    }
  }
  for (const auto& [id, c] : round.live_before) {
    if (eligible(c) && round.pending_before.count(id) == 0 &&
        round.app_registered.at(id)) {
      candidates[static_cast<size_t>(c.node.value())]++;
    }
  }
  std::int64_t dispatchable = 0;
  for (size_t n = 0; n < candidates.size(); ++n) {
    dispatchable += std::max(0, std::min(candidates[n], room[n]));
  }
  return dispatchable;
}

// Random churn through every ask, live-container and preempt-pending
// mutation site (RequestContainers, allocation, ReleaseContainer,
// UnregisterApp, OnNodeFailure/OnNodeRecovered). Each
// step ends in exactly one scheduling round, after which the RM must have
// sent exactly `expected(round)` preemption notices.
template <typename Expected>
void RunChurn(const YarnConfig& config, std::uint32_t seed, int steps,
              const std::vector<int>& priorities, Expected expected) {
  Rig rig(config, kChurnNodes);
  ResourceManager& rm = *rig.rm;
  std::mt19937 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

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

  std::int64_t dispatched_total = 0;
  for (int step = 0; step < steps; ++step) {
    const int ops = 1 + static_cast<int>(pick(3));
    for (int op = 0; op < ops; ++op) {
      switch (pick(8)) {
        case 0:
        case 1: {
          App& app = registered_app();
          const int count = 1 + static_cast<int>(pick(4));
          const NodeId preferred =
              pick(3) == 0
                  ? NodeId(static_cast<std::int64_t>(pick(kChurnNodes)))
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
          const NodeId node(static_cast<std::int64_t>(pick(kChurnNodes)));
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
    ChurnRound round;
    for (const App& app : apps) {
      for (const Container& c : app.am->allocated) {
        if (rm.FindContainer(c.id) != nullptr) {
          round.live_before[c.id] = c;
          round.app_registered[c.id] = app.registered;
        }
      }
      for (ContainerId id : app.am->preempted) {
        if (rm.FindContainer(id) != nullptr) round.pending_before.insert(id);
      }
    }
    const std::int64_t sent_before = rm.preempt_events_sent();
    rig.sim.Run();
    const std::int64_t dispatched = rm.preempt_events_sent() - sent_before;
    dispatched_total += dispatched;

    // Outstanding asks and live containers after the round's allocation
    // pass (the round releases nothing).
    std::int64_t outstanding = 0;
    for (const App& app : apps) {
      for (const Container& c : app.am->allocated) {
        if (rm.FindContainer(c.id) != nullptr) round.live_after[c.id] = c;
      }
      if (!app.registered) continue;
      const std::int64_t left =
          app.requested - static_cast<std::int64_t>(app.am->allocated.size());
      ASSERT_GE(left, 0);
      outstanding += left;
      if (left > 0) round.asks_by_priority[app.priority] += left;
    }
    ASSERT_EQ(outstanding, rm.pending_asks()) << "step " << step;
    ASSERT_EQ(static_cast<int>(round.live_after.size()), rm.live_containers())
        << "step " << step;
    ASSERT_EQ(dispatched, expected(round)) << "step " << step;
  }

  std::int64_t received = 0;
  for (const App& app : apps) {
    received += static_cast<std::int64_t>(app.am->preempted.size());
  }
  EXPECT_EQ(received, dispatched_total);
  EXPECT_EQ(rm.preempt_events_sent(), dispatched_total);
}

// Priority mode: the monitor dispatches exactly unsatisfied - in_flight
// top-priority preemptions, capped only by the containers it may take.
TEST(RmChurn, MonitorDispatchesUnsatisfiedMinusInFlight) {
  for (PreemptionPolicy policy :
       {PreemptionPolicy::kKill, PreemptionPolicy::kAdaptive}) {
    SCOPED_TRACE(policy == PreemptionPolicy::kKill ? "kill" : "adaptive");
    YarnConfig config;
    config.policy = policy;
    int exact_rounds = 0;
    RunChurn(config, policy == PreemptionPolicy::kKill ? 11 : 12, 800,
             {1, 3, 5, 9}, [&](const ChurnRound& round) -> std::int64_t {
               if (round.asks_by_priority.empty()) return 0;
               const int top = round.asks_by_priority.rbegin()->first;
               const std::int64_t want =
                   round.asks_by_priority.rbegin()->second -
                   static_cast<std::int64_t>(round.pending_before.size());
               const std::int64_t dispatchable = Dispatchable(
                   round, policy,
                   [top](const Container& c) { return c.priority < top; });
               if (want > 0 && want <= dispatchable) ++exact_rounds;
               return std::max<std::int64_t>(0, std::min(want, dispatchable));
             });
    // The churn must reach the uncapped case the property is about.
    EXPECT_GE(exact_rounds, 10);
  }
}

// Capacity mode: production first, then batch, the first queue with
// want = min(deficit, unsatisfied, surplus) > 0 reclaims min(want,
// dispatchable) containers from the other queue. Deficit and surplus are
// counted after the round's allocation pass, and a surplus excludes the
// other queue's containers already asked to vacate. Whenever want > 0 that
// pass placed no container of the other queue, so the victims are all
// among the containers live before the round.
TEST(RmChurn, CapacityMonitorReclaimsTheFirstQueueWithAWant) {
  auto queue_of = [](int priority) { return priority >= 9 ? 1 : 0; };
  for (PreemptionPolicy policy :
       {PreemptionPolicy::kKill, PreemptionPolicy::kAdaptive}) {
    SCOPED_TRACE(policy == PreemptionPolicy::kKill ? "kill" : "adaptive");
    // Rounds in which each queue reclaims, over all three guarantees: a
    // small guarantee makes the production queue's rare, a large one the
    // batch queue's.
    std::array<int, 2> reclaims{};
    for (double guarantee : {0.3, 0.5, 0.7}) {
      SCOPED_TRACE(::testing::Message() << "guarantee " << guarantee);
      YarnConfig config;
      config.scheduling_mode = SchedulingMode::kCapacity;
      config.policy = policy;
      config.production_guarantee = guarantee;
      // The RM rounds the production share to whole slots.
      constexpr int kSlots = 4 * kChurnNodes;
      const int production = static_cast<int>(kSlots * guarantee + 0.5);
      const std::array<std::int64_t, 2> guaranteed = {kSlots - production,
                                                      production};
      int exact_rounds = 0;
      RunChurn(
          config, policy == PreemptionPolicy::kKill ? 21 : 22, 1500,
          {1, 3, 9, 11}, [&](const ChurnRound& round) -> std::int64_t {
            std::array<std::int64_t, 2> usage{}, unsatisfied{}, pending{};
            for (const auto& [id, c] : round.live_after) {
              usage[static_cast<size_t>(queue_of(c.priority))]++;
            }
            for (const auto& [priority, count] : round.asks_by_priority) {
              unsatisfied[static_cast<size_t>(queue_of(priority))] += count;
            }
            for (ContainerId id : round.pending_before) {
              pending[static_cast<size_t>(
                  queue_of(round.live_before.at(id).priority))]++;
            }
            for (const size_t queue : {size_t{1}, size_t{0}}) {
              const size_t other = 1 - queue;
              const std::int64_t want = std::min(
                  {guaranteed[queue] - usage[queue], unsatisfied[queue],
                   usage[other] - guaranteed[other] - pending[other]});
              if (want <= 0) continue;
              const std::int64_t dispatchable = Dispatchable(
                  round, policy, [&](const Container& c) {
                    return static_cast<size_t>(queue_of(c.priority)) == other;
                  });
              reclaims[queue]++;
              if (want <= dispatchable) ++exact_rounds;
              return std::min(want, dispatchable);
            }
            return 0;
          });
      EXPECT_GE(exact_rounds, 10);
    }
    // The churn must reach both queues' reclaims.
    EXPECT_GE(reclaims[0], 10);
    EXPECT_GE(reclaims[1], 10);
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

// Preemption rounds on a full 2-node adaptive rig: eight priority-1
// containers, then one round per entry of `asks`, each adding that many
// priority-9 asks; the low AM never releases. Equal-cost victims rank by
// id, and allocation alternates nodes, so the ranking alternates nodes too.
struct DispatchRound {
  std::vector<ContainerId> preempted;
  std::int64_t sent = 0;
};

DispatchRound RunDispatchRounds(const std::vector<int>& asks,
                                Observability* obs) {
  YarnConfig config;
  config.policy = PreemptionPolicy::kAdaptive;
  config.obs = obs;
  Rig rig(config, 2);
  FakeAm low, high;
  rig.rm->RequestContainers(rig.rm->RegisterApp(&low, 1), 8);
  rig.sim.Run();
  const AppId high_app = rig.rm->RegisterApp(&high, 9);
  for (int count : asks) {
    rig.rm->RequestContainers(high_app, count);
    rig.sim.Run();
  }
  return {low.preempted, rig.rm->preempt_events_sent()};
}

std::vector<AuditRecord> DispatchRecords(const Observability& obs) {
  std::vector<AuditRecord> records;
  for (std::size_t i = 0; i < obs.audit().size(); ++i) {
    AuditRecord record = obs.audit().record(i);
    if (record.kind == "rm_preempt_dispatch") {
      records.push_back(std::move(record));
    }
  }
  return records;
}

const TraceArg& Arg(const TraceArgs& args, std::string_view key) {
  for (const TraceArg& arg : args) {
    if (arg.key == key) return arg;
  }
  ADD_FAILURE() << "no arg " << key;
  static const TraceArg kMissing{};
  return kMissing;
}

// Quota 8, cap 2 per node: four victims are dispatched and the other four
// are passed over at the cap, which the audit records as one row per node.
TEST(RmDispatchAudit, OneRowPerCappedNode) {
  Observability obs;
  const DispatchRound traced = RunDispatchRounds({8}, &obs);
  const DispatchRound plain = RunDispatchRounds({8}, nullptr);
  EXPECT_EQ(traced.preempted, plain.preempted);
  EXPECT_EQ(traced.sent, plain.sent);
  EXPECT_EQ(plain.sent, 4);

  const std::vector<AuditRecord> records = DispatchRecords(obs);
  ASSERT_EQ(records.size(), 1u);
  const AuditRecord& record = records[0];
  EXPECT_EQ(Arg(record.args, "considered").num, 8);
  EXPECT_EQ(Arg(record.args, "dispatched").num, 4);
  EXPECT_EQ(Arg(record.args, "quota_filled").num, 0);
  // Rows in rank order: each node's two dispatched victims rank before
  // the first victim its cap passed over.
  ASSERT_EQ(record.candidates.size(), 6u);
  std::vector<ContainerId> dispatched;
  for (std::size_t i = 0; i < 4; ++i) {
    const TraceArgs& row = record.candidates[i];
    EXPECT_EQ(Arg(row, "action").str, "dispatched");
    EXPECT_EQ(Arg(row, "reason").str, "selected");
    dispatched.emplace_back(
        static_cast<std::int64_t>(Arg(row, "container").num));
  }
  EXPECT_EQ(dispatched, plain.preempted);
  std::set<double> capped_nodes;
  for (std::size_t i = 4; i < 6; ++i) {
    const TraceArgs& row = record.candidates[i];
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(Arg(row, "action").str, "skipped");
    EXPECT_EQ(Arg(row, "reason").str, "vacating_cap");
    EXPECT_EQ(Arg(row, "victims").num, 2);
    capped_nodes.insert(Arg(row, "node").num);
  }
  EXPECT_EQ(capped_nodes, (std::set<double>{0, 1}));
}

// Quota 1: the walk stops after the first victim, and the seven it did
// not reach are counted, not listed.
TEST(RmDispatchAudit, QuotaFilledCountsTheVictimsLeft) {
  Observability obs;
  const DispatchRound traced = RunDispatchRounds({1}, &obs);
  const DispatchRound plain = RunDispatchRounds({1}, nullptr);
  EXPECT_EQ(traced.preempted, plain.preempted);
  EXPECT_EQ(traced.sent, plain.sent);
  EXPECT_EQ(plain.sent, 1);

  const std::vector<AuditRecord> records = DispatchRecords(obs);
  ASSERT_EQ(records.size(), 1u);
  const AuditRecord& record = records[0];
  EXPECT_EQ(Arg(record.args, "considered").num, 8);
  EXPECT_EQ(Arg(record.args, "dispatched").num, 1);
  EXPECT_EQ(Arg(record.args, "quota_filled").num, 7);
  ASSERT_EQ(record.candidates.size(), 1u);
  const TraceArgs& row = record.candidates[0];
  EXPECT_EQ(Arg(row, "action").str, "dispatched");
  EXPECT_EQ(Arg(row, "reason").str, "selected");
  ASSERT_EQ(plain.preempted.size(), 1u);
  EXPECT_EQ(Arg(row, "container").num,
            static_cast<double>(plain.preempted[0].value()));
}

// A second round with every node still at its cap writes fresh per-node
// rows: the first round's rows do not carry over.
TEST(RmDispatchAudit, CapRowsStartAfreshEachRound) {
  Observability obs;
  const DispatchRound traced = RunDispatchRounds({8, 1}, &obs);
  const DispatchRound plain = RunDispatchRounds({8, 1}, nullptr);
  EXPECT_EQ(traced.preempted, plain.preempted);
  EXPECT_EQ(plain.sent, 4);

  const std::vector<AuditRecord> records = DispatchRecords(obs);
  ASSERT_EQ(records.size(), 2u);
  const AuditRecord& record = records[1];
  // The four victims not yet asked to vacate, all on capped nodes.
  EXPECT_EQ(Arg(record.args, "considered").num, 4);
  EXPECT_EQ(Arg(record.args, "dispatched").num, 0);
  EXPECT_EQ(Arg(record.args, "quota_filled").num, 0);
  ASSERT_EQ(record.candidates.size(), 2u);
  std::set<double> capped_nodes;
  for (const TraceArgs& row : record.candidates) {
    EXPECT_EQ(Arg(row, "reason").str, "vacating_cap");
    EXPECT_EQ(Arg(row, "victims").num, 2);
    capped_nodes.insert(Arg(row, "node").num);
  }
  EXPECT_EQ(capped_nodes, (std::set<double>{0, 1}));
}

}  // namespace
}  // namespace ckpt
