// Shared-bandwidth interference: fair-share pools, the cooperative dump
// scheduler (admission policies, bypass, smallest-first drain, force-admit),
// Young/Daly intervals, receiver-side network charging, and determinism +
// waste-ledger reconciliation of interference-enabled scheduler runs.
#include <gtest/gtest.h>

#include <vector>

#include "checkpoint/dump_scheduler.h"
#include "cluster/cluster.h"
#include "dfs/network.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"
#include "storage/bandwidth_domain.h"
#include "trace/google_trace.h"

namespace ckpt {
namespace {

// --- BandwidthDomain: processor-sharing pool ------------------------------

TEST(BandwidthDomain, SingleFlowDrainsAtCapacity) {
  Simulator sim;
  BandwidthDomain pool(&sim, "p", MBps(100));
  SimTime done_at = -1;
  pool.StartFlow(MiB(100), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(ToSeconds(done_at), 1.048, 0.01);
  EXPECT_EQ(pool.flows_completed(), 1);
  EXPECT_EQ(pool.total_bytes(), MiB(100));
}

TEST(BandwidthDomain, EqualFlowsConvergeToFairShare) {
  // N identical flows started together each see capacity/N, so all finish
  // at N times the solo drain time (processor sharing).
  Simulator sim;
  BandwidthDomain pool(&sim, "p", MBps(100));
  constexpr int kFlows = 4;
  std::vector<SimTime> done(kFlows, -1);
  for (int i = 0; i < kFlows; ++i) {
    pool.StartFlow(MiB(100), [&, i] { done[static_cast<size_t>(i)] = sim.Now(); });
  }
  sim.Run();
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_NEAR(ToSeconds(done[static_cast<size_t>(i)]), kFlows * 1.048, 0.05);
  }
  EXPECT_EQ(pool.peak_flows(), kFlows);
  EXPECT_EQ(pool.active_flows(), 0);
}

TEST(BandwidthDomain, LateFlowSlowsTheActiveOne) {
  // Flow A alone for 0.5 s (drains 50 MB of its 104.9 MB), then B joins and
  // both run at 50 MB/s: A's remaining 54.9 MB takes ~1.097 s, after which
  // B's last 50 MB drains alone at full rate.
  Simulator sim;
  BandwidthDomain pool(&sim, "p", MBps(100));
  SimTime a_done = -1, b_done = -1;
  pool.StartFlow(MiB(100), [&] { a_done = sim.Now(); });
  sim.ScheduleAt(Seconds(0.5), [&] {
    pool.StartFlow(MiB(100), [&] { b_done = sim.Now(); });
  });
  sim.Run();
  EXPECT_NEAR(ToSeconds(a_done), 1.597, 0.02);
  EXPECT_NEAR(ToSeconds(b_done), 2.097, 0.02);
}

TEST(BandwidthDomain, EstimateDrainCountsTheJoiningFlow) {
  Simulator sim;
  BandwidthDomain pool(&sim, "p", MBps(100));
  // Idle pool: the joining flow would run alone.
  EXPECT_DOUBLE_EQ(pool.ContentionFactor(), 1.0);
  pool.StartFlow(MiB(100), nullptr);
  // One active flow: the joiner would get capacity/2.
  EXPECT_DOUBLE_EQ(pool.ContentionFactor(), 2.0);
}

// --- Young/Daly interval ---------------------------------------------------

TEST(YoungDaly, MatchesClosedForm) {
  // W = sqrt(2 * C * M): C = 2 s, M = 10 h -> sqrt(2 * 2 * 36000) = 379.47 s.
  const SimDuration w = YoungDalyInterval(Seconds(2), Hours(10));
  EXPECT_NEAR(ToSeconds(w), 379.473, 0.01);
}

TEST(YoungDaly, DegenerateInputsFallBackToMinInterval) {
  EXPECT_EQ(YoungDalyInterval(0, Hours(1), Minutes(2)), Minutes(2));
  EXPECT_EQ(YoungDalyInterval(Seconds(5), 0, Minutes(2)), Minutes(2));
}

TEST(YoungDaly, ClampsBelowMinInterval) {
  // Tiny dump cost drives the optimum under the floor.
  EXPECT_EQ(YoungDalyInterval(Millis(1), Minutes(1), Minutes(2)), Minutes(2));
  // A large optimum is left alone.
  EXPECT_GT(YoungDalyInterval(Minutes(1), Hours(100), kSecond), Hours(1));
}

// --- DumpScheduler admission policies --------------------------------------

class DumpSchedulerTest : public ::testing::Test {
 protected:
  DumpScheduler Make(DumpPolicy policy, int max_concurrent = 2,
                     Bandwidth shared = MBps(100),
                     Bandwidth min_share = MBps(50),
                     SimDuration max_defer = Minutes(10)) {
    DumpSchedulerConfig config;
    config.policy = policy;
    config.max_concurrent = max_concurrent;
    config.shared_bw = shared;
    config.min_share = min_share;
    config.max_defer = max_defer;
    return DumpScheduler(&sim_, config);
  }

  Simulator sim_;
};

TEST_F(DumpSchedulerTest, NaiveAdmitsEverythingImmediately) {
  DumpScheduler sched = Make(DumpPolicy::kNaive);
  int started = 0;
  for (int i = 0; i < 10; ++i) {
    sched.Request(0, i, GiB(1), [&] { ++started; });
  }
  EXPECT_EQ(started, 10);
  EXPECT_EQ(sched.deferred(), 0);
  EXPECT_EQ(sched.active(), 10);
}

TEST_F(DumpSchedulerTest, StaggeredCapsInFlightAndDrainsFifo) {
  DumpScheduler sched = Make(DumpPolicy::kStaggered, /*max_concurrent=*/2);
  std::vector<int> started;
  std::vector<DumpScheduler::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(sched.Request(0, i, GiB(1), [&, i] { started.push_back(i); }));
  }
  EXPECT_EQ(started, (std::vector<int>{0, 1}));
  EXPECT_EQ(sched.queued(), 3);
  EXPECT_EQ(sched.deferred(), 3);
  sched.Complete(tickets[0]);
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2}));  // FIFO
  EXPECT_EQ(sched.active(), 2);
}

TEST_F(DumpSchedulerTest, AwareCapDerivedFromMinShare) {
  DumpScheduler sched = Make(DumpPolicy::kInterferenceAware, 7,
                             /*shared=*/MBps(100), /*min_share=*/MBps(30));
  // floor(100 / 30) = 3 admitted dumps keep >= 30 MB/s each.
  EXPECT_EQ(sched.AdmissionLimit(), 3);
}

TEST_F(DumpSchedulerTest, SmallDumpsBypassAdmissionUnderAware) {
  // Cap of 1 (min_share == shared capacity); a big dump fills the slot.
  DumpScheduler sched = Make(DumpPolicy::kInterferenceAware, 1, MBps(100),
                             MBps(100));
  bool big2_started = false, small_started = false;
  const auto big1 = sched.Request(0, 1, GiB(1), nullptr);
  const auto big2 =
      sched.Request(0, 2, GiB(1), [&] { big2_started = true; });
  // Below the default 256 MiB bypass threshold: starts despite the full slot.
  const auto small =
      sched.Request(0, 3, MiB(1), [&] { small_started = true; });
  EXPECT_TRUE(small_started);
  EXPECT_FALSE(big2_started);
  EXPECT_EQ(sched.bypassed(), 1);
  EXPECT_EQ(sched.active(), 1);  // bypassed dumps hold no slot
  // Completing the bypassed dump frees nothing; the big dump still waits.
  sched.Complete(small);
  EXPECT_FALSE(big2_started);
  sched.Complete(big1);
  EXPECT_TRUE(big2_started);
  sched.Complete(big2);
}

TEST_F(DumpSchedulerTest, AwareAdmitsSmallestQueuedDumpFirst) {
  DumpScheduler sched = Make(DumpPolicy::kInterferenceAware, 1, MBps(100),
                             MBps(100));
  std::vector<int> started;
  const auto first = sched.Request(0, 0, GiB(1), [&] { started.push_back(0); });
  sched.Request(0, 1, MiB(512), [&] { started.push_back(1); });
  sched.Request(0, 2, MiB(300), [&] { started.push_back(2); });
  ASSERT_EQ(started, (std::vector<int>{0}));
  sched.Complete(first);
  // The 300 MiB dump jumps the 512 MiB one (SJF), unlike FIFO.
  EXPECT_EQ(started, (std::vector<int>{0, 2}));
}

TEST_F(DumpSchedulerTest, ForceAdmitFiresAfterMaxDefer) {
  DumpScheduler sched =
      Make(DumpPolicy::kStaggered, 1, MBps(100), MBps(50), Seconds(5));
  bool second_started = false;
  sched.Request(0, 1, GiB(1), nullptr);  // never completed: slot stays busy
  sched.Request(0, 2, GiB(1), [&] { second_started = true; });
  EXPECT_FALSE(second_started);
  sim_.Run();
  EXPECT_TRUE(second_started);
  EXPECT_EQ(sched.forced(), 1);
  EXPECT_GE(sched.total_defer_time(), Seconds(5));
}

TEST_F(DumpSchedulerTest, CompleteWithdrawsQueuedRequests) {
  DumpScheduler sched = Make(DumpPolicy::kStaggered, 1);
  bool queued_started = false;
  const auto first = sched.Request(0, 1, GiB(1), nullptr);
  const auto queued =
      sched.Request(0, 2, GiB(1), [&] { queued_started = true; });
  sched.Complete(queued);  // the task unwound (e.g. its node died)
  EXPECT_EQ(sched.queued(), 0);
  sched.Complete(first);
  EXPECT_FALSE(queued_started);  // withdrawn requests never start
  EXPECT_EQ(sched.active(), 0);
}

TEST_F(DumpSchedulerTest, CompleteIsIdempotentOnRetiredTickets) {
  DumpScheduler sched = Make(DumpPolicy::kStaggered, 1);
  const auto t = sched.Request(0, 1, GiB(1), nullptr);
  sched.Complete(t);
  EXPECT_EQ(sched.active(), 0);
  sched.Complete(t);  // retired: must not underflow the slot count
  sched.Complete(9999);
  EXPECT_EQ(sched.active(), 0);
}

// --- NetworkModel: receiver charging and loopback accounting ---------------

TEST(NetworkReceiverCharging, IngressSerializesConcurrentSenders) {
  // Two senders target the same receiver. Sender-only charging delivers
  // both a transfer-time apart from t=0; with charge_receiver the second
  // transfer also waits for the receiver's ingress link.
  for (const bool charge : {false, true}) {
    Simulator sim;
    NetworkConfig config;
    config.charge_receiver = charge;
    NetworkModel net(&sim, config);
    for (int i = 0; i < 3; ++i) net.AddNode(NodeId(i));
    SimTime first = -1, second = -1;
    net.Transfer(NodeId(0), NodeId(2), MiB(125), [&] { first = sim.Now(); });
    net.Transfer(NodeId(1), NodeId(2), MiB(125), [&] { second = sim.Now(); });
    sim.Run();
    const double service = ToSeconds(TransferTime(MiB(125), config.link_bw));
    EXPECT_NEAR(ToSeconds(first), service, 0.01);
    if (charge) {
      EXPECT_NEAR(ToSeconds(second), 2 * service, 0.01);
    } else {
      EXPECT_NEAR(ToSeconds(second), service, 0.01);
    }
  }
}

TEST(NetworkLoopback, SameNodeTransferCountsBytes) {
  Simulator sim;
  NetworkModel net(&sim, NetworkConfig{});
  net.AddNode(NodeId(0));
  bool delivered = false;
  net.Transfer(NodeId(0), NodeId(0), MiB(64), [&] { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.total_bytes_transferred(), MiB(64));
}

// --- End to end: determinism and ledger reconciliation ---------------------

SimulationResult RunInterference(Observability* obs = nullptr) {
  GoogleTraceConfig trace_config;
  trace_config.sample_jobs = 80;
  trace_config.seed = 11;
  const Workload workload =
      GoogleTraceGenerator(trace_config).GenerateWorkloadSample();

  Simulator sim;
  Cluster cluster(&sim);
  // Small on purpose: demand peaks force preemptions and dump storms.
  cluster.AddNodes(2, Resources{16.0, GiB(64)}, StorageMedium::Ssd());

  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  config.obs = obs;
  config.interference.enabled = true;
  config.interference.shared_bw = MBps(100);
  config.dump_scheduler.policy = DumpPolicy::kInterferenceAware;
  config.dump_scheduler.min_share = MBps(50);
  config.periodic_ckpt_mtbf = Hours(4);
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  return scheduler.Run();
}

TEST(InterferenceEndToEnd, RunsAreReproducible) {
  const SimulationResult a = RunInterference();
  const SimulationResult b = RunInterference();
  EXPECT_GT(a.periodic_checkpoints, 0);
  EXPECT_GT(a.checkpoints, 0);
  EXPECT_DOUBLE_EQ(a.wasted_core_hours, b.wasted_core_hours);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.periodic_checkpoints, b.periodic_checkpoints);
  EXPECT_EQ(a.dumps_deferred, b.dumps_deferred);
  EXPECT_EQ(a.dump_defer_time, b.dump_defer_time);
}

TEST(InterferenceEndToEnd, ObservabilityDoesNotPerturbDumpScheduling) {
  // The dump scheduler's admission decisions are traced and audited; turning
  // that on must not change which dumps are deferred or for how long.
  Observability obs;
  const SimulationResult traced = RunInterference(&obs);
  const SimulationResult plain = RunInterference();
  EXPECT_GT(plain.dumps_deferred, 0);
  EXPECT_EQ(traced.wasted_core_hours, plain.wasted_core_hours);
  EXPECT_EQ(traced.overhead_core_hours, plain.overhead_core_hours);
  EXPECT_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.preemptions, plain.preemptions);
  EXPECT_EQ(traced.checkpoints, plain.checkpoints);
  EXPECT_EQ(traced.periodic_checkpoints, plain.periodic_checkpoints);
  EXPECT_EQ(traced.dumps_deferred, plain.dumps_deferred);
  EXPECT_EQ(traced.dump_defer_time, plain.dump_defer_time);
  EXPECT_EQ(traced.total_dump_time, plain.total_dump_time);
  EXPECT_EQ(traced.total_restore_time, plain.total_restore_time);
  EXPECT_EQ(traced.tasks_completed, plain.tasks_completed);
}

TEST(InterferenceEndToEnd, LedgerReconcilesWithActualDurationCharging) {
  // With interference on, dump/restore overhead is charged from actual
  // elapsed freeze time; the reconciling causes must still equal the
  // scheduler's goodput gap.
  Observability obs;
  const SimulationResult result = RunInterference(&obs);
  ASSERT_GT(result.wasted_core_hours, 0);
  EXPECT_NEAR(obs.waste().ReconcilableCoreHours(), result.wasted_core_hours,
              0.01 * result.wasted_core_hours);
  EXPECT_GT(obs.waste().Total(WasteCause::kPeriodicDumpOverhead), 0);
}

}  // namespace
}  // namespace ckpt
