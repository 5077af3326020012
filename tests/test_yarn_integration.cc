#include "yarn/yarn_cluster.h"

#include <gtest/gtest.h>

#include "obs/observability.h"
#include "trace/facebook_workload.h"

namespace ckpt {
namespace {

// Small two-job workload mirroring the paper's sensitivity scenario, sized
// for a 2-node YARN cluster.
Workload TwoJobYarnWorkload(int low_tasks, int high_tasks) {
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.submit_time = 0;
  low.priority = 1;
  for (int i = 0; i < low_tasks; ++i) {
    TaskSpec t;
    t.id = TaskId(i);
    t.job = low.id;
    t.duration = Seconds(60);
    t.demand = Resources{1.0, MiB(1800)};
    t.priority = 1;
    t.memory_write_rate = 0.02;
    low.tasks.push_back(t);
  }
  w.jobs.push_back(low);

  JobSpec high;
  high.id = JobId(1);
  high.submit_time = Seconds(30);
  high.priority = 9;
  for (int i = 0; i < high_tasks; ++i) {
    TaskSpec t;
    t.id = TaskId(100 + i);
    t.job = high.id;
    t.duration = Seconds(60);
    t.demand = Resources{1.0, MiB(1800)};
    t.priority = 9;
    t.memory_write_rate = 0.02;
    high.tasks.push_back(t);
  }
  w.jobs.push_back(high);
  return w;
}

YarnConfig SmallConfig(PreemptionPolicy policy, StorageMedium medium) {
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = policy;
  config.medium = std::move(medium);
  return config;
}

TEST(YarnIntegration, AllJobsCompleteUnderEveryPolicy) {
  for (PreemptionPolicy policy :
       {PreemptionPolicy::kWait, PreemptionPolicy::kKill,
        PreemptionPolicy::kCheckpoint, PreemptionPolicy::kAdaptive}) {
    YarnCluster yarn(SmallConfig(policy, StorageMedium::Nvm()));
    const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
    EXPECT_EQ(result.jobs_completed, 2) << PolicyName(policy);
    EXPECT_EQ(result.tasks_completed, 16) << PolicyName(policy);
  }
}

TEST(YarnIntegration, ObservabilityMatchesResultCounters) {
  Observability obs;
  YarnConfig config = SmallConfig(PreemptionPolicy::kCheckpoint,
                                  StorageMedium::Nvm());
  config.obs = &obs;
  YarnCluster yarn(config);
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  ASSERT_GT(result.checkpoints, 0);

  // Metric totals must agree with the AM-side statistics.
  std::int64_t dump_count = 0;
  std::int64_t decision_count = 0;
  std::int64_t preempt_count = 0;
  std::int64_t dump_spans = 0;
  for (int n = 0; n < config.num_nodes; ++n) {
    const MetricLabels node_labels{{"node", std::to_string(n)}};
    for (const char* mode : {"full", "incremental"}) {
      dump_count += obs.metrics()
                        .GetCounter("ckpt.dump.count",
                                    {{"node", std::to_string(n)},
                                     {"mode", mode}})
                        ->value();
    }
    preempt_count +=
        obs.metrics().GetCounter("rm.preempt_events", node_labels)->value();
  }
  for (const char* action :
       {"kill", "checkpoint_full", "checkpoint_incremental"}) {
    decision_count += obs.metrics()
                          .GetCounter("policy.decisions",
                                      {{"policy", "Checkpoint"},
                                       {"action", action}})
                          ->value();
  }
  EXPECT_EQ(dump_count, result.checkpoints);
  // A decision is made for each preempt notice that still found its task
  // running; under this policy every decision starts a dump.
  EXPECT_EQ(decision_count, result.checkpoints);
  // The RM counts dispatched notices; the AM may see fewer (tasks that
  // completed or changed state before the RPC landed decide nothing).
  EXPECT_GE(preempt_count, result.preempt_events);

  // Each completed checkpoint shows up as one ckpt.dump span; decisions
  // are not traced.
  for (const TraceRecord& event : obs.tracer().SortedEvents()) {
    if (event.name == "ckpt.dump") dump_spans++;
    EXPECT_NE(event.name, "policy.decision");
    EXPECT_NE(event.name, "rm.preempt_event");
  }
  EXPECT_EQ(dump_spans, result.checkpoints);
  EXPECT_EQ(obs.tracer().open_spans(), 0u);  // no leaked spans at drain

  // Each decision is recorded once, in the audit log: one am_decision per
  // AM decision and one dispatched rm_preempt_dispatch candidate per
  // preemption notice the RM sent.
  ASSERT_EQ(obs.audit().dropped(), 0);
  std::int64_t am_decisions = 0;
  std::int64_t dispatched = 0;
  for (std::size_t i = 0; i < obs.audit().size(); ++i) {
    const AuditRecord record = obs.audit().record(i);
    if (record.kind == "am_decision") ++am_decisions;
    if (record.kind != "rm_preempt_dispatch") continue;
    for (const TraceArgs& candidate : record.candidates) {
      for (const TraceArg& arg : candidate) {
        if (arg.key == "action" && arg.str == "dispatched") ++dispatched;
      }
    }
  }
  EXPECT_EQ(am_decisions, decision_count);
  EXPECT_EQ(dispatched, yarn.rm().preempt_events_sent());

  // The RM's decisions, counted as ClusterScheduler counts its own: each
  // container allocated plus each preemption notice sent.
  const std::int64_t allocations =
      obs.metrics().GetCounter("rm.allocations")->value();
  ASSERT_GT(allocations, 0);
  EXPECT_EQ(obs.metrics().GetGauge("sched.decisions")->value(),
            static_cast<double>(allocations +
                                yarn.rm().preempt_events_sent()));
}

TEST(YarnIntegration, ObservabilityDoesNotPerturbSimulation) {
  YarnConfig config = SmallConfig(PreemptionPolicy::kAdaptive,
                                  StorageMedium::Ssd());
  YarnCluster plain(config);
  const YarnResult without = plain.RunWorkload(TwoJobYarnWorkload(8, 8));

  Observability obs;
  config.obs = &obs;
  YarnCluster traced(config);
  const YarnResult with_obs = traced.RunWorkload(TwoJobYarnWorkload(8, 8));

  EXPECT_EQ(with_obs.preempt_events, without.preempt_events);
  EXPECT_EQ(with_obs.checkpoints, without.checkpoints);
  EXPECT_EQ(with_obs.kills, without.kills);
  EXPECT_EQ(with_obs.makespan, without.makespan);
  EXPECT_DOUBLE_EQ(with_obs.wasted_core_hours, without.wasted_core_hours);
}

TEST(YarnIntegration, KillPolicyKillsAndNeverCheckpoints) {
  YarnCluster yarn(SmallConfig(PreemptionPolicy::kKill, StorageMedium::Nvm()));
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  EXPECT_GT(result.kills, 0);
  EXPECT_EQ(result.checkpoints, 0);
  EXPECT_GT(result.lost_work_core_hours, 0.0);
}

TEST(YarnIntegration, CheckpointPolicySavesProgress) {
  YarnCluster yarn(
      SmallConfig(PreemptionPolicy::kCheckpoint, StorageMedium::Nvm()));
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  EXPECT_GT(result.checkpoints, 0);
  EXPECT_EQ(result.kills, 0);
  EXPECT_EQ(result.restores, result.checkpoints);
  EXPECT_GT(result.overhead_core_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.lost_work_core_hours, 0.0);
}

TEST(YarnIntegration, CheckpointNvmBeatsKillOnLowPriorityResponse) {
  YarnCluster kill_yarn(
      SmallConfig(PreemptionPolicy::kKill, StorageMedium::Nvm()));
  const YarnResult kill = kill_yarn.RunWorkload(TwoJobYarnWorkload(8, 8));

  YarnCluster chk_yarn(
      SmallConfig(PreemptionPolicy::kCheckpoint, StorageMedium::Nvm()));
  const YarnResult chk = chk_yarn.RunWorkload(TwoJobYarnWorkload(8, 8));

  EXPECT_LT(chk.low_priority_job_responses.Mean(),
            kill.low_priority_job_responses.Mean());
  EXPECT_LT(chk.wasted_core_hours, kill.wasted_core_hours);
}

TEST(YarnIntegration, AdaptiveOnHddAvoidsCheckpointingYoungTasks) {
  // Preempt hits tasks with ~30 s progress; on HDD a 1.8 GiB dump+restore
  // costs ~95 s, so Algorithm 1 kills.
  YarnCluster yarn(SmallConfig(PreemptionPolicy::kAdaptive, StorageMedium::Hdd()));
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  EXPECT_GT(result.kills, 0);
  EXPECT_EQ(result.checkpoints, 0);
}

TEST(YarnIntegration, AdaptiveOnNvmCheckpoints) {
  YarnCluster yarn(SmallConfig(PreemptionPolicy::kAdaptive, StorageMedium::Nvm()));
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  EXPECT_GT(result.checkpoints, 0);
  EXPECT_EQ(result.kills, 0);
}

TEST(YarnIntegration, WaitPolicyHasNoPreemptionSideEffects) {
  YarnCluster yarn(SmallConfig(PreemptionPolicy::kWait, StorageMedium::Hdd()));
  const YarnResult result = yarn.RunWorkload(TwoJobYarnWorkload(8, 8));
  EXPECT_EQ(result.preempt_events, 0);
  EXPECT_EQ(result.kills, 0);
  EXPECT_EQ(result.checkpoints, 0);
  EXPECT_DOUBLE_EQ(result.wasted_core_hours, 0.0);
}

TEST(YarnIntegration, RepeatPreemptionUsesIncrementalDumps) {
  // Two production bursts hit the same long-running low-priority tasks.
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < 8; ++i) {
    TaskSpec t;
    t.id = TaskId(i);
    t.job = low.id;
    t.duration = Seconds(600);
    t.demand = Resources{1.0, MiB(1800)};
    t.priority = 1;
    t.memory_write_rate = 0.01;
    low.tasks.push_back(t);
  }
  w.jobs.push_back(low);
  for (int burst = 0; burst < 2; ++burst) {
    JobSpec high;
    high.id = JobId(1 + burst);
    high.submit_time = Seconds(60 + 180 * burst);
    high.priority = 9;
    for (int i = 0; i < 8; ++i) {
      TaskSpec t;
      t.id = TaskId(100 + burst * 10 + i);
      t.job = high.id;
      t.duration = Seconds(30);
      t.demand = Resources{1.0, MiB(1800)};
      t.priority = 9;
      high.tasks.push_back(t);
    }
    w.jobs.push_back(high);
  }

  YarnCluster yarn(
      SmallConfig(PreemptionPolicy::kCheckpoint, StorageMedium::Nvm()));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_GT(result.incremental_checkpoints, 0);
}

TEST(YarnIntegration, FacebookWorkloadSmokeAcrossMedia) {
  FacebookWorkloadConfig fb;
  fb.total_jobs = 10;
  fb.total_tasks = 400;
  fb.cluster_containers = 48;
  // Bring the production bursts forward so they land while low-priority
  // work still occupies the small cluster.
  fb.production_period = Seconds(90);
  const Workload w = GenerateFacebookWorkload(fb);

  double kill_waste = -1;
  for (MediaKind kind : {MediaKind::kHdd, MediaKind::kNvm}) {
    YarnConfig config;
    config.num_nodes = 2;
    config.containers_per_node = 24;
    config.medium = MediumFor(kind);
    config.policy = PreemptionPolicy::kKill;
    YarnCluster kill_yarn(config);
    const YarnResult kill = kill_yarn.RunWorkload(w);
    EXPECT_EQ(kill.jobs_completed, static_cast<std::int64_t>(w.jobs.size()));
    EXPECT_GT(kill.preempt_events, 0) << MediaName(kind);
    kill_waste = kill.wasted_core_hours;

    config.policy = PreemptionPolicy::kAdaptive;
    YarnCluster adaptive_yarn(config);
    const YarnResult adaptive = adaptive_yarn.RunWorkload(w);
    EXPECT_EQ(adaptive.jobs_completed,
              static_cast<std::int64_t>(w.jobs.size()));
    if (kind == MediaKind::kNvm) {
      // Fast media: adaptive checkpointing cuts wastage versus kill.
      EXPECT_LT(adaptive.wasted_core_hours, kill_waste);
    }
  }
}

TEST(YarnIntegration, DeterministicForSameSeed) {
  const Workload w = TwoJobYarnWorkload(8, 8);
  YarnCluster a(SmallConfig(PreemptionPolicy::kAdaptive, StorageMedium::Ssd()));
  YarnCluster b(SmallConfig(PreemptionPolicy::kAdaptive, StorageMedium::Ssd()));
  const YarnResult ra = a.RunWorkload(w);
  const YarnResult rb = b.RunWorkload(w);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.checkpoints, rb.checkpoints);
  EXPECT_DOUBLE_EQ(ra.all_job_responses.Mean(), rb.all_job_responses.Mean());
}

}  // namespace
}  // namespace ckpt
