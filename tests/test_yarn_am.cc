#include "yarn/app_master.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "yarn/yarn_cluster.h"

namespace ckpt {
namespace {

// AM-level behaviour, driven through a small YarnCluster so the RM, NMs,
// engine and DFS are all real.
class YarnAmTest : public ::testing::Test {
 protected:
  YarnConfig Config(PreemptionPolicy policy, MediaKind media) {
    YarnConfig config;
    config.num_nodes = 2;
    config.containers_per_node = 4;
    config.policy = policy;
    config.medium = MediumFor(media);
    return config;
  }

  static JobSpec MakeJob(JobId id, int priority, int tasks, SimTime submit,
                         SimDuration duration = Seconds(60)) {
    JobSpec job;
    job.id = id;
    job.submit_time = submit;
    job.priority = priority;
    for (int i = 0; i < tasks; ++i) {
      TaskSpec task;
      task.id = TaskId(id.value() * 1000 + i);
      task.job = id;
      task.duration = duration;
      task.demand = Resources{1.0, MiB(1800)};
      task.priority = priority;
      task.memory_write_rate = 0.02;
      job.tasks.push_back(task);
    }
    return job;
  }
};

TEST_F(YarnAmTest, ZeroTaskJobCompletesImmediately) {
  YarnCluster yarn(Config(PreemptionPolicy::kKill, MediaKind::kNvm));
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 0, 0));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 0);
}

TEST_F(YarnAmTest, SingleJobRunsInWaves) {
  // 12 tasks on 8 containers: two waves, ~2 minutes.
  YarnCluster yarn(Config(PreemptionPolicy::kKill, MediaKind::kNvm));
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 12, 0));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.tasks_completed, 12);
  EXPECT_EQ(result.preempt_events, 0);
  EXPECT_NEAR(ToSeconds(result.makespan), 120.0, 10.0);
}

TEST_F(YarnAmTest, PreemptedTaskResumesFromImage) {
  YarnCluster yarn(Config(PreemptionPolicy::kCheckpoint, MediaKind::kNvm));
  Workload w;
  // Low fills the cluster with 300 s tasks; high needs all slots at t=60.
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(300)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(30)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_GT(result.checkpoints, 0);
  EXPECT_EQ(result.restores, result.checkpoints);
  // No work is re-executed under checkpointing: the low job's makespan is
  // bounded by its work plus the high job's occupation plus dump/restores.
  EXPECT_DOUBLE_EQ(result.lost_work_core_hours, 0.0);
}

TEST_F(YarnAmTest, KillPolicyReexecutesLostWork) {
  YarnCluster yarn(Config(PreemptionPolicy::kKill, MediaKind::kNvm));
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(300)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(30)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_GT(result.kills, 0);
  // ~8 tasks each lose ~60s: at least 0.1 core-hours.
  EXPECT_GT(result.lost_work_core_hours, 0.08);
}

TEST_F(YarnAmTest, CheckpointedWorkloadFinishesFasterThanKillForVictims) {
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(300)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(30)));

  YarnCluster kill_yarn(Config(PreemptionPolicy::kKill, MediaKind::kNvm));
  const YarnResult kill = kill_yarn.RunWorkload(w);
  YarnCluster chk_yarn(Config(PreemptionPolicy::kCheckpoint, MediaKind::kNvm));
  const YarnResult chk = chk_yarn.RunWorkload(w);
  EXPECT_LT(chk.low_priority_job_responses.Mean(),
            kill.low_priority_job_responses.Mean());
}

TEST_F(YarnAmTest, SecondBurstDumpsIncrementally) {
  YarnCluster yarn(Config(PreemptionPolicy::kCheckpoint, MediaKind::kNvm));
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(600)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(20)));
  w.jobs.push_back(MakeJob(JobId(2), 9, 8, Seconds(240), Seconds(20)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_GT(result.incremental_checkpoints, 0);
}

TEST_F(YarnAmTest, IncrementalDisabledNeverLayersDumps) {
  YarnConfig config = Config(PreemptionPolicy::kCheckpoint, MediaKind::kNvm);
  config.incremental_checkpoints = false;
  YarnCluster yarn(config);
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(600)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(20)));
  w.jobs.push_back(MakeJob(JobId(2), 9, 8, Seconds(240), Seconds(20)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_GT(result.checkpoints, 0);
  EXPECT_EQ(result.incremental_checkpoints, 0);
}

TEST_F(YarnAmTest, AdaptiveThresholdForcesKill) {
  YarnConfig config = Config(PreemptionPolicy::kAdaptive, MediaKind::kNvm);
  config.adaptive_threshold = 1000.0;  // overhead never justified
  YarnCluster yarn(config);
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(300)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(30)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_GT(result.kills, 0);
  EXPECT_EQ(result.checkpoints, 0);
}

TEST_F(YarnAmTest, StorageFootprintReleasedAfterCompletion) {
  YarnConfig config = Config(PreemptionPolicy::kCheckpoint, MediaKind::kNvm);
  YarnCluster yarn(config);
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(300)));
  w.jobs.push_back(MakeJob(JobId(1), 9, 8, Seconds(60), Seconds(30)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_GT(result.storage_used_fraction, 0.0);  // peak was nonzero
  // All images discarded at completion.
  EXPECT_EQ(yarn.dfs().total_stored(), 0);
}

TEST_F(YarnAmTest, TaskResponsesCoverEveryTask) {
  YarnCluster yarn(Config(PreemptionPolicy::kAdaptive, MediaKind::kSsd));
  Workload w;
  w.jobs.push_back(MakeJob(JobId(0), 1, 10, 0));
  w.jobs.push_back(MakeJob(JobId(1), 9, 6, Seconds(30)));
  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(static_cast<std::int64_t>(result.all_task_responses.size()),
            result.tasks_completed);
  for (double response : result.all_task_responses) {
    EXPECT_GT(response, 0.0);
  }
}

// An incremental dump writes the pages the run dirtied since the last image,
// so a preempted task's exposure must reach its page table once, before the
// dump is costed, under every policy that checkpoints. Eight 900 s tasks
// fill the cluster and three production bursts, 300 s apart, preempt all of
// them: eight full dumps, then sixteen incremental ones.
TEST_F(YarnAmTest, IncrementalDumpsCarryTheRunsDirtyPagesOnce) {
  struct Dumps {
    std::int64_t full = 0;
    std::int64_t incremental = 0;
    std::int64_t kills = 0;
    Bytes written = 0;
  };
  auto run = [](PreemptionPolicy policy, double write_rate) {
    YarnConfig config;
    config.num_nodes = 2;
    config.containers_per_node = 4;
    config.policy = policy;
    config.medium = MediumFor(MediaKind::kNvm);
    Workload w;
    w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(900)));
    for (TaskSpec& task : w.jobs[0].tasks) task.memory_write_rate = write_rate;
    for (int b = 0; b < 3; ++b) {
      w.jobs.push_back(
          MakeJob(JobId(1 + b), 9, 8, Seconds(100 + 300 * b), Seconds(20)));
    }
    YarnCluster yarn(config);
    const YarnResult result = yarn.RunWorkload(w);
    EXPECT_EQ(result.jobs_completed, 4);
    const CheckpointEngine& engine = yarn.engine();
    return Dumps{engine.dumps_completed() - engine.incremental_dumps(),
                 engine.incremental_dumps(), result.kills,
                 engine.total_dump_bytes()};
  };
  const Bytes image = MiB(1800) + kCheckpointMetadataBytes;

  const Dumps slow = run(PreemptionPolicy::kCheckpoint, 0.002);
  const Dumps fast = run(PreemptionPolicy::kCheckpoint, 0.02);
  ASSERT_EQ(slow.full, 8);
  ASSERT_EQ(slow.incremental, 16);
  ASSERT_EQ(fast.incremental, 16);
  // Faster writers dirty more pages, so their increments are bigger.
  EXPECT_GT(fast.written, slow.written);
  // A run of at most 300 s at 0.002/s rewrites at most 60% of its pages:
  // touching the same exposure twice would dirty ~70% per increment.
  EXPECT_LE(slow.written - slow.full * image,
            slow.incremental * (MiB(1080) + kCheckpointMetadataBytes));

  // Adaptive checkpoints every victim here, so it must write exactly what
  // the checkpoint policy writes.
  for (const auto& [rate, checkpoint] :
       {std::pair{0.002, slow}, std::pair{0.02, fast}}) {
    const Dumps adaptive = run(PreemptionPolicy::kAdaptive, rate);
    ASSERT_EQ(adaptive.kills, 0);
    EXPECT_EQ(adaptive.full, checkpoint.full);
    EXPECT_EQ(adaptive.incremental, checkpoint.incremental);
    EXPECT_EQ(adaptive.written, checkpoint.written);
  }
}

// A restore abandoned because its container was preempted must never
// complete later as if live: that would count an engine restore, rebind the
// image to a node holding no replica, and, under corruption, discard the
// image of a task still waiting to restore it. Twelve production bursts
// keep preempting job 0's tasks, often while they restore.
class YarnAbandonedRestoreTest
    : public YarnAmTest,
      public ::testing::WithParamInterface<MediaKind> {
 protected:
  static Workload Bursts() {
    Workload w;
    w.jobs.push_back(MakeJob(JobId(0), 1, 8, 0, Seconds(600)));
    for (int b = 0; b < 12; ++b) {
      w.jobs.push_back(
          MakeJob(JobId(1 + b), 9, 8, Seconds(60 + 40 * b), Seconds(20)));
    }
    return w;
  }
};

TEST_P(YarnAbandonedRestoreTest, OnlyLiveRestoresComplete) {
  YarnCluster yarn(Config(PreemptionPolicy::kCheckpoint, GetParam()));
  const YarnResult result = yarn.RunWorkload(Bursts());
  EXPECT_EQ(result.jobs_completed, 13);
  // Each image is restored to completion exactly once before its task runs.
  EXPECT_EQ(yarn.engine().restores_completed(), result.checkpoints);
}

TEST_P(YarnAbandonedRestoreTest, OnlyLiveRestoresDetectCorruption) {
  YarnConfig config = Config(PreemptionPolicy::kCheckpoint, GetParam());
  config.fault.image_corruption_prob = 1.0;
  YarnCluster yarn(config);
  const YarnResult result = yarn.RunWorkload(Bursts());
  EXPECT_EQ(result.jobs_completed, 13);
  EXPECT_EQ(result.corrupt_images, result.restore_failures);
}

INSTANTIATE_TEST_SUITE_P(Media, YarnAbandonedRestoreTest,
                         ::testing::Values(MediaKind::kHdd, MediaKind::kSsd,
                                           MediaKind::kNvm));

// Parameterized sweep: every policy x medium combination must complete the
// same workload with consistent bookkeeping.
class YarnPolicyMediaTest
    : public ::testing::TestWithParam<std::tuple<PreemptionPolicy, MediaKind>> {
};

TEST_P(YarnPolicyMediaTest, ConservationAndConsistency) {
  const auto [policy, media] = GetParam();
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = policy;
  config.medium = MediumFor(media);
  YarnCluster yarn(config);

  Workload w;
  for (int j = 0; j < 3; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.submit_time = Seconds(40 * j);
    job.priority = j == 1 ? 9 : 1;
    for (int i = 0; i < 6; ++i) {
      TaskSpec task;
      task.id = TaskId(j * 100 + i);
      task.job = job.id;
      task.duration = Seconds(90);
      task.demand = Resources{1.0, MiB(1800)};
      task.priority = job.priority;
      task.memory_write_rate = 0.02;
      job.tasks.push_back(task);
    }
    w.jobs.push_back(job);
  }

  const YarnResult result = yarn.RunWorkload(w);
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_EQ(result.tasks_completed, 18);
  EXPECT_GE(result.wasted_core_hours, 0.0);
  EXPECT_GT(result.energy_kwh, 0.0);
  EXPECT_GE(result.makespan, Seconds(90));
  if (policy == PreemptionPolicy::kWait) {
    EXPECT_EQ(result.preempt_events, 0);
  }
  if (policy == PreemptionPolicy::kKill) {
    EXPECT_EQ(result.checkpoints, 0);
    EXPECT_EQ(result.restores, 0);
  }
  if (policy == PreemptionPolicy::kCheckpoint) {
    EXPECT_EQ(result.kills, 0);
  }
  // Restores never exceed checkpoints plus re-restores after aborts.
  EXPECT_GE(result.restores, result.checkpoints == 0 ? 0 : 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, YarnPolicyMediaTest,
    ::testing::Combine(::testing::Values(PreemptionPolicy::kWait,
                                         PreemptionPolicy::kKill,
                                         PreemptionPolicy::kCheckpoint,
                                         PreemptionPolicy::kAdaptive),
                       ::testing::Values(MediaKind::kHdd, MediaKind::kSsd,
                                         MediaKind::kNvm)));

}  // namespace
}  // namespace ckpt
