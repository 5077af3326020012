// Node-failure injection: DFS-replicated checkpoint images survive a crash
// (the task resumes elsewhere from saved progress), local-only images die
// with the node, and dumps written to the node are abandoned.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"

namespace ckpt {
namespace {

// Two long low-priority tasks fill both nodes; a high-priority arrival at
// t=2min forces one of them (on node 0, the rotating victim cursor's first
// stop) to checkpoint. The chosen node then fails.
Workload CheckpointThenFailWorkload() {
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(i);
    task.job = low.id;
    task.duration = Minutes(10);
    task.demand = Resources{4.0, GiB(4)};
    task.priority = 1;
    task.memory_write_rate = 0.01;
    low.tasks.push_back(task);
  }
  w.jobs.push_back(low);

  JobSpec high;
  high.id = JobId(1);
  high.submit_time = Minutes(2);
  high.priority = 9;
  TaskSpec ht = low.tasks[0];
  ht.id = TaskId(10);
  ht.job = high.id;
  ht.duration = Minutes(5);
  ht.priority = 9;
  high.tasks.push_back(ht);
  w.jobs.push_back(high);
  return w;
}

struct FailureRun {
  SimulationResult result;
};

FailureRun RunWithFailure(bool dfs_images, SimTime fail_at,
                          SimDuration down_for) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.checkpoint_to_dfs = dfs_images;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(CheckpointThenFailWorkload());
  // Node 0 hosts the first placement (round-robin from 0).
  scheduler.InjectNodeFailure(NodeId(0), fail_at, down_for);
  FailureRun run;
  run.result = scheduler.Run();
  return run;
}

TEST(FailureInjection, AllTasksStillComplete) {
  for (bool dfs : {true, false}) {
    const FailureRun run = RunWithFailure(dfs, Minutes(3), Minutes(2));
    EXPECT_EQ(run.result.tasks_completed, 3) << "dfs=" << dfs;
    EXPECT_EQ(run.result.node_failures, 1);
    EXPECT_GT(run.result.tasks_interrupted_by_failure, 0);
  }
}

TEST(FailureInjection, DfsImageSurvivesCrash) {
  const FailureRun run = RunWithFailure(true, Minutes(3), Minutes(2));
  EXPECT_GE(run.result.images_survived_failure, 1);
  EXPECT_EQ(run.result.images_lost_to_failure, 0);
}

TEST(FailureInjection, LocalImageDiesWithNode) {
  const FailureRun run = RunWithFailure(false, Minutes(3), Minutes(2));
  EXPECT_EQ(run.result.images_survived_failure, 0);
  EXPECT_GE(run.result.images_lost_to_failure, 1);
}

TEST(FailureInjection, DfsImagesPreserveMoreWorkThroughCrash) {
  const FailureRun dfs = RunWithFailure(true, Minutes(3), Minutes(2));
  const FailureRun local = RunWithFailure(false, Minutes(3), Minutes(2));
  // With the image intact the batch task resumes from ~2 min of saved
  // progress; without it, that progress is re-executed on top of the
  // failure's own losses.
  EXPECT_LT(dfs.result.lost_work_core_hours,
            local.result.lost_work_core_hours);
}

TEST(FailureInjection, PermanentFailureShrinksCluster) {
  // down_for < 0: the node never comes back; everything still completes on
  // the surviving node.
  const FailureRun run = RunWithFailure(true, Minutes(3), -1);
  EXPECT_EQ(run.result.tasks_completed, 3);
}

TEST(FailureInjection, FailureOfIdleNodeIsHarmless) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
  SchedulerConfig config;
  ClusterScheduler scheduler(&sim, &cluster, config);
  Workload w;
  JobSpec job;
  job.id = JobId(0);
  job.priority = 1;
  TaskSpec task;
  task.id = TaskId(0);
  task.job = job.id;
  task.duration = Seconds(30);
  task.demand = Resources{4.0, GiB(4)};
  task.priority = 1;
  job.tasks.push_back(task);
  w.jobs.push_back(job);
  scheduler.Submit(w);
  scheduler.InjectNodeFailure(NodeId(1), Seconds(5), Seconds(60));
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.tasks_completed, 1);
  EXPECT_EQ(result.tasks_interrupted_by_failure, 0);
  EXPECT_NEAR(ToSeconds(result.makespan), 30.0, 1.0);
}

TEST(FailureInjection, RunningTaskLosesUnsavedProgressOnly) {
  // Fail at 4 min: the task checkpointed at ~2 min, so exactly the last
  // ~2 min of work are lost.
  const FailureRun run = RunWithFailure(true, Minutes(4), Minutes(1));
  EXPECT_EQ(run.result.tasks_completed, 3);
  // Lost work is bounded by (fail time - checkpoint time) * 4 cores.
  EXPECT_LE(run.result.lost_work_core_hours, 4.2 * 4.5 / 60.0);
  EXPECT_GT(run.result.lost_work_core_hours, 0.0);
}

void AddTask(JobSpec* job, int id, SimDuration duration, int priority) {
  TaskSpec task;
  task.id = TaskId(id);
  task.job = job->id;
  task.duration = duration;
  task.demand = Resources{4.0, GiB(4)};
  task.priority = priority;
  task.memory_write_rate = 0.005;
  job->tasks.push_back(task);
}

JobSpec MakeJob(int id, SimTime submit, int priority) {
  JobSpec job;
  job.id = JobId(id);
  job.submit_time = submit;
  job.priority = priority;
  return job;
}

// A task whose image stays on node 0 is restored on node 1 and preempted
// there again, so its incremental dump is written from node 1 to node 0;
// node 0 crashes while that dump runs.
//   t=0     L0 (prio 1) runs on node 0, L1 (prio 1, 4 min) on node 1;
//   t=2min  H1 (prio 9, 30 min) preempts L0, whose full image lands on
//           node 0;
//   t=4min  L1 completes and L0 restores remotely on node 1;
//   t=6min  H2 (prio 9) preempts L0 again: an increment to node 0;
//   t=6:05  node 0 crashes for 2 minutes. The increment is abandoned, L0's
//           full image is rebound to node 1, and L0 later restores from it
//           remotely on node 0.
TEST(FailureInjection, CrashAbandonsIncrementalDumpToTheFailedNode) {
  Workload w;
  JobSpec low = MakeJob(0, 0, 1);
  AddTask(&low, 0, Minutes(20), 1);
  w.jobs.push_back(low);
  JobSpec short_low = MakeJob(1, 0, 1);
  AddTask(&short_low, 1, Minutes(4), 1);
  w.jobs.push_back(short_low);
  JobSpec high1 = MakeJob(2, Minutes(2), 9);
  AddTask(&high1, 2, Minutes(30), 9);
  w.jobs.push_back(high1);
  JobSpec high2 = MakeJob(3, Minutes(6), 9);
  AddTask(&high2, 3, Minutes(5), 9);
  w.jobs.push_back(high2);

  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Ssd());
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(w);
  scheduler.InjectNodeFailure(NodeId(0), Minutes(6) + Seconds(5), Minutes(2));
  const SimulationResult result = scheduler.Run();

  EXPECT_EQ(result.tasks_completed, 4);
  EXPECT_EQ(result.node_failures, 1);
  EXPECT_EQ(result.checkpoints, 2);
  EXPECT_EQ(result.incremental_checkpoints, 1);
  EXPECT_EQ(result.remote_restores, 2);
  // Only H1 ran on node 0; L0 was dumping on node 1.
  EXPECT_EQ(result.tasks_interrupted_by_failure, 1);
  // The abandoned increment leaves L0's full image, which DFS replication
  // keeps through the crash.
  EXPECT_EQ(result.images_survived_failure, 1);
  EXPECT_EQ(result.images_lost_to_failure, 0);
  // The increment's reservation on node 0 was given back, and the image
  // was released where it was rebound.
  for (Node* node : cluster.nodes()) {
    EXPECT_EQ(node->storage().used(), 0) << "node " << node->id().value();
  }
}

// Two images sit on node 0 when it crashes, and node 1's device has room
// for one: the crash visits images in task-creation order, so L0's image
// is rebound to node 1 and L1's is lost.
//   t=0     L0 and L1 (prio 1) run on node 0; node 1 is too small for any
//           task and holds no image;
//   t=2min  H0 (prio 9) preempts one of them, t=3min H1 the other; both
//           full images land on node 0;
//   t=5min  node 0 crashes for 10 minutes.
TEST(FailureInjection, CrashEvacuatesImagesInCreationOrder) {
  Workload w;
  JobSpec low = MakeJob(0, 0, 1);
  AddTask(&low, 0, Minutes(30), 1);
  AddTask(&low, 1, Minutes(30), 1);
  w.jobs.push_back(low);
  for (int i = 0; i < 2; ++i) {
    JobSpec high = MakeJob(1 + i, Minutes(2 + i), 9);
    AddTask(&high, 2 + i, Minutes(10), 9);
    w.jobs.push_back(high);
  }

  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{8.0, GiB(32)}, StorageMedium::Ssd());
  cluster.AddNodes(1, Resources{2.0, GiB(16)},
                   StorageMedium::WithBandwidth("SSD-6G", MBps(125), GiB(6)));
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  Observability obs;
  config.obs = &obs;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(w);
  scheduler.InjectNodeFailure(NodeId(0), Minutes(5), Minutes(10));
  const SimulationResult result = scheduler.Run();

  EXPECT_EQ(result.tasks_completed, 4);
  EXPECT_EQ(result.checkpoints, 2);
  EXPECT_EQ(result.images_survived_failure, 1);
  EXPECT_EQ(result.images_lost_to_failure, 1);
  // Neither victim ran again before the crash, so the one restore is the
  // survivor's, from its image on node 1.
  EXPECT_EQ(result.local_restores + result.remote_restores, 1);
  ASSERT_EQ(obs.audit().dropped(), 0);
  std::vector<std::pair<double, double>> restores;  // (task, image node)
  for (std::size_t i = 0; i < obs.audit().size(); ++i) {
    const AuditRecord record = obs.audit().record(i);
    if (record.kind != "restore_decision") continue;
    double task = -1;
    double image_node = -1;
    for (const TraceArg& arg : record.args) {
      if (arg.key == "task") task = arg.num;
      if (arg.key == "image_node") image_node = arg.num;
    }
    restores.emplace_back(task, image_node);
  }
  EXPECT_EQ(restores,
            (std::vector<std::pair<double, double>>{{0.0, 1.0}}));
  for (Node* node : cluster.nodes()) {
    EXPECT_EQ(node->storage().used(), 0) << "node " << node->id().value();
  }
}

TEST(FailureInjection, RepeatedFailureOfSameNodeCountsOnce) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
  SchedulerConfig config;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(CheckpointThenFailWorkload());
  scheduler.InjectNodeFailure(NodeId(0), Minutes(3), Minutes(10));
  scheduler.InjectNodeFailure(NodeId(0), Minutes(4), Minutes(10));  // already down
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.node_failures, 1);
  EXPECT_EQ(result.tasks_completed, 3);
}

}  // namespace
}  // namespace ckpt
