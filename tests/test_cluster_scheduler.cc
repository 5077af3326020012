#include "scheduler/cluster_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/observability.h"
#include "trace/google_trace.h"
#include "trace/workload_stream.h"

namespace ckpt {
namespace {

// The paper's S3.3.3 two-job scenario: a low-priority job runs for 30 s on a
// single node before a high-priority job of the same shape arrives and
// triggers preemption.
struct TwoJobResult {
  double high_response = 0;  // seconds
  double low_response = 0;
  SimulationResult sim;
};

TwoJobResult RunTwoJobScenario(PreemptionPolicy policy,
                               StorageMedium medium,
                               double threshold = 1.0,
                               Observability* obs = nullptr) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{4.0, GiB(16)}, medium);

  SchedulerConfig config;
  config.policy = policy;
  config.medium = medium;
  config.adaptive_threshold = threshold;
  config.obs = obs;

  Workload workload;
  {
    JobSpec low;
    low.id = JobId(0);
    low.submit_time = 0;
    low.priority = 1;
    TaskSpec task;
    task.id = TaskId(0);
    task.job = low.id;
    task.duration = Seconds(60);
    task.demand = Resources{4.0, GiB(5)};
    task.priority = 1;
    task.memory_write_rate = 0.02;
    low.tasks.push_back(task);
    workload.jobs.push_back(low);

    JobSpec high = low;
    high.id = JobId(1);
    high.submit_time = Seconds(30);
    high.priority = 9;
    high.tasks[0].id = TaskId(1);
    high.tasks[0].job = high.id;
    high.tasks[0].priority = 9;
    workload.jobs.push_back(high);
  }

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  TwoJobResult out;
  out.sim = scheduler.Run();
  out.low_response =
      out.sim
          .job_response_by_band[static_cast<size_t>(PriorityBand::kFree)]
          .Mean();
  out.high_response =
      out.sim
          .job_response_by_band[static_cast<size_t>(PriorityBand::kProduction)]
          .Mean();
  return out;
}

TEST(TwoJobScenario, WaitPolicyNeverPreempts) {
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kWait,
                                           StorageMedium::Nvm());
  EXPECT_EQ(r.sim.preemptions, 0);
  EXPECT_EQ(r.sim.jobs_completed, 2);
  // High-priority waits the low job's remaining 30 s, then runs 60 s.
  EXPECT_NEAR(r.high_response, 90.0, 1.0);
  EXPECT_NEAR(r.low_response, 60.0, 1.0);
  EXPECT_NEAR(r.sim.wasted_core_hours, 0.0, 1e-6);
}

TEST(TwoJobScenario, KillGivesHighPriorityBestResponse) {
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kKill,
                                           StorageMedium::Nvm());
  EXPECT_EQ(r.sim.kills, 1);
  EXPECT_EQ(r.sim.checkpoints, 0);
  // High starts immediately at 30 s.
  EXPECT_NEAR(r.high_response, 60.0, 1.0);
  // Low re-runs from scratch after high finishes: 90 + 60 = 150 s response.
  EXPECT_NEAR(r.low_response, 150.0, 1.5);
  // Lost work: 30 s on 4 cores.
  EXPECT_NEAR(r.sim.lost_work_core_hours, 30.0 * 4 / 3600, 0.002);
}

TEST(TwoJobScenario, CheckpointOnNvmBeatsKillForLowPriority) {
  const TwoJobResult kill = RunTwoJobScenario(PreemptionPolicy::kKill,
                                              StorageMedium::Nvm());
  const TwoJobResult chk = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                             StorageMedium::Nvm());
  EXPECT_EQ(chk.sim.checkpoints, 1);
  EXPECT_EQ(chk.sim.local_restores + chk.sim.remote_restores, 1);
  // Dump takes ~3 s, so the high job's response is only slightly worse.
  EXPECT_LT(chk.high_response, kill.high_response + 6.0);
  // The low job resumes instead of rerunning: clearly better than kill.
  EXPECT_LT(chk.low_response, kill.low_response - 15.0);
  EXPECT_LT(chk.sim.wasted_core_hours, kill.sim.wasted_core_hours);
}

TEST(TwoJobScenario, CheckpointOnHddHurtsHighPriority) {
  const TwoJobResult chk = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                             StorageMedium::Hdd());
  // A 5 GiB dump at ~32 MB/s stalls the high job for minutes: worse than
  // simply waiting the 30 s (response 90 s).
  EXPECT_GT(chk.high_response, 150.0);
}

TEST(TwoJobScenario, AdaptiveKillsOnSlowStorage) {
  const TwoJobResult adaptive = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                  StorageMedium::Hdd());
  // Overhead (~minutes) exceeds the 30 s of progress: Algorithm 1 kills.
  EXPECT_EQ(adaptive.sim.kills, 1);
  EXPECT_EQ(adaptive.sim.checkpoints, 0);
  const TwoJobResult kill = RunTwoJobScenario(PreemptionPolicy::kKill,
                                              StorageMedium::Hdd());
  EXPECT_NEAR(adaptive.high_response, kill.high_response, 1.0);
}

TEST(TwoJobScenario, AdaptiveCheckpointsOnFastStorage) {
  const TwoJobResult adaptive = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                  StorageMedium::Nvm());
  // ~5 s overhead < 30 s progress: Algorithm 1 checkpoints.
  EXPECT_EQ(adaptive.sim.checkpoints, 1);
  EXPECT_EQ(adaptive.sim.kills, 0);
}

TEST(TwoJobScenario, AdaptiveTracksBetterOfKillAndCheckpoint) {
  for (const StorageMedium& medium :
       {StorageMedium::Hdd(), StorageMedium::Ssd(), StorageMedium::Nvm()}) {
    const TwoJobResult kill =
        RunTwoJobScenario(PreemptionPolicy::kKill, medium);
    const TwoJobResult chk =
        RunTwoJobScenario(PreemptionPolicy::kCheckpoint, medium);
    const TwoJobResult adaptive =
        RunTwoJobScenario(PreemptionPolicy::kAdaptive, medium);
    const double best_low = std::min(kill.low_response, chk.low_response);
    const double best_high = std::min(kill.high_response, chk.high_response);
    EXPECT_LE(adaptive.low_response, best_low * 1.05 + 1.0) << medium.name;
    EXPECT_LE(adaptive.high_response, best_high * 1.05 + 1.0) << medium.name;
  }
}

TEST(TwoJobScenario, ThresholdKnobFlipsAdaptiveDecision) {
  // On NVM the stock threshold checkpoints; an absurdly high threshold
  // forces the kill path instead.
  const TwoJobResult strict = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                StorageMedium::Nvm(), 50.0);
  EXPECT_EQ(strict.sim.kills, 1);
  EXPECT_EQ(strict.sim.checkpoints, 0);
}

TEST(TwoJobScenario, EnergyOrderingMatchesFig4c) {
  const TwoJobResult wait =
      RunTwoJobScenario(PreemptionPolicy::kWait, StorageMedium::Nvm());
  const TwoJobResult kill =
      RunTwoJobScenario(PreemptionPolicy::kKill, StorageMedium::Nvm());
  // Wait wastes no cycles; kill repeats 30 s of work.
  EXPECT_LT(wait.sim.energy_kwh, kill.sim.energy_kwh);
}

TEST(TwoJobScenario, ObservabilityRecordsVictimDecision) {
  Observability obs;
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Nvm(), 1.0, &obs);
  ASSERT_GE(r.sim.preemptions, 1);
  // Every victim decision produced a counter tick and a trace instant with
  // Algorithm 1's terms.
  std::int64_t decisions = 0;
  for (const char* action :
       {"kill", "checkpoint_full", "checkpoint_incremental"}) {
    decisions += obs.metrics()
                     .GetCounter("policy.decisions",
                                 {{"policy", "Adaptive"}, {"action", action}})
                     ->value();
  }
  EXPECT_EQ(decisions, r.sim.preemptions);
  std::int64_t instants = 0;
  bool has_terms = false;
  for (const TraceRecord& event : obs.tracer().SortedEvents()) {
    if (event.name != "policy.decision") continue;
    instants++;
    for (const TraceArg& arg : event.args) {
      if (arg.key == "unsaved_progress_s") has_terms = true;
    }
  }
  EXPECT_EQ(instants, r.sim.preemptions);
  EXPECT_TRUE(has_terms);
}

TEST(TwoJobScenario, ObservabilityDoesNotPerturbResults) {
  Observability obs;
  const TwoJobResult with_obs = RunTwoJobScenario(
      PreemptionPolicy::kCheckpoint, StorageMedium::Ssd(), 1.0, &obs);
  const TwoJobResult without = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                                 StorageMedium::Ssd());
  EXPECT_EQ(with_obs.sim.preemptions, without.sim.preemptions);
  EXPECT_EQ(with_obs.sim.checkpoints, without.sim.checkpoints);
  EXPECT_DOUBLE_EQ(with_obs.high_response, without.high_response);
  EXPECT_DOUBLE_EQ(with_obs.low_response, without.low_response);
  EXPECT_DOUBLE_EQ(with_obs.sim.wasted_core_hours, without.sim.wasted_core_hours);
}

TEST(TwoJobScenario, DeterministicAcrossRuns) {
  const TwoJobResult a = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Ssd());
  const TwoJobResult b = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Ssd());
  EXPECT_DOUBLE_EQ(a.high_response, b.high_response);
  EXPECT_DOUBLE_EQ(a.low_response, b.low_response);
  EXPECT_EQ(a.sim.makespan, b.sim.makespan);
}

// A task preempted twice should dump incrementally the second time.
TEST(ClusterScheduler, SecondPreemptionIsIncremental) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{4.0, GiB(16)}, StorageMedium::Nvm());

  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();

  Workload workload;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  TaskSpec task;
  task.id = TaskId(0);
  task.job = low.id;
  task.duration = Seconds(300);
  task.demand = Resources{4.0, GiB(4)};
  task.priority = 1;
  task.memory_write_rate = 0.02;
  low.tasks.push_back(task);
  workload.jobs.push_back(low);

  for (int i = 0; i < 2; ++i) {
    JobSpec high;
    high.id = JobId(1 + i);
    high.submit_time = Seconds(30 + 120 * i);
    high.priority = 9;
    TaskSpec ht = task;
    ht.id = TaskId(1 + i);
    ht.job = high.id;
    ht.duration = Seconds(20);
    ht.priority = 9;
    high.tasks.push_back(ht);
    workload.jobs.push_back(high);
  }

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_EQ(result.checkpoints, 2);
  EXPECT_EQ(result.incremental_checkpoints, 1);
  // The incremental layer is far smaller than a second full image.
  EXPECT_LT(result.total_checkpoint_bytes_written,
            2 * (GiB(4) + MiB(1)));
}

TEST(ClusterScheduler, LocalOnlyCheckpointsPinRestore) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Ssd());

  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  config.checkpoint_to_dfs = false;  // stock CRIU

  Workload workload;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(i);
    task.job = low.id;
    task.duration = Seconds(120);
    task.demand = Resources{4.0, GiB(2)};
    task.priority = 1;
    low.tasks.push_back(task);
  }
  workload.jobs.push_back(low);

  JobSpec high;
  high.id = JobId(1);
  high.submit_time = Seconds(30);
  high.priority = 9;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(2 + i);
    task.job = high.id;
    task.duration = Seconds(30);
    task.demand = Resources{4.0, GiB(2)};
    task.priority = 9;
    high.tasks.push_back(task);
  }
  workload.jobs.push_back(high);

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_EQ(result.remote_restores, 0);  // images are local-only
  EXPECT_EQ(result.local_restores, result.checkpoints);
}

TEST(ClusterScheduler, AllTasksCompleteUnderChurn) {
  // Heavier mixed workload on a small cluster: conservation check.
  GoogleTraceConfig tconfig;
  tconfig.sample_jobs = 120;
  tconfig.seed = 99;
  Workload workload = GoogleTraceGenerator(tconfig).GenerateWorkloadSample();
  // Compress arrivals into one hour to force contention.
  for (JobSpec& job : workload.jobs) job.submit_time /= 24;

  for (PreemptionPolicy policy :
       {PreemptionPolicy::kKill, PreemptionPolicy::kCheckpoint,
        PreemptionPolicy::kAdaptive}) {
    Simulator sim;
    Cluster cluster(&sim);
    cluster.AddNodes(8, Resources{16.0, GiB(64)}, StorageMedium::Ssd());
    SchedulerConfig config;
    config.policy = policy;
    config.medium = StorageMedium::Ssd();
    ClusterScheduler scheduler(&sim, &cluster, config);
    scheduler.Submit(workload);
    const SimulationResult result = scheduler.Run();
    EXPECT_EQ(result.tasks_completed, workload.TotalTasks())
        << PolicyName(policy);
    EXPECT_EQ(result.jobs_completed,
              static_cast<std::int64_t>(workload.jobs.size()))
        << PolicyName(policy);
    EXPECT_GE(result.wasted_core_hours, 0.0);
    EXPECT_GT(result.energy_kwh, 0.0);
    if (policy == PreemptionPolicy::kKill) {
      EXPECT_EQ(result.checkpoints, 0);
    }
  }
}

// --- Streaming submission ---------------------------------------------------

void ExpectResultEq(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.wasted_core_hours, b.wasted_core_hours);
  EXPECT_EQ(a.lost_work_core_hours, b.lost_work_core_hours);
  EXPECT_EQ(a.overhead_core_hours, b.overhead_core_hours);
  EXPECT_EQ(a.total_busy_core_hours, b.total_busy_core_hours);
  EXPECT_EQ(a.energy_kwh, b.energy_kwh);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.incremental_checkpoints, b.incremental_checkpoints);
  EXPECT_EQ(a.local_restores, b.local_restores);
  EXPECT_EQ(a.remote_restores, b.remote_restores);
  EXPECT_EQ(a.restarts_from_scratch, b.restarts_from_scratch);
  EXPECT_EQ(a.total_dump_time, b.total_dump_time);
  EXPECT_EQ(a.total_restore_time, b.total_restore_time);
  EXPECT_EQ(a.peak_checkpoint_bytes, b.peak_checkpoint_bytes);
  EXPECT_EQ(a.total_checkpoint_bytes_written, b.total_checkpoint_bytes_written);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.sched_decisions, b.sched_decisions);
  EXPECT_EQ(a.node_failures, b.node_failures);
  EXPECT_EQ(a.tasks_interrupted_by_failure, b.tasks_interrupted_by_failure);
  EXPECT_EQ(a.images_lost_to_failure, b.images_lost_to_failure);
  EXPECT_EQ(a.images_survived_failure, b.images_survived_failure);
  EXPECT_EQ(a.all_job_responses.samples(), b.all_job_responses.samples());
  for (size_t band = 0; band < a.task_response_by_band.size(); ++band) {
    EXPECT_EQ(a.task_response_by_band[band].samples(),
              b.task_response_by_band[band].samples());
  }
}

// A checkpoint-policy run with DFS images and two mid-run crashes (node 0
// recovers, node 3 stays down), so images are lost, evacuated and restored
// remotely. `streaming` submits through SubmitStream instead of Submit.
SimulationResult RunCrashScenario(bool streaming) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(24, Resources{16.0, GiB(64)}, StorageMedium::Ssd());
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  config.checkpoint_to_dfs = true;
  ClusterScheduler scheduler(&sim, &cluster, config);
  GoogleTraceConfig trace_config;
  trace_config.sample_jobs = 120;
  trace_config.seed = 11;
  GoogleTraceGenerator gen(trace_config);
  std::unique_ptr<WorkloadStream> stream;
  Workload workload;
  if (streaming) {
    stream = gen.StreamWorkloadSample();
    scheduler.SubmitStream(stream.get());
  } else {
    workload = gen.GenerateWorkloadSample();
    scheduler.Submit(workload);
  }
  scheduler.InjectNodeFailure(NodeId(0), Minutes(40), Minutes(15));
  scheduler.InjectNodeFailure(NodeId(3), Minutes(90), -1);
  return scheduler.Run();
}

TEST(ClusterScheduler, StreamedRunsAreReproducible) {
  const SimulationResult a = RunCrashScenario(/*streaming=*/true);
  const SimulationResult b = RunCrashScenario(/*streaming=*/true);
  ExpectResultEq(a, b);
  EXPECT_GT(a.remote_restores, 0);
}

TEST(ClusterScheduler, StreamedRunAgreesWithSubmitOnTotals) {
  // Arrival ties may serialize differently (see SubmitStream), so only the
  // conservation totals are comparable across the two submission paths.
  const SimulationResult streamed = RunCrashScenario(/*streaming=*/true);
  const SimulationResult submitted = RunCrashScenario(/*streaming=*/false);
  EXPECT_GT(submitted.tasks_completed, 0);
  EXPECT_EQ(streamed.tasks_completed, submitted.tasks_completed);
  EXPECT_EQ(streamed.jobs_completed, submitted.jobs_completed);
  EXPECT_EQ(streamed.node_failures, submitted.node_failures);
}

// --- Checkpoint lifecycle under faults ---------------------------------------

// One cell of a fault matrix on two SSD nodes: periodic Young/Daly dumps,
// 5% transient storage write and read faults, and a 30-minute crash of
// each node, so every dump and restore completion, I/O failure, and crash
// unwind of the checkpoint lifecycle runs, for preemption and periodic
// dumps alike.
struct LifecycleCell {
  const char* name;
  PreemptionPolicy policy;
  bool interference;
  bool incremental;
};

void PrintTo(const LifecycleCell& cell, std::ostream* os) { *os << cell.name; }

class CheckpointLifecycle : public ::testing::TestWithParam<LifecycleCell> {};

TEST_P(CheckpointLifecycle, ConservesTasksStorageAndWaste) {
  const LifecycleCell& cell = GetParam();
  GoogleTraceConfig trace_config;
  trace_config.sample_jobs = 80;
  trace_config.seed = 11;
  const Workload workload =
      GoogleTraceGenerator(trace_config).GenerateWorkloadSample();

  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{16.0, GiB(64)}, StorageMedium::Ssd());
  Observability obs;
  SchedulerConfig config;
  config.policy = cell.policy;
  config.medium = StorageMedium::Ssd();
  config.incremental_checkpoints = cell.incremental;
  config.interference.enabled = cell.interference;
  config.periodic_ckpt_mtbf = Hours(4);
  config.fault.storage_write_fail_prob = 0.05;
  config.fault.storage_read_fail_prob = 0.05;
  config.fault.node_crashes = {{NodeId(0), Hours(1), Minutes(30)},
                               {NodeId(1), Hours(3), Minutes(30)}};
  config.obs = &obs;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  const SimulationResult result = scheduler.Run();

  EXPECT_EQ(result.tasks_completed, workload.TotalTasks());
  // Completed tasks release their images, and every failed or abandoned
  // dump gives its reservation back: nothing stays reserved.
  for (Node* node : cluster.nodes()) {
    EXPECT_EQ(node->storage().used(), 0) << "node " << node->id().value();
  }
  // Every waste charge reached the ledger under a reconciling cause.
  ASSERT_GT(result.wasted_core_hours, 0);
  EXPECT_NEAR(obs.waste().ReconcilableCoreHours(), result.wasted_core_hours,
              1e-9 * result.wasted_core_hours);
  // The matrix reaches the failure paths it exists for.
  EXPECT_GT(result.periodic_checkpoint_failures, 0);
  EXPECT_GT(result.dump_failures, 0);
  EXPECT_GT(result.restore_failures, 0);
  EXPECT_GT(result.node_failures, 0);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, CheckpointLifecycle,
    ::testing::Values(
        LifecycleCell{"Checkpoint", PreemptionPolicy::kCheckpoint, false,
                      true},
        LifecycleCell{"Adaptive", PreemptionPolicy::kAdaptive, false, true},
        LifecycleCell{"CheckpointInterference", PreemptionPolicy::kCheckpoint,
                      true, true},
        LifecycleCell{"AdaptiveInterference", PreemptionPolicy::kAdaptive,
                      true, true},
        // Full dumps only: each dump replaces the image it finds.
        LifecycleCell{"CheckpointFullDumps", PreemptionPolicy::kCheckpoint,
                      false, false}),
    [](const ::testing::TestParamInfo<LifecycleCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ckpt
