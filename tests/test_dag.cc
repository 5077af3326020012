#include "dag/dag.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "obs/observability.h"

namespace ckpt {
namespace {

YarnConfig SmallYarn(PreemptionPolicy policy, MediaKind media) {
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = policy;
  config.medium = MediumFor(media);
  return config;
}

DagStageSpec Stage(int id, std::vector<int> deps, int tasks,
                   SimDuration duration, Bytes output = 0) {
  DagStageSpec stage;
  stage.id = id;
  stage.depends_on = std::move(deps);
  stage.num_tasks = tasks;
  stage.task_duration = duration;
  stage.output_bytes = output;
  stage.demand = Resources{1.0, GiB(1)};
  return stage;
}

TEST(DagValidate, AcceptsWellFormedDags) {
  DagJobSpec job;
  job.stages = {Stage(0, {}, 2, Seconds(10)), Stage(1, {0}, 2, Seconds(10)),
                Stage(2, {0, 1}, 1, Seconds(10))};
  EXPECT_TRUE(job.Validate());
}

TEST(DagValidate, RejectsDuplicateIds) {
  DagJobSpec job;
  job.stages = {Stage(0, {}, 1, Seconds(1)), Stage(0, {}, 1, Seconds(1))};
  EXPECT_FALSE(job.Validate());
}

TEST(DagValidate, RejectsUnknownDependency) {
  DagJobSpec job;
  job.stages = {Stage(0, {7}, 1, Seconds(1))};
  EXPECT_FALSE(job.Validate());
}

TEST(DagValidate, RejectsSelfDependency) {
  DagJobSpec job;
  job.stages = {Stage(0, {0}, 1, Seconds(1))};
  EXPECT_FALSE(job.Validate());
}

TEST(DagValidate, RejectsCycles) {
  DagJobSpec job;
  job.stages = {Stage(0, {1}, 1, Seconds(1)), Stage(1, {0}, 1, Seconds(1))};
  EXPECT_FALSE(job.Validate());
}

DagJobSpec DiamondJob(JobId id, int priority, SimTime submit = 0) {
  DagJobSpec job;
  job.id = id;
  job.submit_time = submit;
  job.priority = priority;
  job.stages = {
      Stage(0, {}, 4, Seconds(30), MiB(64)),      // source
      Stage(1, {0}, 2, Seconds(40), MiB(32)),     // left branch
      Stage(2, {0}, 2, Seconds(20), MiB(32)),     // right branch
      Stage(3, {1, 2}, 1, Seconds(30)),           // join
  };
  return job;
}

TEST(DagExecution, DiamondRunsInTopologicalOrder) {
  const YarnResult result = RunDagWorkload(
      {DiamondJob(JobId(0), 1)}, SmallYarn(PreemptionPolicy::kKill,
                                           MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 9);
  // Critical path: 30 (source) + 40 (left) + 30 (join) plus fetch time.
  EXPECT_GE(ToSeconds(result.makespan), 100.0);
  EXPECT_LT(ToSeconds(result.makespan), 130.0);
}

TEST(DagExecution, DownstreamFetchesFromEveryUpstreamTask) {
  const YarnResult result = RunDagWorkload(
      {DiamondJob(JobId(0), 1)}, SmallYarn(PreemptionPolicy::kKill,
                                           MediaKind::kNvm));
  // Stage1 (2 tasks) + stage2 (2 tasks) fetch from stage0; stage3 (1 task)
  // fetches from stages 1 and 2: 5 fetch rounds.
  EXPECT_EQ(result.input_fetches, 5);
  // Bytes: each branch stage pulls the full 4x64 MiB of stage-0 output
  // (32 MiB slice x 4 sources x 2 tasks = 256 MiB per branch); the join
  // pulls 2x32 MiB from each branch = 128 MiB.
  EXPECT_EQ(result.input_bytes_moved, MiB(256 + 256 + 128));
}

TEST(DagExecution, IndependentStagesRunConcurrently) {
  DagJobSpec job;
  job.id = JobId(0);
  job.priority = 1;
  job.stages = {Stage(0, {}, 4, Seconds(60)), Stage(1, {}, 4, Seconds(60))};
  const YarnResult result = RunDagWorkload(
      {job}, SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm));
  // 8 tasks on 8 containers: both stages run in one concurrent wave.
  EXPECT_NEAR(ToSeconds(result.makespan), 60.0, 5.0);
}

TEST(DagExecution, EmptyDagCompletesImmediately) {
  DagJobSpec job;
  job.id = JobId(0);
  const YarnResult result = RunDagWorkload(
      {job}, SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.makespan, 0);
}

TEST(DagExecution, ZeroTaskStageDoesNotBlockDownstream) {
  DagJobSpec job;
  job.id = JobId(0);
  job.priority = 1;
  job.stages = {Stage(0, {}, 0, Seconds(10)), Stage(1, {0}, 2, Seconds(20))};
  const YarnResult result = RunDagWorkload(
      {job}, SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 2);
}

// Preemption behaviour mirroring the MapReduce findings, on a deeper DAG.
std::vector<DagJobSpec> ContendedDagWorkload() {
  std::vector<DagJobSpec> jobs;
  DagJobSpec batch = DiamondJob(JobId(0), 1);
  batch.stages[1].task_duration = Minutes(4);  // long left branch
  jobs.push_back(batch);

  DagJobSpec burst;
  burst.id = JobId(1);
  burst.submit_time = Seconds(60);
  burst.priority = 9;
  burst.stages = {Stage(0, {}, 8, Seconds(40))};
  jobs.push_back(burst);
  return jobs;
}

TEST(DagPreemption, CheckpointPreservesBranchProgress) {
  const YarnResult kill = RunDagWorkload(
      ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kKill,
                                        MediaKind::kNvm));
  const YarnResult chk = RunDagWorkload(
      ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kCheckpoint,
                                        MediaKind::kNvm));
  EXPECT_EQ(kill.jobs_completed, 2);
  EXPECT_EQ(chk.jobs_completed, 2);
  EXPECT_GT(kill.kills, 0);
  EXPECT_GT(kill.lost_work_core_hours, 0);
  EXPECT_EQ(chk.lost_work_core_hours, 0);
  // The batch DAG finishes sooner when its branch progress survives.
  EXPECT_LT(chk.all_job_responses.sum(), kill.all_job_responses.sum());
}

TEST(DagPreemption, KilledTasksRefetchInputs) {
  const YarnResult kill = RunDagWorkload(
      ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kKill,
                                        MediaKind::kNvm));
  // 5 baseline fetch rounds; kills force repeats.
  EXPECT_GT(kill.input_fetches, 5);
}

// An image holds the fetched inputs as well as the progress: a checkpointed
// task resumes without fetching again, on every medium.
TEST(DagPreemption, CheckpointImagesKeepFetchedInputs) {
  for (MediaKind media : {MediaKind::kHdd, MediaKind::kSsd, MediaKind::kNvm}) {
    SCOPED_TRACE(static_cast<int>(media));
    const YarnResult chk = RunDagWorkload(
        ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kCheckpoint,
                                          media));
    EXPECT_EQ(chk.jobs_completed, 2);
    ASSERT_GT(chk.checkpoints, 0);
    EXPECT_EQ(chk.restores, chk.checkpoints);
    EXPECT_EQ(chk.input_fetches, 5);
    EXPECT_EQ(chk.input_bytes_moved, MiB(256 + 256 + 128));
  }
}

// A batch job whose second stage pulls `output` bytes from each first-stage
// task, then computes for 10 minutes; a burst takes every container at
// `burst_at`.
std::vector<DagJobSpec> ShuffleWorkload(Bytes output, SimTime burst_at) {
  DagJobSpec batch;
  batch.id = JobId(0);
  batch.priority = 1;
  batch.stages = {Stage(0, {}, 8, Seconds(20), output),
                  Stage(1, {0}, 8, Minutes(10))};
  DagJobSpec burst;
  burst.id = JobId(1);
  burst.submit_time = burst_at;
  burst.priority = 9;
  burst.stages = {Stage(0, {}, 8, Seconds(30))};
  return {batch, burst};
}

// Algorithm 1 puts the inputs a kill would forfeit on the at-stake side.
// Tasks with nothing to refetch are killed 8 s into their run; tasks that
// fetched 16 GiB each are checkpointed although less progress is at stake.
TEST(DagPreemption, InputRefetchCostFavoursCheckpoint) {
  const YarnConfig adaptive =
      SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kSsd);
  const YarnResult light =
      RunDagWorkload(ShuffleWorkload(0, Seconds(28)), adaptive);
  const YarnResult heavy =
      RunDagWorkload(ShuffleWorkload(GiB(16), Seconds(40)), adaptive);
  // The kill policy measures the progress at stake in the heavy run.
  const YarnResult heavy_kill =
      RunDagWorkload(ShuffleWorkload(GiB(16), Seconds(40)),
                     SmallYarn(PreemptionPolicy::kKill, MediaKind::kSsd));

  EXPECT_EQ(light.preempt_events, 8);
  EXPECT_EQ(light.kills, 8);
  EXPECT_EQ(light.checkpoints, 0);
  EXPECT_EQ(heavy.preempt_events, 8);
  EXPECT_EQ(heavy.kills, 0);
  EXPECT_EQ(heavy.checkpoints, 8);
  EXPECT_EQ(heavy.lost_work_core_hours, 0);
  EXPECT_EQ(heavy_kill.kills, 8);
  EXPECT_GT(heavy_kill.lost_work_core_hours, 0);
  EXPECT_LT(heavy_kill.lost_work_core_hours, light.lost_work_core_hours);
  EXPECT_EQ(heavy.jobs_completed, 2);
  EXPECT_EQ(light.jobs_completed, 2);
}

TEST(DagPreemption, DeterministicAcrossRuns) {
  const YarnResult a = RunDagWorkload(
      ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kAdaptive,
                                        MediaKind::kSsd));
  const YarnResult b = RunDagWorkload(
      ContendedDagWorkload(), SmallYarn(PreemptionPolicy::kAdaptive,
                                        MediaKind::kSsd));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
}

// DAG runs reach observability through YarnCluster: recording must not
// change a decision, and the AM records the decisions it makes.
TEST(DagPreemption, ObservabilityDoesNotPerturbDecisions) {
  YarnConfig config = SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kSsd);
  const YarnResult plain = RunDagWorkload(ContendedDagWorkload(), config);
  Observability obs;
  config.obs = &obs;
  const YarnResult traced = RunDagWorkload(ContendedDagWorkload(), config);
  EXPECT_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.all_job_responses.samples(),
            plain.all_job_responses.samples());
  EXPECT_EQ(traced.kills, plain.kills);
  EXPECT_EQ(traced.checkpoints, plain.checkpoints);
  EXPECT_EQ(traced.input_fetches, plain.input_fetches);
  ASSERT_GT(plain.checkpoints, 0);
  std::int64_t decisions = 0;
  for (const char* action :
       {"kill", "checkpoint_full", "checkpoint_incremental"}) {
    decisions += obs.metrics()
                     .GetCounter("policy.decisions",
                                 {{"policy", "Adaptive"}, {"action", action}})
                     ->value();
  }
  EXPECT_GE(decisions, plain.checkpoints);
}

// A traced DAG run exports the run totals every YARN run exports, so
// ckpt-report prints its run line, and its waste ledger reconciles with
// them as ckpt-report checks: within 1% of the wasted core-hours.
TEST(DagPreemption, TracedRunExportsReconcilingRunTotals) {
  YarnConfig config = SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kSsd);
  Observability obs;
  config.obs = &obs;
  const YarnResult result = RunDagWorkload(ContendedDagWorkload(), config);
  ASSERT_GT(result.checkpoints, 0);

  MetricsRegistry& m = obs.metrics();
  const std::string json = m.ToJson();
  for (const char* gauge :
       {"sim.events_processed", "sched.busy_core_hours",
        "sched.wasted_core_hours", "sched.lost_work_core_hours",
        "sched.overhead_core_hours", "sched.goodput_core_hours",
        "sched.decisions"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + gauge + "\""),
              std::string::npos)
        << gauge;
  }
  EXPECT_GT(m.GetGauge("sim.events_processed")->value(), 0);

  // Decisions: each container allocated plus each preemption notice sent.
  std::int64_t notices = 0;
  for (std::size_t i = 0; i < obs.audit().size(); ++i) {
    const AuditRecord record = obs.audit().record(i);
    if (record.kind != "rm_preempt_dispatch") continue;
    for (const TraceArgs& candidate : record.candidates) {
      for (const TraceArg& arg : candidate) {
        if (arg.key == "action" && arg.str == "dispatched") ++notices;
      }
    }
  }
  ASSERT_EQ(obs.audit().dropped(), 0);
  EXPECT_GE(notices, result.preempt_events);
  EXPECT_EQ(m.GetGauge("sched.decisions")->value(),
            static_cast<double>(m.GetCounter("rm.allocations")->value() +
                                notices));

  const double wasted = m.GetGauge("sched.wasted_core_hours")->value();
  EXPECT_EQ(wasted, result.wasted_core_hours);
  ASSERT_GT(wasted, 0);
  const double attributed =
      m.GetGauge("waste.reconcilable_core_hours", {{"policy", "Adaptive"}})
          ->value();
  EXPECT_LE(std::fabs(attributed - wasted), 0.01 * wasted);
}

// Three diamonds at rising priorities, 30 s apart.
std::vector<DagJobSpec> DiamondMix() {
  std::vector<DagJobSpec> jobs;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(DiamondJob(JobId(j), 1 + 4 * j, Seconds(30 * j)));
  }
  return jobs;
}

TEST(DagPreemption, AdaptiveCompletesMultiTenantMix) {
  const YarnResult result = RunDagWorkload(
      DiamondMix(), SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kHdd));
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_EQ(result.tasks_completed, 27);
}

// DAG jobs run on YarnCluster, so its FaultPlan reaches them: a node crash
// and transient storage faults cost work, yet every job still completes.
class DagFaults : public ::testing::TestWithParam<
                      std::tuple<PreemptionPolicy, MediaKind>> {};

TEST_P(DagFaults, CrashAndStorageFaultsStillComplete) {
  const auto [policy, media] = GetParam();
  YarnConfig config = SmallYarn(policy, media);
  config.fault.node_crashes.push_back({NodeId(0), Seconds(90), Seconds(60)});
  config.fault.storage_write_fail_prob = 0.05;
  config.fault.storage_read_fail_prob = 0.05;

  const YarnResult contended =
      RunDagWorkload(ContendedDagWorkload(), config);
  EXPECT_EQ(contended.jobs_completed, 2);
  EXPECT_EQ(contended.tasks_completed, 17);
  EXPECT_GT(contended.lost_work_core_hours, 0);

  const YarnResult mix = RunDagWorkload(DiamondMix(), config);
  EXPECT_EQ(mix.jobs_completed, 3);
  EXPECT_EQ(mix.tasks_completed, 27);
  EXPECT_GT(mix.lost_work_core_hours, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMedia, DagFaults,
    ::testing::Combine(::testing::Values(PreemptionPolicy::kCheckpoint,
                                         PreemptionPolicy::kAdaptive),
                       ::testing::Values(MediaKind::kSsd, MediaKind::kNvm)));

// A task that dies with its node holds no image, so it loses its fetched
// inputs along with its progress and fetches them again, as a killed task
// does. Node 0 crashes 45 s in, while the branch stages run.
TEST(DagNodeCrash, LostTaskRefetchesItsInputs) {
  YarnConfig config = SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm);
  config.fault.node_crashes.push_back({NodeId(0), Seconds(45), Seconds(30)});
  const YarnResult result =
      RunDagWorkload({DiamondJob(JobId(0), 1)}, config);
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 9);
  EXPECT_EQ(result.preempt_events, 0);
  EXPECT_GT(result.lost_work_core_hours, 0);
  // Without the crash: 5 fetch rounds moving 640 MiB.
  EXPECT_GT(result.input_fetches, 5);
  EXPECT_GT(result.input_bytes_moved, MiB(256 + 256 + 128));
}

}  // namespace
}  // namespace ckpt
