#include "mapreduce/mapreduce.h"

#include <gtest/gtest.h>

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

MapReduceJobSpec MrJob(JobId id, int priority, int maps, int reduces,
                       SimTime submit = 0) {
  MapReduceJobSpec job;
  job.id = id;
  job.submit_time = submit;
  job.priority = priority;
  job.num_maps = maps;
  job.num_reduces = reduces;
  job.map_duration = Seconds(30);
  job.reduce_duration = Seconds(60);
  job.map_output_bytes = MiB(64);
  return job;
}

TEST(MapReduce, SingleJobRunsBothPhases) {
  const YarnResult result = RunMapReduceWorkload(
      {MrJob(JobId(0), 1, 8, 4)}, SmallYarn(PreemptionPolicy::kKill,
                                            MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 12);
  EXPECT_EQ(result.input_fetches, 4);
  EXPECT_GT(result.input_bytes_moved, 0);
  // 8 maps on 8 slots (30 s) + shuffle + reduce (60 s): ~95-120 s.
  EXPECT_GT(ToSeconds(result.makespan), 90.0);
  EXPECT_LT(ToSeconds(result.makespan), 150.0);
}

TEST(MapReduce, ReducesWaitForAllMaps) {
  // 10 maps on 8 slots: two map waves before any reduce may start, so the
  // makespan is at least 2 x 30 s + 60 s.
  const YarnResult result = RunMapReduceWorkload(
      {MrJob(JobId(0), 1, 10, 2)}, SmallYarn(PreemptionPolicy::kKill,
                                             MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_GE(ToSeconds(result.makespan), 120.0);
}

TEST(MapReduce, ZeroReduceJobIsMapOnly) {
  const YarnResult result = RunMapReduceWorkload(
      {MrJob(JobId(0), 1, 6, 0)}, SmallYarn(PreemptionPolicy::kKill,
                                            MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.tasks_completed, 6);
  EXPECT_EQ(result.input_fetches, 0);
}

TEST(MapReduce, EmptyJobCompletesImmediately) {
  const YarnResult result = RunMapReduceWorkload(
      {MrJob(JobId(0), 1, 0, 0)}, SmallYarn(PreemptionPolicy::kKill,
                                            MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 1);
  EXPECT_EQ(result.makespan, 0);
}

// The headline scenario: a production burst lands mid-reduce.
std::vector<MapReduceJobSpec> ContendedWorkload() {
  std::vector<MapReduceJobSpec> jobs;
  MapReduceJobSpec batch = MrJob(JobId(0), 1, 8, 8);
  batch.reduce_duration = Seconds(240);
  jobs.push_back(batch);
  // High-priority job arrives while the reduces are running.
  MapReduceJobSpec burst = MrJob(JobId(1), 9, 8, 0, Seconds(90));
  jobs.push_back(burst);
  return jobs;
}

TEST(MapReduce, KillPolicyRepeatsShuffles) {
  const YarnResult result = RunMapReduceWorkload(
      ContendedWorkload(), SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_GT(result.kills, 0);
  // Killed reduces refetch their partitions: more fetches than reduces.
  EXPECT_GT(result.input_fetches, 8);
}

TEST(MapReduce, CheckpointPreservesShuffleAndProgress) {
  const YarnResult result = RunMapReduceWorkload(
      ContendedWorkload(),
      SmallYarn(PreemptionPolicy::kCheckpoint, MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_GT(result.checkpoints, 0);
  // A checkpointed reduce resumes with its partition: one fetch per reduce.
  EXPECT_EQ(result.input_fetches, 8);
  EXPECT_EQ(result.lost_work_core_hours, 0);
}

TEST(MapReduce, CheckpointBeatsKillOnBatchResponse) {
  const YarnResult kill = RunMapReduceWorkload(
      ContendedWorkload(), SmallYarn(PreemptionPolicy::kKill, MediaKind::kNvm));
  const YarnResult chk = RunMapReduceWorkload(
      ContendedWorkload(),
      SmallYarn(PreemptionPolicy::kCheckpoint, MediaKind::kNvm));
  ASSERT_EQ(kill.all_job_responses.count(), 2);
  ASSERT_EQ(chk.all_job_responses.count(), 2);
  // The batch job (largest response) finishes sooner with checkpointing.
  EXPECT_LT(chk.all_job_responses.Max(), kill.all_job_responses.Max());
}

TEST(MapReduce, AdaptiveWeighsShuffleIntoDecision) {
  // On HDD, dumping a 2 GiB reduce costs ~70 s; with the shuffle refetch
  // folded into the at-stake side, reduces with fetched partitions are
  // checkpointed rather than killed.
  const YarnResult result = RunMapReduceWorkload(
      ContendedWorkload(),
      SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kHdd));
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_GT(result.preempt_events, 0);
}

TEST(MapReduce, DeterministicAcrossRuns) {
  const YarnResult a = RunMapReduceWorkload(
      ContendedWorkload(),
      SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kSsd));
  const YarnResult b = RunMapReduceWorkload(
      ContendedWorkload(),
      SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kSsd));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.input_fetches, b.input_fetches);
}

TEST(MapReduce, MultipleJobsShareTheCluster) {
  std::vector<MapReduceJobSpec> jobs;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(MrJob(JobId(j), 1 + j, 6, 3, Seconds(20 * j)));
  }
  const YarnResult result = RunMapReduceWorkload(
      jobs, SmallYarn(PreemptionPolicy::kAdaptive, MediaKind::kNvm));
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_EQ(result.tasks_completed, 27);
}

}  // namespace
}  // namespace ckpt
