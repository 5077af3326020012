// NVRAM-as-virtual-memory extensions (paper S3.2.3): shadow buffering and
// lazy copy-on-touch restore on the byte-addressable NVRAM medium.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"

namespace ckpt {
namespace {

Workload TwoJobWorkload() {
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  TaskSpec task;
  task.id = TaskId(0);
  task.job = low.id;
  task.duration = Seconds(60);
  task.demand = Resources{4.0, GiB(5)};
  task.priority = 1;
  task.memory_write_rate = 0.02;
  low.tasks.push_back(task);
  w.jobs.push_back(low);

  JobSpec high = low;
  high.id = JobId(1);
  high.submit_time = Seconds(30);
  high.priority = 9;
  high.tasks[0].id = TaskId(1);
  high.tasks[0].job = high.id;
  high.tasks[0].priority = 9;
  w.jobs.push_back(high);
  return w;
}

SimulationResult RunScenario(const SchedulerConfig& config) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{4.0, GiB(16)}, config.medium);
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(TwoJobWorkload());
  return scheduler.Run();
}

TEST(NvramMedium, FasterThanPmfsFileSystem) {
  const StorageMedium pmfs = StorageMedium::Nvm();
  const StorageMedium nvram = StorageMedium::NvramMemory();
  EXPECT_GT(nvram.write_bw, pmfs.write_bw);
  EXPECT_GT(nvram.read_bw, pmfs.read_bw);
  EXPECT_EQ(nvram.access_latency, 0);
}

TEST(NvramMode, MemoryCheckpointBeatsPmfsOnOverhead) {
  SchedulerConfig pmfs;
  pmfs.policy = PreemptionPolicy::kCheckpoint;
  pmfs.medium = StorageMedium::Nvm();
  const SimulationResult file_result = RunScenario(pmfs);

  SchedulerConfig nvram = pmfs;
  nvram.medium = StorageMedium::NvramMemory();
  const SimulationResult mem_result = RunScenario(nvram);

  EXPECT_GT(mem_result.checkpoints, 0);
  EXPECT_LT(mem_result.total_dump_time, file_result.total_dump_time);
  EXPECT_LT(mem_result.wasted_core_hours, file_result.wasted_core_hours);
}

TEST(NvramMode, ShadowBufferingShrinksDumps) {
  SchedulerConfig base;
  base.policy = PreemptionPolicy::kCheckpoint;
  base.medium = StorageMedium::NvramMemory();
  const SimulationResult plain = RunScenario(base);

  SchedulerConfig shadow = base;
  shadow.shadow_buffering = true;
  const SimulationResult shadowed = RunScenario(shadow);

  ASSERT_GT(plain.checkpoints, 0);
  ASSERT_GT(shadowed.checkpoints, 0);
  // 30 s of background mirroring at 2 GB/s covers the entire 5 GiB image:
  // only metadata remains to dump.
  EXPECT_LT(shadowed.total_checkpoint_bytes_written,
            plain.total_checkpoint_bytes_written / 4);
}

TEST(NvramMode, ShadowDumpNeverNegative) {
  SchedulerConfig shadow;
  shadow.policy = PreemptionPolicy::kCheckpoint;
  shadow.medium = StorageMedium::NvramMemory();
  shadow.shadow_buffering = true;
  const SimulationResult result = RunScenario(shadow);
  ASSERT_GT(result.checkpoints, 0);
  // 30 s of mirroring at 2 GB/s is far more than the 5 GiB image, so the
  // payload clamps at zero; metadata still has to be written.
  EXPECT_EQ(result.total_checkpoint_bytes_written,
            result.checkpoints * 512 * kKiB);
}

TEST(NvramMode, LazyRestoreResumesAlmostInstantly) {
  SchedulerConfig eager;
  eager.policy = PreemptionPolicy::kCheckpoint;
  eager.medium = StorageMedium::NvramMemory();
  const SimulationResult eager_result = RunScenario(eager);

  SchedulerConfig lazy = eager;
  lazy.lazy_restore = true;
  const SimulationResult lazy_result = RunScenario(lazy);

  ASSERT_GT(eager_result.local_restores + eager_result.remote_restores, 0);
  ASSERT_GT(lazy_result.local_restores + lazy_result.remote_restores, 0);
  EXPECT_LT(lazy_result.total_restore_time, eager_result.total_restore_time);
}

TEST(NvramMode, FullStackImprovesLowPriorityResponse) {
  SchedulerConfig kill;
  kill.policy = PreemptionPolicy::kKill;
  kill.medium = StorageMedium::NvramMemory();
  const SimulationResult kill_result = RunScenario(kill);

  SchedulerConfig nvram;
  nvram.policy = PreemptionPolicy::kCheckpoint;
  nvram.medium = StorageMedium::NvramMemory();
  nvram.shadow_buffering = true;
  nvram.lazy_restore = true;
  const SimulationResult nvram_result = RunScenario(nvram);

  const auto low = static_cast<size_t>(PriorityBand::kFree);
  const auto high = static_cast<size_t>(PriorityBand::kProduction);
  EXPECT_LT(nvram_result.job_response_by_band[low].Mean(),
            kill_result.job_response_by_band[low].Mean());
  // With near-free suspend/resume the high-priority job matches kill.
  EXPECT_NEAR(nvram_result.job_response_by_band[high].Mean(),
              kill_result.job_response_by_band[high].Mean(), 2.0);
}

}  // namespace
}  // namespace ckpt
