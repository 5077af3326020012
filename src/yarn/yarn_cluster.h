// Top-level facade: wires the simulator, nodes, network, HDFS, the CRIU-like
// engine, the ResourceManager and per-job ApplicationMasters, runs the
// submitted jobs, and aggregates the paper's S5.3 metrics. Plain, DAG and
// MapReduce jobs all run and report through here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "cluster/cluster.h"
#include "dfs/dfs.h"
#include "metrics/stats.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "yarn/app_master.h"
#include "yarn/node_manager.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_config.h"

namespace ckpt {

struct YarnResult {
  // Fig. 8a: CPU core-hours lost to re-execution plus checkpoint/restore.
  double wasted_core_hours = 0;
  double lost_work_core_hours = 0;
  double overhead_core_hours = 0;
  double total_busy_core_hours = 0;

  // Fig. 8b.
  double energy_kwh = 0;

  // Fig. 8c / 9 / 10 / 11: per-band job & task response times (seconds).
  SummaryStats low_priority_job_responses;
  SummaryStats high_priority_job_responses;
  SummaryStats all_job_responses;
  std::vector<double> all_task_responses;

  // Fig. 12.
  double checkpoint_cpu_overhead = 0;  // ckpt core-time / busy core-time
  double io_overhead = 0;              // device busy / (nodes * makespan)
  double storage_used_fraction = 0;    // peak image bytes / total capacity

  std::int64_t preempt_events = 0;
  std::int64_t kills = 0;
  std::int64_t checkpoints = 0;
  std::int64_t incremental_checkpoints = 0;
  std::int64_t restores = 0;
  std::int64_t remote_restores = 0;
  // Staged jobs' input fetches (a reduce's shuffle partitions, a DAG
  // task's upstream outputs), refetches after kills included.
  std::int64_t input_fetches = 0;
  Bytes input_bytes_moved = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t tasks_completed = 0;
  SimDuration makespan = 0;

  // Failure-scenario accounting (zero when no FaultPlan is configured).
  std::int64_t node_failures = 0;
  std::int64_t containers_lost = 0;
  std::int64_t dump_failures = 0;
  std::int64_t restore_failures = 0;
  std::int64_t fallback_kills = 0;
  std::int64_t checkpoint_retries = 0;
  std::int64_t corrupt_images = 0;
  std::int64_t blocks_rereplicated = 0;
  std::int64_t dfs_files_lost = 0;
  std::int64_t faults_injected = 0;
  // Goodput: busy core-hours that ended up in completed work rather than
  // lost re-execution or checkpoint overhead.
  double goodput_core_hours = 0;
};

class YarnCluster {
 public:
  explicit YarnCluster(YarnConfig config);
  ~YarnCluster();

  YarnCluster(const YarnCluster&) = delete;
  YarnCluster& operator=(const YarnCluster&) = delete;

  // Submit every job at its submit_time, then Run().
  YarnResult RunWorkload(const Workload& workload);

  // Create the AM for `job` (DistributedShellAm describes `stages` and
  // `seed`) and start it at job.submit_time.
  void Submit(const JobSpec& job, std::vector<JobStage> stages,
              std::uint64_t seed);

  // Run every submitted job to completion and aggregate; call once.
  YarnResult Run();

  // Script a node crash at `at`; with `down_for >= 0` the node rejoins
  // (empty) after that long. Crashes listed in config.fault.node_crashes
  // are scheduled automatically at construction.
  void InjectNodeFailure(NodeId node, SimTime at, SimDuration down_for = -1);

  Simulator& sim() { return *sim_; }
  ResourceManager& rm() { return *rm_; }
  CheckpointEngine& engine() { return *engine_; }
  DfsCluster& dfs() { return *dfs_; }
  Cluster& cluster() { return *cluster_; }

 private:
  YarnConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<DfsCluster> dfs_;
  std::unique_ptr<DfsStore> store_;
  std::unique_ptr<CheckpointEngine> engine_;
  std::unique_ptr<FaultInjector> fault_;
  std::vector<std::unique_ptr<NodeManager>> node_managers_;
  std::unique_ptr<ResourceManager> rm_;
  std::vector<std::unique_ptr<DistributedShellAm>> ams_;
  // Job responses, bands and makespan, recorded as jobs finish.
  YarnResult result_;
};

}  // namespace ckpt
