// DistributedShell-style ApplicationMaster with the paper's Preemption
// Manager (S5.2). Plain jobs and DAG jobs (src/dag) both run on it.
//
// The AM requests one container per runnable task, launches tasks when
// containers arrive (restoring from a checkpoint image when one exists), and
// handles ContainerPreemptEvents: Algorithm 1 decides kill vs (incremental)
// checkpoint using the engine's dump/restore estimates; a checkpointed task
// re-enters the ask queue with a locality preference on its image's node so
// the RM can realize cost-aware local resumption (Algorithm 2).
//
// A job's tasks form stages. A stage becomes runnable once every input
// stage has finished, and each of its tasks first fetches its slice of every
// input task's output (Spark's shuffle, Dryad's channels). Killing such a
// task forfeits the fetched inputs as well as its progress, so the refetch
// time joins the at-stake side of Algorithm 1; an image keeps both. A plain
// job is one stage with no inputs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "common/rng.h"
#include "dfs/network.h"
#include "scheduler/policy.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_config.h"

namespace ckpt {

enum class WasteCause;

// One stage of an AM's job. Stages cover job.tasks in order: the first
// stage owns the first num_tasks tasks, the next one the tasks after them.
struct JobStage {
  int num_tasks = 0;
  std::vector<int> inputs;  // indices of the upstream stages
  // Bytes each task of this stage emits; a downstream task fetches
  // output_bytes / (its stage's num_tasks) from every task of this stage.
  Bytes output_bytes = 0;
};

struct AmStats {
  std::int64_t tasks_total = 0;
  std::int64_t tasks_done = 0;
  std::int64_t preempt_events = 0;
  std::int64_t kills = 0;
  std::int64_t checkpoints = 0;
  std::int64_t incremental_checkpoints = 0;
  std::int64_t restores = 0;
  std::int64_t remote_restores = 0;
  // Failure handling: dump/restore I/O that stayed failed after the
  // engine's retry budget, preempts degraded to kill semantics because of
  // it, and containers that vanished with their node.
  std::int64_t dump_failures = 0;
  std::int64_t restore_failures = 0;
  std::int64_t fallback_kills = 0;
  std::int64_t containers_lost = 0;
  std::int64_t input_fetches = 0;  // including refetches after kills
  Bytes input_bytes_moved = 0;
  SimDuration lost_work = 0;        // killed, unsaved progress
  SimDuration dump_time = 0;        // container-held dump duration
  SimDuration restore_time = 0;     // container-held restore duration
  std::vector<double> task_response_seconds;
};

class DistributedShellAm final : public AppClient {
 public:
  // `stages` partitions job.tasks (empty: one stage of every task, no
  // inputs); `seed` drives the dirty-page draws.
  DistributedShellAm(Simulator* sim, ResourceManager* rm,
                     CheckpointEngine* engine, NetworkModel* network,
                     const JobSpec& job, std::vector<JobStage> stages,
                     std::uint64_t seed, const YarnConfig& config,
                     std::function<void(const DistributedShellAm&)> on_done);
  ~DistributedShellAm() override;

  DistributedShellAm(const DistributedShellAm&) = delete;
  DistributedShellAm& operator=(const DistributedShellAm&) = delete;

  // Register with the RM and ask for one container per runnable task.
  void Start();

  // AppClient ---------------------------------------------------------------
  void OnContainerAllocated(const Container& container) override;
  void OnPreemptContainer(ContainerId id) override;
  void OnContainerLost(ContainerId id) override;

  bool Done() const { return stats_.tasks_done == stats_.tasks_total; }
  SimTime finish_time() const { return finish_time_; }
  const JobSpec& job() const { return job_; }
  const AmStats& stats() const { return stats_; }
  AppId app_id() const { return app_; }

 private:
  struct TaskRt;
  struct StageRt;

  // Queue the tasks of every stage whose inputs have all finished.
  void ActivateReadyStages();
  void LaunchTask(TaskRt* task, const Container& container);
  // Run in the held container, fetching the stage's inputs first when the
  // task does not hold them.
  void Execute(TaskRt* task);
  void StartFetch(TaskRt* task);
  void RunTask(TaskRt* task);
  void OnTaskComplete(TaskRt* task, int attempt);
  void HandlePreempt(TaskRt* task);
  void KillTask(TaskRt* task);
  // Back to the last image: progress since it is lost, and so are fetched
  // inputs unless an image holds them.
  void RollBack(TaskRt* task);
  // The one way a task leaves a container it has not finished in: a dump
  // or restore still in flight is cancelled so its late completion cannot
  // commit, the container goes back to the RM (unless it died with its
  // node), and the task asks for a new one.
  void RequeueTask(TaskRt* task, bool release);
  // Network time to fetch the task's inputs again; 0 when it holds none.
  SimDuration InputRefetchCost(const TaskRt* task) const;
  // Mark the pages the run dirtied since the last dump.
  void TouchDirtyPages(TaskRt* task);
  // Algorithm 1's overhead of checkpointing a task where it runs: the
  // node's dump-queue backlog, the dump's service time and a local
  // restore's.
  struct DumpCost {
    SimDuration queue = 0;
    SimDuration dump_service = 0;
    SimDuration restore = 0;
    SimDuration Overhead() const { return queue + dump_service + restore; }
  };
  DumpCost EstimateDumpCost(const TaskRt* task, bool can_increment) const;
  // Freeze the task and dump it; `cost` is what HandlePreempt estimated for
  // this dump.
  void CheckpointTask(TaskRt* task, bool incremental, const DumpCost& cost);
  // Tick policy.decisions and emit the am_decision audit record: the cost
  // terms weighed for `task` and the chosen action.
  void RecordPolicyDecision(const TaskRt* task, bool can_increment,
                            const DumpCost& cost, const char* action);
  // Mirror an AmStats waste increment into the obs waste ledger (no-op
  // without obs); `sim_lost` converts at the container's CPU width.
  void ChargeWaste(WasteCause cause, SimDuration sim_lost, NodeId node);

  Simulator* sim_;
  ResourceManager* rm_;
  CheckpointEngine* engine_;
  NetworkModel* network_;
  JobSpec job_;
  YarnConfig config_;
  std::function<void(const DistributedShellAm&)> on_done_;
  Rng rng_;

  AppId app_;
  std::vector<StageRt> stages_;
  std::vector<std::unique_ptr<TaskRt>> tasks_;
  std::deque<TaskRt*> waiting_;
  std::unordered_map<ContainerId, TaskRt*> by_container_;

  AmStats stats_;
  SimTime finish_time_ = -1;
};

}  // namespace ckpt
