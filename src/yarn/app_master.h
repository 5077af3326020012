// DistributedShell-style ApplicationMaster with the paper's Preemption
// Manager (S5.2).
//
// The AM requests one container per task, launches tasks when containers
// arrive (restoring from a checkpoint image when one exists), and handles
// ContainerPreemptEvents: Algorithm 1 decides kill vs (incremental)
// checkpoint using the engine's dump/restore estimates; a checkpointed task
// re-enters the ask queue with a locality preference on its image's node so
// the RM can realize cost-aware local resumption (Algorithm 2).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "common/rng.h"
#include "scheduler/policy.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_config.h"

namespace ckpt {

enum class WasteCause;
class Counter;

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
  SimDuration lost_work = 0;        // killed, unsaved progress
  SimDuration dump_time = 0;        // container-held dump duration
  SimDuration restore_time = 0;     // container-held restore duration
  std::vector<double> task_response_seconds;
};

class DistributedShellAm final : public AppClient {
 public:
  DistributedShellAm(Simulator* sim, ResourceManager* rm,
                     CheckpointEngine* engine, const JobSpec& job,
                     const YarnConfig& config,
                     std::function<void(const DistributedShellAm&)> on_done);
  ~DistributedShellAm() override;

  DistributedShellAm(const DistributedShellAm&) = delete;
  DistributedShellAm& operator=(const DistributedShellAm&) = delete;

  // Register with the RM and ask for one container per task.
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

  void LaunchTask(TaskRt* task, const Container& container);
  void RunTask(TaskRt* task);
  void OnTaskComplete(TaskRt* task, int attempt);
  void HandlePreempt(TaskRt* task);
  void KillTask(TaskRt* task);
  void CheckpointTask(TaskRt* task, bool incremental);
  void RequeueTask(TaskRt* task);
  SimDuration UnsavedProgress(const TaskRt* task) const;
  void TouchDirtyPages(TaskRt* task);
  // Emit the policy.decision instant + counter and the am_decision audit
  // record: the Algorithm-1 cost terms this AM computed (or would compute)
  // for `task`, and the chosen action.
  void RecordPolicyDecision(TaskRt* task, bool can_increment,
                            const char* action);
  // Cached "node/N" tracer-track spelling, built once per node.
  const std::string& NodeTrackCached(NodeId node);
  // Mirror an AmStats waste increment into the obs waste ledger (no-op
  // without obs); `sim_lost` converts at the container's CPU width.
  void ChargeWaste(WasteCause cause, SimDuration sim_lost, NodeId node);

  Simulator* sim_;
  ResourceManager* rm_;
  CheckpointEngine* engine_;
  JobSpec job_;
  YarnConfig config_;
  std::function<void(const DistributedShellAm&)> on_done_;
  Rng rng_;

  AppId app_;
  std::vector<std::unique_ptr<TaskRt>> tasks_;
  std::deque<TaskRt*> waiting_;
  std::unordered_map<ContainerId, TaskRt*> by_container_;

  AmStats stats_;
  SimTime finish_time_ = -1;

  // decision_counters_ maps each action literal to its resolved
  // policy.decisions handle (first use only — the series set is unchanged).
  std::vector<std::pair<const char*, Counter*>> decision_counters_;
  std::vector<std::string> node_tracks_;
};

}  // namespace ckpt
