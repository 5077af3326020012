#include "dag/dag.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "dfs/dfs.h"
#include "yarn/node_manager.h"

namespace ckpt {

bool DagJobSpec::Validate() const {
  std::unordered_map<int, int> index;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (!index.emplace(stages[i].id, static_cast<int>(i)).second) {
      return false;  // duplicate stage id
    }
  }
  for (const DagStageSpec& stage : stages) {
    if (stage.num_tasks < 0) return false;
    for (int dep : stage.depends_on) {
      if (dep == stage.id || index.count(dep) == 0) return false;
    }
  }
  // Cycle check via Kahn's algorithm.
  std::unordered_map<int, int> in_degree;
  for (const DagStageSpec& stage : stages) in_degree[stage.id] = 0;
  for (const DagStageSpec& stage : stages) {
    in_degree[stage.id] += static_cast<int>(stage.depends_on.size());
  }
  std::vector<int> ready;
  for (const auto& [id, degree] : in_degree) {
    if (degree == 0) ready.push_back(id);
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    ++visited;
    for (const DagStageSpec& stage : stages) {
      for (int dep : stage.depends_on) {
        if (dep == id && --in_degree[stage.id] == 0) {
          ready.push_back(stage.id);
        }
      }
    }
  }
  return visited == stages.size();
}

struct DagAm::TaskRt {
  StageRt* stage = nullptr;
  int index = 0;
  std::unique_ptr<ProcessState> proc;

  enum class State {
    kBlocked,   // stage dependencies unmet
    kWaiting,   // needs a container
    kFetching,  // pulling inputs from upstream outputs
    kRunning,
    kDumping,
    kRestoring,
    kDone
  };
  State state = State::kBlocked;
  int attempt = 0;

  SimTime run_start = -1;
  SimDuration work_done = 0;
  SimDuration saved_work = 0;
  SimDuration unsynced_run = 0;
  bool inputs_fetched = false;

  Container container;
  int pending_fetches = 0;
};

struct DagAm::StageRt {
  const DagStageSpec* spec = nullptr;
  std::vector<std::unique_ptr<TaskRt>> tasks;
  std::vector<NodeId> output_nodes;  // one entry per completed task
  int tasks_left = 0;
  bool activated = false;

  bool Complete() const { return tasks_left == 0; }
};

DagAm::DagAm(Simulator* sim, ResourceManager* rm, CheckpointEngine* engine,
             NetworkModel* network, DagJobSpec job, const YarnConfig& config,
             std::function<void(const DagAm&)> on_done)
    : sim_(sim),
      rm_(rm),
      engine_(engine),
      network_(network),
      job_(std::move(job)),
      config_(config),
      on_done_(std::move(on_done)),
      rng_(config.seed ^ static_cast<std::uint64_t>(job_.id.value() * 52711)) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(rm != nullptr);
  CKPT_CHECK(engine != nullptr);
  CKPT_CHECK(network != nullptr);
  CKPT_CHECK(job_.Validate()) << "invalid DAG for job " << job_.id.value();
}

DagAm::~DagAm() = default;

void DagAm::Start() {
  app_ = rm_->RegisterApp(this, job_.priority);
  stages_left_ = static_cast<int>(job_.stages.size());
  for (const DagStageSpec& spec : job_.stages) {
    auto stage = std::make_unique<StageRt>();
    stage->spec = &spec;
    stage->tasks_left = spec.num_tasks;
    for (int i = 0; i < spec.num_tasks; ++i) {
      auto task = std::make_unique<TaskRt>();
      task->stage = stage.get();
      task->index = i;
      stage->tasks.push_back(std::move(task));
    }
    stage_by_id_[spec.id] = stage.get();
    stages_.push_back(std::move(stage));
  }
  // Empty stages complete trivially.
  for (auto& stage : stages_) {
    if (stage->spec->num_tasks == 0) {
      stage->activated = true;
      stages_left_--;
    }
  }
  if (Done()) {
    finish_time_ = sim_->Now();
    rm_->UnregisterApp(app_);
    if (on_done_) on_done_(*this);
    return;
  }
  MaybeActivateStages();
}

void DagAm::MaybeActivateStages() {
  int newly_waiting = 0;
  for (auto& stage : stages_) {
    if (stage->activated || stage->spec->num_tasks == 0) continue;
    bool ready = true;
    for (int dep : stage->spec->depends_on) {
      if (!stage_by_id_.at(dep)->Complete()) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    stage->activated = true;
    for (auto& task : stage->tasks) {
      task->state = TaskRt::State::kWaiting;
      waiting_.push_back(task.get());
      ++newly_waiting;
    }
  }
  if (newly_waiting > 0) {
    rm_->RequestContainers(app_, newly_waiting);
  }
}

void DagAm::OnContainerAllocated(const Container& container) {
  if (waiting_.empty()) {
    rm_->ReleaseContainer(container.id);
    return;
  }
  auto pick = waiting_.begin();
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    TaskRt* task = *it;
    if (task->proc != nullptr && task->proc->has_image &&
        engine_->store().IsLocalTo(task->proc->image_id, container.node)) {
      pick = it;
      break;
    }
  }
  TaskRt* task = *pick;
  waiting_.erase(pick);
  LaunchTask(task, container);
}

void DagAm::LaunchTask(TaskRt* task, const Container& container) {
  CKPT_CHECK(task->state == TaskRt::State::kWaiting);
  task->container = container;
  by_container_[container.id] = task;

  if (task->proc == nullptr) {
    task->proc = std::make_unique<ProcessState>(
        TaskId(job_.id.value() * 1000000 + task->stage->spec->id * 10000 +
               task->index),
        task->stage->spec->demand.memory, config_.image_page_size);
  }

  if (task->proc->has_image) {
    task->state = TaskRt::State::kRestoring;
    task->attempt++;
    const int attempt = task->attempt;
    const bool remote =
        !engine_->store().IsLocalTo(task->proc->image_id, container.node);
    stats_.restores++;
    rm_->SuspendContainer(container.id);
    stats_.restore_time +=
        engine_->EstimateRestoreService(*task->proc, container.node, !remote);
    engine_->Restore(*task->proc, container.node,
                     [this, task, attempt](const RestoreResult& result) {
                       if (task->attempt != attempt ||
                           task->state != TaskRt::State::kRestoring) {
                         return;
                       }
                       CKPT_CHECK(result.ok);
                       rm_->ResumeContainer(task->container.id);
                       task->work_done = task->saved_work;
                       RunTask(task);
                     });
    return;
  }

  if (!task->inputs_fetched && !task->stage->spec->depends_on.empty()) {
    StartFetch(task);
    return;
  }
  RunTask(task);
}

void DagAm::StartFetch(TaskRt* task) {
  task->state = TaskRt::State::kFetching;
  task->attempt++;
  const int attempt = task->attempt;
  stats_.input_fetches++;

  task->pending_fetches = 0;
  const int my_width = std::max(task->stage->spec->num_tasks, 1);
  for (int dep : task->stage->spec->depends_on) {
    StageRt* upstream = stage_by_id_.at(dep);
    if (upstream->spec->output_bytes == 0) continue;
    const Bytes slice =
        std::max<Bytes>(upstream->spec->output_bytes / my_width, 1);
    for (NodeId source : upstream->output_nodes) {
      task->pending_fetches++;
      stats_.input_bytes_moved += slice;
      network_->Transfer(source, task->container.node, slice,
                         [this, task, attempt] {
                           if (task->attempt != attempt ||
                               task->state != TaskRt::State::kFetching) {
                             return;
                           }
                           if (--task->pending_fetches == 0) {
                             OnFetchComplete(task, attempt);
                           }
                         });
    }
  }
  if (task->pending_fetches == 0) {
    OnFetchComplete(task, attempt);
  }
}

void DagAm::OnFetchComplete(TaskRt* task, int attempt) {
  if (task->attempt != attempt || task->state != TaskRt::State::kFetching) {
    return;
  }
  task->inputs_fetched = true;
  task->proc->memory.TouchAll();  // the fetched inputs fill memory
  RunTask(task);
}

void DagAm::RunTask(TaskRt* task) {
  task->state = TaskRt::State::kRunning;
  task->run_start = sim_->Now();
  task->attempt++;
  SimDuration remaining = task->stage->spec->task_duration - task->work_done;
  if (remaining < 1) remaining = 1;
  const int attempt = task->attempt;
  sim_->ScheduleAfter(remaining,
                      [this, task, attempt] { OnTaskComplete(task, attempt); });
}

void DagAm::OnTaskComplete(TaskRt* task, int attempt) {
  if (task->attempt != attempt || task->state != TaskRt::State::kRunning) {
    return;
  }
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDone;
  task->attempt++;
  if (task->proc != nullptr) engine_->Discard(*task->proc);
  const NodeId node = task->container.node;
  by_container_.erase(task->container.id);
  rm_->ReleaseContainer(task->container.id);

  stats_.tasks_done++;
  stats_.done_by_stage[task->stage->spec->id]++;
  task->stage->output_nodes.push_back(node);
  if (--task->stage->tasks_left == 0) {
    stages_left_--;
    MaybeActivateStages();
  }

  if (Done()) {
    finish_time_ = sim_->Now();
    rm_->UnregisterApp(app_);
    if (on_done_) on_done_(*this);
  }
}

void DagAm::OnPreemptContainer(ContainerId id) {
  auto it = by_container_.find(id);
  if (it == by_container_.end()) return;
  TaskRt* task = it->second;
  stats_.preempt_events++;

  switch (task->state) {
    case TaskRt::State::kFetching:
      // Nothing durable yet: abandon the fetch and requeue.
      task->attempt++;
      task->inputs_fetched = false;
      stats_.kills++;
      by_container_.erase(task->container.id);
      rm_->ReleaseContainer(task->container.id);
      RequeueTask(task);
      return;
    case TaskRt::State::kRestoring:
      task->attempt++;
      by_container_.erase(task->container.id);
      rm_->ReleaseContainer(task->container.id);
      RequeueTask(task);
      return;
    case TaskRt::State::kRunning:
      HandlePreempt(task);
      return;
    default:
      return;
  }
}

SimDuration DagAm::UnsavedProgress(const TaskRt* task) const {
  SimDuration progress = task->work_done - task->saved_work;
  if (task->state == TaskRt::State::kRunning && task->run_start >= 0) {
    progress += sim_->Now() - task->run_start;
  }
  return progress;
}

void DagAm::TouchDirtyPages(TaskRt* task) {
  SimDuration exposure = task->unsynced_run;
  if (task->state == TaskRt::State::kRunning && task->run_start >= 0) {
    exposure += sim_->Now() - task->run_start;
  }
  task->unsynced_run = exposure;
  if (!task->proc->memory.tracking_enabled()) return;
  const double fraction =
      std::min(1.0, job_.memory_write_rate * ToSeconds(exposure));
  task->proc->memory.TouchRandomFraction(fraction, rng_);
}

SimDuration DagAm::InputRefetchCost(const TaskRt* task) const {
  if (!task->inputs_fetched) return 0;
  Bytes total = 0;
  const int my_width = std::max(task->stage->spec->num_tasks, 1);
  for (int dep : task->stage->spec->depends_on) {
    const StageRt* upstream = stage_by_id_.at(dep);
    total += upstream->spec->output_bytes *
             static_cast<Bytes>(upstream->output_nodes.size()) / my_width;
  }
  return network_->EstimateTransfer(total);
}

void DagAm::HandlePreempt(TaskRt* task) {
  const bool can_increment =
      config_.incremental_checkpoints && task->proc->has_image;
  switch (config_.policy) {
    case PreemptionPolicy::kWait:
      CKPT_CHECK(false) << "wait policy never sends preempt events";
      return;
    case PreemptionPolicy::kKill:
      KillTask(task);
      return;
    case PreemptionPolicy::kCheckpoint:
      CheckpointTask(task, can_increment);
      return;
    case PreemptionPolicy::kAdaptive: {
      TouchDirtyPages(task);
      const NodeId node = task->container.node;
      // Killing forfeits the fetched inputs as well as the compute
      // progress: both go on the at-stake side of Algorithm 1.
      const SimDuration at_stake =
          UnsavedProgress(task) + InputRefetchCost(task);
      const SimDuration overhead =
          rm_->DumpQueueDelay(node) +
          engine_->EstimateDumpService(*task->proc, node, can_increment) +
          engine_->EstimateRestore(*task->proc, node, /*local=*/true);
      const PreemptAction action = DecidePreemption(
          at_stake, overhead, can_increment, config_.adaptive_threshold);
      if (action == PreemptAction::kKill) {
        KillTask(task);
      } else {
        CheckpointTask(task, action == PreemptAction::kCheckpointIncremental);
      }
      return;
    }
  }
}

void DagAm::KillTask(TaskRt* task) {
  stats_.lost_work += UnsavedProgress(task);
  stats_.kills++;
  task->attempt++;
  task->run_start = -1;
  task->work_done = task->saved_work;
  task->unsynced_run = 0;
  if (!task->proc->has_image) task->inputs_fetched = false;
  by_container_.erase(task->container.id);
  rm_->ReleaseContainer(task->container.id);
  RequeueTask(task);
}

void DagAm::CheckpointTask(TaskRt* task, bool incremental) {
  CKPT_CHECK(task->state == TaskRt::State::kRunning);
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDumping;
  task->attempt++;
  TouchDirtyPages(task);
  rm_->SuspendContainer(task->container.id);

  stats_.checkpoints++;
  if (incremental && task->proc->has_image) stats_.incremental_checkpoints++;
  stats_.dump_time += engine_->EstimateDumpService(
      *task->proc, task->container.node, incremental);

  DumpOptions opts;
  opts.incremental = incremental;
  const int attempt = task->attempt;
  engine_->Dump(*task->proc, task->container.node, opts,
                [this, task, attempt](const DumpResult& result) {
                  if (task->attempt != attempt ||
                      task->state != TaskRt::State::kDumping) {
                    return;
                  }
                  CKPT_CHECK(result.ok);
                  task->saved_work = task->work_done;
                  task->unsynced_run = 0;
                  by_container_.erase(task->container.id);
                  rm_->ReleaseContainer(task->container.id);
                  RequeueTask(task);
                });
}

void DagAm::RequeueTask(TaskRt* task) {
  task->state = TaskRt::State::kWaiting;
  waiting_.push_back(task);
  NodeId preferred;
  if (task->proc != nullptr && task->proc->has_image) {
    preferred = task->proc->image_node;
  }
  rm_->RequestContainers(app_, 1, preferred);
}

// --- Workload driver ----------------------------------------------------------

DagRunResult RunDagWorkload(const std::vector<DagJobSpec>& jobs,
                            const YarnConfig& config) {
  Simulator sim;
  Cluster cluster(&sim);
  const Resources per_node{
      config.container_size.cpus * config.containers_per_node,
      config.container_size.memory * config.containers_per_node};
  cluster.AddNodes(config.num_nodes, per_node, config.medium, config.power);

  NetworkModel network(&sim, config.network);
  DfsCluster dfs(&sim, &network, config.dfs);
  std::vector<std::unique_ptr<NodeManager>> nms;
  std::vector<NodeManager*> nm_ptrs;
  for (Node* node : cluster.nodes()) {
    network.AddNode(node->id());
    dfs.AddDataNode(node->id(), &node->storage());
    nms.push_back(std::make_unique<NodeManager>(node));
    nm_ptrs.push_back(nms.back().get());
  }
  DfsStore store(&dfs);
  CheckpointEngine engine(&sim, &store);
  ResourceManager rm(&sim, nm_ptrs, config);

  DagRunResult result;
  std::vector<std::unique_ptr<DagAm>> ams;
  for (const DagJobSpec& job : jobs) {
    auto am = std::make_unique<DagAm>(
        &sim, &rm, &engine, &network, job, config,
        [&result, &sim](const DagAm& am) {
          result.jobs_completed++;
          result.job_response_seconds.push_back(
              ToSeconds(am.finish_time() - am.job().submit_time));
          result.makespan = std::max(result.makespan, sim.Now());
        });
    DagAm* am_ptr = am.get();
    ams.push_back(std::move(am));
    sim.ScheduleAt(job.submit_time, [am_ptr] { am_ptr->Start(); });
  }
  sim.Run();

  for (const auto& am : ams) {
    CKPT_CHECK(am->Done()) << "DAG job " << am->job().id.value()
                           << " did not finish";
    const DagStats& stats = am->stats();
    result.totals.tasks_done += stats.tasks_done;
    for (const auto& [stage, done] : stats.done_by_stage) {
      result.totals.done_by_stage[stage] += done;
    }
    result.totals.preempt_events += stats.preempt_events;
    result.totals.kills += stats.kills;
    result.totals.checkpoints += stats.checkpoints;
    result.totals.incremental_checkpoints += stats.incremental_checkpoints;
    result.totals.restores += stats.restores;
    result.totals.input_fetches += stats.input_fetches;
    result.totals.input_bytes_moved += stats.input_bytes_moved;
    result.totals.lost_work += stats.lost_work;
    result.totals.dump_time += stats.dump_time;
    result.totals.restore_time += stats.restore_time;
  }
  return result;
}

}  // namespace ckpt
