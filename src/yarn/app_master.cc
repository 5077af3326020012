#include "yarn/app_master.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

namespace {

// MemoryImage page size; coarse pages keep big runs cheap.
constexpr Bytes kImagePageSize = kMiB;

}  // namespace

// Fields are ordered so the stage bookkeeping fills padding: a big trace
// job holds one of these per task.
struct DistributedShellAm::TaskRt {
  const TaskSpec* spec = nullptr;
  std::unique_ptr<ProcessState> proc;  // created on first launch

  enum class State : std::uint8_t {
    kBlocked,   // an input stage has not finished
    kWaiting,   // needs a container
    kFetching,  // pulling inputs from upstream outputs
    kRunning,
    kDumping,
    kRestoring,
    kDone
  };
  State state = State::kBlocked;
  bool inputs_fetched = false;
  int attempt = 0;

  SimTime submit_time = 0;
  TaskProgress progress;  // running exactly while kRunning
  // Consecutive dump failures; at kMaxCheckpointFailures the AM stops
  // checkpointing this task (Algorithm-1-aware fallback to kill).
  int dump_failures = 0;
  int stage = 0;  // index into stages_

  Container container;  // valid while holding one
  int pending_fetches = 0;
};

struct DistributedShellAm::StageRt {
  JobStage spec;
  int first_task = 0;  // index of the stage's first task in job_.tasks
  int tasks_left = 0;
  bool activated = false;
  // Some stage fetches this one's output, so output_nodes records the node
  // of every finished task, in completion order.
  bool feeds = false;
  std::vector<NodeId> output_nodes;
};

DistributedShellAm::DistributedShellAm(
    Simulator* sim, ResourceManager* rm, CheckpointEngine* engine,
    NetworkModel* network, const JobSpec& job, std::vector<JobStage> stages,
    std::uint64_t seed, const YarnConfig& config,
    std::function<void(const DistributedShellAm&)> on_done)
    : sim_(sim),
      rm_(rm),
      engine_(engine),
      network_(network),
      job_(job),
      config_(config),
      on_done_(std::move(on_done)),
      rng_(seed) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(rm != nullptr);
  CKPT_CHECK(engine != nullptr);
  CKPT_CHECK(network != nullptr);
  if (stages.empty()) {
    stages.emplace_back();
    stages.back().num_tasks = static_cast<int>(job_.tasks.size());
  }
  const int num_stages = static_cast<int>(stages.size());
  stages_.resize(stages.size());
  int first_task = 0;
  for (int s = 0; s < num_stages; ++s) {
    for (int input : stages[s].inputs) {
      CKPT_CHECK(input >= 0 && input < num_stages && input != s)
          << "job " << job_.id.value() << " stage " << s << " input "
          << input;
      stages_[input].feeds = true;
    }
    CKPT_CHECK_GE(stages[s].num_tasks, 0);
    stages_[s].first_task = first_task;
    stages_[s].tasks_left = stages[s].num_tasks;
    first_task += stages[s].num_tasks;
    stages_[s].spec = std::move(stages[s]);
  }
  CKPT_CHECK_EQ(first_task, static_cast<int>(job_.tasks.size()))
      << "stages of job " << job_.id.value() << " must cover its tasks";
}

DistributedShellAm::~DistributedShellAm() = default;

void DistributedShellAm::Start() {
  app_ = rm_->RegisterApp(this, job_.priority);
  stats_.tasks_total = static_cast<std::int64_t>(job_.tasks.size());
  tasks_.reserve(job_.tasks.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    for (int i = 0; i < stages_[s].spec.num_tasks; ++i) {
      auto task = std::make_unique<TaskRt>();
      task->spec = &job_.tasks[tasks_.size()];
      task->stage = static_cast<int>(s);
      task->submit_time = sim_->Now();
      tasks_.push_back(std::move(task));
    }
  }
  if (Done()) {
    finish_time_ = sim_->Now();
    rm_->UnregisterApp(app_);
    if (on_done_) on_done_(*this);
    return;
  }
  ActivateReadyStages();
}

void DistributedShellAm::ActivateReadyStages() {
  int newly_waiting = 0;
  for (StageRt& stage : stages_) {
    if (stage.activated || stage.spec.num_tasks == 0) continue;
    const bool ready = std::all_of(
        stage.spec.inputs.begin(), stage.spec.inputs.end(),
        [this](int input) { return stages_[input].tasks_left == 0; });
    if (!ready) continue;
    stage.activated = true;
    for (int i = 0; i < stage.spec.num_tasks; ++i) {
      TaskRt* task = tasks_[stage.first_task + i].get();
      task->state = TaskRt::State::kWaiting;
      waiting_.push_back(task);
    }
    newly_waiting += stage.spec.num_tasks;
  }
  if (newly_waiting > 0) rm_->RequestContainers(app_, newly_waiting);
}

void DistributedShellAm::OnContainerAllocated(const Container& container) {
  if (waiting_.empty()) {
    // All tasks are placed (e.g. a stale re-request); return the container.
    rm_->ReleaseContainer(container.id);
    return;
  }
  // Prefer a waiting task whose image lives on this container's node: that
  // restore is local (Algorithm 2's cheap path).
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

void DistributedShellAm::LaunchTask(TaskRt* task, const Container& container) {
  CKPT_CHECK(task->state == TaskRt::State::kWaiting);
  task->container = container;
  by_container_[container.id] = task;

  if (task->proc == nullptr) {
    task->proc = std::make_unique<ProcessState>(
        task->spec->id, task->spec->demand.memory, kImagePageSize);
  }

  if (task->proc->has_image) {
    task->state = TaskRt::State::kRestoring;
    task->attempt++;
    const int attempt = task->attempt;
    const bool remote =
        !engine_->store().IsLocalTo(task->proc->image_id, container.node);
    stats_.restores++;
    if (remote) stats_.remote_restores++;
    // The container is reserved but the process is not executing during the
    // restore I/O; only the service time counts as checkpointing overhead.
    rm_->SuspendContainer(container.id);
    const SimDuration restore_service =
        engine_->EstimateRestoreService(*task->proc, container.node, !remote);
    stats_.restore_time += restore_service;
    ChargeWaste(WasteCause::kRestoreTransfer, restore_service, container.node);
    engine_->Restore(*task->proc, container.node,
                     [this, task, attempt](const RestoreResult& result) {
                       if (task->attempt != attempt ||
                           task->state != TaskRt::State::kRestoring) {
                         return;
                       }
                       rm_->ResumeContainer(task->container.id);
                       if (!result.ok) {
                         // The image is unusable (corrupt, replicas lost, or
                         // I/O kept failing past the retry budget): drop it,
                         // and the inputs it held, and re-run from scratch
                         // in the held container rather than crash the AM.
                         stats_.restore_failures++;
                         stats_.lost_work += task->progress.saved_work;
                         ChargeWaste(WasteCause::kFaultLostWork,
                                     task->progress.saved_work,
                                     task->container.node);
                         engine_->Discard(*task->proc);
                         task->progress = TaskProgress{};
                         task->inputs_fetched = false;
                         Execute(task);
                         return;
                       }
                       task->progress.work_done = task->progress.saved_work;
                       RunTask(task);
                     });
    return;
  }
  Execute(task);
}

void DistributedShellAm::Execute(TaskRt* task) {
  if (task->inputs_fetched || stages_[task->stage].spec.inputs.empty()) {
    RunTask(task);
    return;
  }
  StartFetch(task);
}

void DistributedShellAm::StartFetch(TaskRt* task) {
  task->state = TaskRt::State::kFetching;
  task->attempt++;
  const int attempt = task->attempt;
  stats_.input_fetches++;

  // Inputs are in memory once every slice has arrived.
  auto fetched = [this, task] {
    task->inputs_fetched = true;
    task->proc->memory.TouchAll();
    RunTask(task);
  };
  const JobStage& stage = stages_[task->stage].spec;
  const int width = std::max(stage.num_tasks, 1);
  task->pending_fetches = 0;
  for (int input : stage.inputs) {
    const StageRt& upstream = stages_[input];
    if (upstream.spec.output_bytes == 0) continue;
    const Bytes slice = std::max<Bytes>(upstream.spec.output_bytes / width, 1);
    for (NodeId source : upstream.output_nodes) {
      task->pending_fetches++;
      stats_.input_bytes_moved += slice;
      network_->Transfer(source, task->container.node, slice,
                         [task, attempt, fetched] {
                           if (task->attempt == attempt &&
                               task->state == TaskRt::State::kFetching &&
                               --task->pending_fetches == 0) {
                             fetched();
                           }
                         });
    }
  }
  if (task->pending_fetches == 0) fetched();
}

void DistributedShellAm::RunTask(TaskRt* task) {
  task->state = TaskRt::State::kRunning;
  task->progress.Start(sim_->Now());
  task->attempt++;
  SimDuration remaining = task->spec->duration - task->progress.work_done;
  if (remaining < 1) remaining = 1;
  const int attempt = task->attempt;
  sim_->ScheduleAfter(remaining,
                      [this, task, attempt] { OnTaskComplete(task, attempt); });
}

void DistributedShellAm::OnTaskComplete(TaskRt* task, int attempt) {
  if (task->attempt != attempt || task->state != TaskRt::State::kRunning) {
    return;
  }
  task->progress.Stop(sim_->Now());
  task->state = TaskRt::State::kDone;
  task->attempt++;
  if (task->proc != nullptr) engine_->Discard(*task->proc);
  by_container_.erase(task->container.id);
  rm_->ReleaseContainer(task->container.id);

  stats_.tasks_done++;
  stats_.task_response_seconds.push_back(
      ToSeconds(sim_->Now() - task->submit_time));
  StageRt& stage = stages_[task->stage];
  if (stage.feeds) stage.output_nodes.push_back(task->container.node);
  if (--stage.tasks_left == 0) ActivateReadyStages();
  if (Done()) {
    finish_time_ = sim_->Now();
    rm_->UnregisterApp(app_);
    if (on_done_) on_done_(*this);
  }
}

void DistributedShellAm::OnPreemptContainer(ContainerId id) {
  auto it = by_container_.find(id);
  if (it == by_container_.end()) return;  // task completed concurrently
  TaskRt* task = it->second;
  stats_.preempt_events++;

  switch (task->state) {
    case TaskRt::State::kRunning:
      HandlePreempt(task);
      return;
    case TaskRt::State::kFetching:
      // Nothing durable yet: abandon the fetch, as a kill would.
      stats_.kills++;
      RequeueTask(task, /*release=*/true);
      return;
    case TaskRt::State::kRestoring:
      // Preempted mid-restore: abandon the restore, give the container back;
      // the image is intact so nothing is lost.
      RequeueTask(task, /*release=*/true);
      return;
    default:
      return;  // already vacating
  }
}

void DistributedShellAm::OnContainerLost(ContainerId id) {
  auto it = by_container_.find(id);
  if (it == by_container_.end()) return;  // task completed concurrently
  TaskRt* task = it->second;
  stats_.containers_lost++;

  switch (task->state) {
    case TaskRt::State::kRunning:
      // The process died with the node; progress since the last image is
      // gone. The container itself was already torn down by the RM.
    case TaskRt::State::kDumping: {
      // A dump in flight can never commit (and must not resurrect an image
      // produced on the dead node).
      const SimDuration lost = task->progress.Unsaved(sim_->Now());
      stats_.lost_work += lost;
      ChargeWaste(WasteCause::kFaultLostWork, lost, task->container.node);
      break;
    }
    case TaskRt::State::kRestoring:
      // Abandon the restore; the image (wherever its replicas live) is
      // untouched and the task requeues.
    case TaskRt::State::kFetching:
      // Nothing durable yet.
      break;
    default:
      return;  // no container is mapped in these states
  }
  RollBack(task);
  RequeueTask(task, /*release=*/false);
}

SimDuration DistributedShellAm::InputRefetchCost(const TaskRt* task) const {
  if (!task->inputs_fetched) return 0;
  const JobStage& stage = stages_[task->stage].spec;
  const int width = std::max(stage.num_tasks, 1);
  Bytes total = 0;
  for (int input : stage.inputs) {
    const StageRt& upstream = stages_[input];
    total += upstream.spec.output_bytes *
             static_cast<Bytes>(upstream.output_nodes.size()) / width;
  }
  return network_->EstimateTransfer(total);
}

void DistributedShellAm::ChargeWaste(WasteCause cause, SimDuration sim_lost,
                                     NodeId node) {
  if (config_.obs == nullptr) return;
  config_.obs->waste().Add(cause,
                           ToHours(sim_lost) * kContainerSize.cpus,
                           job_.id.value(),
                           node.valid() ? node.value() : -1);
}

DistributedShellAm::DumpCost DistributedShellAm::EstimateDumpCost(
    const TaskRt* task, bool can_increment) const {
  // Dump + restore service time plus the node's checkpoint-queue backlog
  // (the RM tracks in-flight reservations).
  const NodeId node = task->container.node;
  return {rm_->DumpQueueDelay(node),
          engine_->EstimateDumpService(*task->proc, node, can_increment),
          engine_->EstimateRestore(*task->proc, node, /*local=*/true)};
}

void DistributedShellAm::RecordPolicyDecision(const TaskRt* task,
                                              bool can_increment,
                                              const DumpCost& cost,
                                              const char* action) {
  Observability* obs = config_.obs;
  if (obs == nullptr) return;
  const NodeId node = task->container.node;
  obs->DecisionCounter(PolicyName(config_.policy), action)->Inc();
  obs->audit().Event(
      "am_decision", obs->TrackFor(node), sim_->Now(),
      {TraceArg::Num("task", static_cast<double>(task->spec->id.value())),
       TraceArg::Num("job", static_cast<double>(job_.id.value())),
       TraceArg::Num("container",
                     static_cast<double>(task->container.id.value())),
       TraceArg::Num("node", static_cast<double>(node.value())),
       TraceArg::Num("unsaved_progress_s",
                     ToSeconds(task->progress.Unsaved(sim_->Now()))),
       TraceArg::Num("dump_queue_s", ToSeconds(cost.queue)),
       TraceArg::Num("dump_service_s", ToSeconds(cost.dump_service)),
       TraceArg::Num("restore_s", ToSeconds(cost.restore)),
       TraceArg::Num("overhead_s", ToSeconds(cost.Overhead())),
       TraceArg::Num("threshold", config_.adaptive_threshold),
       TraceArg::Num("incremental_available", can_increment ? 1 : 0),
       TraceArg::Str("policy", PolicyName(config_.policy)),
       TraceArg::Str("action", action)});
}

void DistributedShellAm::HandlePreempt(TaskRt* task) {
  const bool can_increment =
      config_.incremental_checkpoints && task->proc->has_image;
  const bool checkpoints = config_.policy == PreemptionPolicy::kCheckpoint ||
                           config_.policy == PreemptionPolicy::kAdaptive;
  // Algorithm-1-aware fallback: a task whose dumps keep failing has an
  // effectively infinite checkpoint overhead, so the kill branch wins no
  // matter the estimates. Stop trying to checkpoint it.
  const bool fallback =
      checkpoints && task->dump_failures >= kMaxCheckpointFailures;
  // A checkpoint writes the pages this run dirtied: fold the whole exposure
  // into the page table once, before anything estimates the dump.
  if (checkpoints && !fallback) TouchDirtyPages(task);
  // Algorithm 1's cost terms, for the adaptive decision and the audit
  // record alike; under kill and checkpoint the record shows what adaptive
  // would have weighed.
  const DumpCost cost = EstimateDumpCost(task, can_increment);
  PreemptAction action = PreemptAction::kKill;
  if (!fallback) {
    action = ActionForPolicy(config_.policy, can_increment, [&] {
      // Killing forfeits fetched inputs as well as progress: both are at
      // stake.
      return DecidePreemption(
          task->progress.Unsaved(sim_->Now()) + InputRefetchCost(task),
          cost.Overhead(), can_increment, config_.adaptive_threshold);
    });
  }
  RecordPolicyDecision(task, can_increment, cost,
                       fallback ? "kill_fallback" : ActionName(action));
  if (fallback) stats_.fallback_kills++;
  if (action == PreemptAction::kKill) {
    KillTask(task);
  } else {
    CheckpointTask(task, action == PreemptAction::kCheckpointIncremental,
                   cost);
  }
}

void DistributedShellAm::KillTask(TaskRt* task) {
  // Unsaved progress is lost; the task will rerun from its image (if any)
  // or from scratch.
  const SimDuration lost = task->progress.Unsaved(sim_->Now());
  stats_.lost_work += lost;
  ChargeWaste(WasteCause::kKillLostWork, lost, task->container.node);
  stats_.kills++;
  RollBack(task);
  RequeueTask(task, /*release=*/true);
}

void DistributedShellAm::TouchDirtyPages(TaskRt* task) {
  // Fold the execution since the last dump into the page table: the task
  // rewrote roughly write_rate * seconds of its footprint.
  if (!task->proc->memory.tracking_enabled()) return;
  task->proc->memory.TouchRandomFraction(
      task->progress.DirtyFraction(sim_->Now(),
                                   task->spec->memory_write_rate),
      rng_);
}

void DistributedShellAm::CheckpointTask(TaskRt* task, bool incremental,
                                        const DumpCost& cost) {
  // Freeze the process tree and enqueue its dump on the node's sequential
  // checkpoint queue. The frozen container keeps its slot (the high-
  // priority job waits for the dump, as in the paper) but burns no CPU, so
  // only the dump's service time is checkpointing overhead.
  CKPT_CHECK(task->state == TaskRt::State::kRunning);
  task->progress.Stop(sim_->Now());
  task->state = TaskRt::State::kDumping;
  task->attempt++;
  rm_->SuspendContainer(task->container.id);

  stats_.checkpoints++;
  if (incremental && task->proc->has_image) stats_.incremental_checkpoints++;
  stats_.dump_time += cost.dump_service;
  if (config_.obs != nullptr) {
    ChargeWaste(WasteCause::kDumpOverhead, cost.dump_service,
                task->container.node);
    // Queue wait behind the node's sequential checkpoint queue freezes the
    // container without counting as dump overhead.
    ChargeWaste(WasteCause::kQueueing, cost.queue, task->container.node);
  }

  DumpOptions opts;
  opts.incremental = incremental;
  const int attempt = task->attempt;
  engine_->Dump(*task->proc, task->container.node, opts,
                [this, task, attempt](const DumpResult& result) {
                  if (task->attempt != attempt ||
                      task->state != TaskRt::State::kDumping) {
                    return;
                  }
                  if (!result.ok) {
                    // Checkpoint failed past the retry budget: degrade to
                    // kill semantics. Progress since the last good image is
                    // lost, but the container is still vacated and any
                    // prior image stays restorable (write-new-then-swap).
                    stats_.dump_failures++;
                    stats_.fallback_kills++;
                    task->dump_failures++;
                    const SimDuration lost =
                        task->progress.Unsaved(sim_->Now());
                    stats_.lost_work += lost;
                    ChargeWaste(WasteCause::kFaultLostWork, lost,
                                task->container.node);
                    RollBack(task);
                    RequeueTask(task, /*release=*/true);
                    return;
                  }
                  task->dump_failures = 0;
                  task->progress.Commit();
                  RequeueTask(task, /*release=*/true);
                });
}

void DistributedShellAm::RollBack(TaskRt* task) {
  task->progress.RollBack();
  if (!task->proc->has_image) task->inputs_fetched = false;
}

void DistributedShellAm::RequeueTask(TaskRt* task, bool release) {
  // Void whatever dump or restore this attempt still has in flight (a
  // no-op once it has completed), so no stale completion can commit.
  engine_->CancelInflight(*task->proc);
  task->attempt++;
  by_container_.erase(task->container.id);
  if (release) rm_->ReleaseContainer(task->container.id);
  task->state = TaskRt::State::kWaiting;
  waiting_.push_back(task);
  NodeId preferred;
  if (task->proc->has_image) {
    preferred = task->proc->image_node;
  }
  rm_->RequestContainers(app_, 1, preferred);
}

}  // namespace ckpt
