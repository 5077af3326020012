#include "yarn/app_master.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

struct DistributedShellAm::TaskRt {
  const TaskSpec* spec = nullptr;
  std::unique_ptr<ProcessState> proc;  // created on first launch

  enum class State { kWaiting, kRunning, kDumping, kRestoring, kDone };
  State state = State::kWaiting;
  int attempt = 0;

  SimTime submit_time = 0;
  SimTime run_start = -1;
  SimDuration work_done = 0;   // validated work while stopped
  SimDuration saved_work = 0;  // captured in the image
  SimDuration unsynced_run = 0;
  // Consecutive dump failures; at config.max_checkpoint_failures the AM
  // stops checkpointing this task (Algorithm-1-aware fallback to kill).
  int dump_failures = 0;

  Container container;  // valid while holding one
  int preempt_count = 0;
};

DistributedShellAm::DistributedShellAm(
    Simulator* sim, ResourceManager* rm, CheckpointEngine* engine,
    const JobSpec& job, const YarnConfig& config,
    std::function<void(const DistributedShellAm&)> on_done)
    : sim_(sim),
      rm_(rm),
      engine_(engine),
      job_(job),
      config_(config),
      on_done_(std::move(on_done)),
      rng_(config.seed ^ static_cast<std::uint64_t>(job.id.value() * 7919)) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(rm != nullptr);
  CKPT_CHECK(engine != nullptr);
}

DistributedShellAm::~DistributedShellAm() = default;

void DistributedShellAm::Start() {
  app_ = rm_->RegisterApp(this, job_.priority);
  stats_.tasks_total = static_cast<std::int64_t>(job_.tasks.size());
  tasks_.reserve(job_.tasks.size());
  for (const TaskSpec& spec : job_.tasks) {
    auto task = std::make_unique<TaskRt>();
    task->spec = &spec;
    task->submit_time = sim_->Now();
    waiting_.push_back(task.get());
    tasks_.push_back(std::move(task));
  }
  if (stats_.tasks_total == 0) {
    finish_time_ = sim_->Now();
    if (on_done_) on_done_(*this);
    return;
  }
  rm_->RequestContainers(app_, static_cast<int>(job_.tasks.size()));
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
        task->spec->id, task->spec->demand.memory, config_.image_page_size);
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
                         // I/O kept failing past the retry budget): drop it
                         // and re-run from scratch in the held container
                         // rather than crash the AM.
                         stats_.restore_failures++;
                         stats_.lost_work += task->saved_work;
                         ChargeWaste(WasteCause::kFaultLostWork,
                                     task->saved_work, task->container.node);
                         engine_->Discard(*task->proc);
                         task->saved_work = 0;
                         task->work_done = 0;
                         task->unsynced_run = 0;
                         RunTask(task);
                         return;
                       }
                       task->work_done = task->saved_work;
                       RunTask(task);
                     });
    return;
  }
  RunTask(task);
}

void DistributedShellAm::RunTask(TaskRt* task) {
  task->state = TaskRt::State::kRunning;
  task->run_start = sim_->Now();
  task->attempt++;
  SimDuration remaining = task->spec->duration - task->work_done;
  if (remaining < 1) remaining = 1;
  const int attempt = task->attempt;
  sim_->ScheduleAfter(remaining,
                      [this, task, attempt] { OnTaskComplete(task, attempt); });
}

void DistributedShellAm::OnTaskComplete(TaskRt* task, int attempt) {
  if (task->attempt != attempt || task->state != TaskRt::State::kRunning) {
    return;
  }
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDone;
  task->attempt++;
  if (task->proc != nullptr) engine_->Discard(*task->proc);
  by_container_.erase(task->container.id);
  rm_->ReleaseContainer(task->container.id);

  stats_.tasks_done++;
  stats_.task_response_seconds.push_back(
      ToSeconds(sim_->Now() - task->submit_time));
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
  task->preempt_count++;

  if (task->state == TaskRt::State::kRestoring) {
    // Preempted mid-restore: abandon the restore, give the container back;
    // the image is intact so nothing is lost.
    task->attempt++;
    by_container_.erase(task->container.id);
    rm_->ReleaseContainer(task->container.id);
    RequeueTask(task);
    return;
  }
  if (task->state != TaskRt::State::kRunning) return;
  HandlePreempt(task);
}

void DistributedShellAm::OnContainerLost(ContainerId id) {
  auto it = by_container_.find(id);
  if (it == by_container_.end()) return;  // task completed concurrently
  TaskRt* task = it->second;
  stats_.containers_lost++;
  by_container_.erase(it);

  switch (task->state) {
    case TaskRt::State::kRunning:
      // The process died with the node; progress since the last image is
      // gone. The container itself was already torn down by the RM.
      stats_.lost_work += UnsavedProgress(task);
      ChargeWaste(WasteCause::kFaultLostWork, UnsavedProgress(task),
                  task->container.node);
      break;
    case TaskRt::State::kDumping:
      // The in-flight dump can never commit (and must not resurrect an
      // image produced on the dead node).
      engine_->CancelInflight(*task->proc);
      stats_.lost_work += task->work_done - task->saved_work;
      ChargeWaste(WasteCause::kFaultLostWork,
                  task->work_done - task->saved_work, task->container.node);
      break;
    case TaskRt::State::kRestoring:
      // Abandon the restore; the image (wherever its replicas live) is
      // untouched and the task requeues.
      engine_->CancelInflight(*task->proc);
      break;
    case TaskRt::State::kWaiting:
    case TaskRt::State::kDone:
      return;  // no container should be mapped in these states
  }
  task->attempt++;
  task->run_start = -1;
  task->work_done = task->saved_work;
  task->unsynced_run = 0;
  RequeueTask(task);
}

SimDuration DistributedShellAm::UnsavedProgress(const TaskRt* task) const {
  SimDuration progress = task->work_done - task->saved_work;
  if (task->state == TaskRt::State::kRunning && task->run_start >= 0) {
    progress += sim_->Now() - task->run_start;
  }
  return progress;
}

void DistributedShellAm::ChargeWaste(WasteCause cause, SimDuration sim_lost,
                                     NodeId node) {
  if (config_.obs == nullptr) return;
  config_.obs->waste().Add(cause,
                           ToHours(sim_lost) * config_.container_size.cpus,
                           job_.id.value(),
                           node.valid() ? node.value() : -1);
}

void DistributedShellAm::RecordPolicyDecision(TaskRt* task, bool can_increment,
                                              const char* action) {
  Observability* obs = config_.obs;
  if (obs == nullptr) return;
  // Algorithm 1's cost terms, recomputed from the same live estimates the
  // adaptive policy consults; for kill/checkpoint policies this records what
  // the adaptive decision would have weighed.
  const NodeId node = task->container.node;
  const SimDuration queue = rm_->DumpQueueDelay(node);
  const SimDuration dump_service =
      engine_->EstimateDumpService(*task->proc, node, can_increment);
  const SimDuration restore =
      engine_->EstimateRestore(*task->proc, node, /*local=*/true);
  const SimDuration unsaved = UnsavedProgress(task);
  const std::string& track = NodeTrackCached(node);
  obs->tracer().Instant(
      "policy.decision", "policy", track, sim_->Now(),
      {TraceArg::Num("task", static_cast<double>(task->spec->id.value())),
       TraceArg::Num("container",
                     static_cast<double>(task->container.id.value())),
       TraceArg::Num("unsaved_progress_s", ToSeconds(unsaved)),
       TraceArg::Num("dump_queue_s", ToSeconds(queue)),
       TraceArg::Num("dump_service_s", ToSeconds(dump_service)),
       TraceArg::Num("restore_s", ToSeconds(restore)),
       TraceArg::Num("overhead_s", ToSeconds(queue + dump_service + restore)),
       TraceArg::Num("threshold", config_.adaptive_threshold),
       TraceArg::Num("incremental_available", can_increment ? 1 : 0),
       TraceArg::Str("action", action)});
  // Per-action counter handle, resolved on first use only so the emitted
  // series set matches the per-call lookup exactly.
  Counter* counter = nullptr;
  for (const auto& [known, handle] : decision_counters_) {
    if (known == action || std::strcmp(known, action) == 0) {
      counter = handle;
      break;
    }
  }
  if (counter == nullptr) {
    counter = obs->metrics().GetCounter(
        "policy.decisions",
        {{"policy", PolicyName(config_.policy)}, {"action", action}});
    decision_counters_.emplace_back(action, counter);
  }
  counter->Inc();
  obs->audit().Event(
      "am_decision", track, sim_->Now(),
      {TraceArg::Num("task", static_cast<double>(task->spec->id.value())),
       TraceArg::Num("job", static_cast<double>(job_.id.value())),
       TraceArg::Num("container",
                     static_cast<double>(task->container.id.value())),
       TraceArg::Num("node", static_cast<double>(node.value())),
       TraceArg::Num("unsaved_progress_s", ToSeconds(unsaved)),
       TraceArg::Num("dump_queue_s", ToSeconds(queue)),
       TraceArg::Num("dump_service_s", ToSeconds(dump_service)),
       TraceArg::Num("restore_s", ToSeconds(restore)),
       TraceArg::Num("overhead_s", ToSeconds(queue + dump_service + restore)),
       TraceArg::Num("threshold", config_.adaptive_threshold),
       TraceArg::Num("incremental_available", can_increment ? 1 : 0),
       TraceArg::Str("policy", PolicyName(config_.policy)),
       TraceArg::Str("action", action)});
}

const std::string& DistributedShellAm::NodeTrackCached(NodeId node) {
  const size_t i = static_cast<size_t>(node.value());
  if (node_tracks_.size() <= i) node_tracks_.resize(i + 1);
  std::string& track = node_tracks_[i];
  if (track.empty()) track = Observability::NodeTrack(node);
  return track;
}

void DistributedShellAm::HandlePreempt(TaskRt* task) {
  const bool can_increment =
      config_.incremental_checkpoints && task->proc->has_image;
  // Algorithm-1-aware fallback: a task whose dumps keep failing has an
  // effectively infinite checkpoint overhead, so the kill branch wins no
  // matter the estimates. Stop trying to checkpoint it.
  if (config_.policy != PreemptionPolicy::kKill &&
      config_.policy != PreemptionPolicy::kWait &&
      task->dump_failures >= config_.max_checkpoint_failures) {
    RecordPolicyDecision(task, can_increment, "kill_fallback");
    stats_.fallback_kills++;
    KillTask(task);
    return;
  }
  switch (config_.policy) {
    case PreemptionPolicy::kWait:
      CKPT_CHECK(false) << "wait policy never sends preempt events";
      return;
    case PreemptionPolicy::kKill:
      RecordPolicyDecision(task, can_increment, "kill");
      KillTask(task);
      return;
    case PreemptionPolicy::kCheckpoint:
      RecordPolicyDecision(task, can_increment,
                           can_increment ? "checkpoint_incremental"
                                         : "checkpoint_full");
      CheckpointTask(task, can_increment);
      return;
    case PreemptionPolicy::kAdaptive: {
      // Algorithm 1: dump + restore service time plus the node's checkpoint-
      // queue backlog (the RM tracks in-flight reservations).
      TouchDirtyPages(task);
      const NodeId node = task->container.node;
      const SimDuration overhead =
          rm_->DumpQueueDelay(node) +
          engine_->EstimateDumpService(*task->proc, node, can_increment) +
          engine_->EstimateRestore(*task->proc, node, /*local=*/true);
      const PreemptAction action =
          DecidePreemption(UnsavedProgress(task), overhead, can_increment,
                           config_.adaptive_threshold);
      RecordPolicyDecision(task, can_increment,
                           action == PreemptAction::kKill
                               ? "kill"
                               : action == PreemptAction::kCheckpointIncremental
                                     ? "checkpoint_incremental"
                                     : "checkpoint_full");
      if (action == PreemptAction::kKill) {
        KillTask(task);
      } else {
        CheckpointTask(task,
                       action == PreemptAction::kCheckpointIncremental);
      }
      return;
    }
  }
}

void DistributedShellAm::KillTask(TaskRt* task) {
  // Unsaved progress is lost; the task will rerun from its image (if any)
  // or from scratch.
  const SimDuration lost = UnsavedProgress(task);
  stats_.lost_work += lost;
  ChargeWaste(WasteCause::kKillLostWork, lost, task->container.node);
  stats_.kills++;
  task->attempt++;
  task->run_start = -1;
  task->work_done = task->saved_work;
  task->unsynced_run = 0;
  by_container_.erase(task->container.id);
  rm_->ReleaseContainer(task->container.id);
  RequeueTask(task);
}

void DistributedShellAm::TouchDirtyPages(TaskRt* task) {
  // Fold the execution since the last dump into the page table: the task
  // rewrote roughly write_rate * seconds of its footprint.
  SimDuration exposure = task->unsynced_run;
  if (task->state == TaskRt::State::kRunning && task->run_start >= 0) {
    exposure += sim_->Now() - task->run_start;
  }
  task->unsynced_run = exposure;  // carried until the next dump completes
  if (!task->proc->memory.tracking_enabled()) return;
  const double fraction = std::min(
      1.0, task->spec->memory_write_rate * ToSeconds(exposure));
  task->proc->memory.TouchRandomFraction(fraction, rng_);
}

void DistributedShellAm::CheckpointTask(TaskRt* task, bool incremental) {
  // Freeze the process tree and enqueue its dump on the node's sequential
  // checkpoint queue. The frozen container keeps its slot (the high-
  // priority job waits for the dump, as in the paper) but burns no CPU, so
  // only the dump's service time is checkpointing overhead.
  CKPT_CHECK(task->state == TaskRt::State::kRunning);
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDumping;
  task->attempt++;
  TouchDirtyPages(task);
  rm_->SuspendContainer(task->container.id);

  stats_.checkpoints++;
  if (incremental && task->proc->has_image) stats_.incremental_checkpoints++;
  const SimDuration dump_service = engine_->EstimateDumpService(
      *task->proc, task->container.node, incremental);
  stats_.dump_time += dump_service;
  if (config_.obs != nullptr) {
    ChargeWaste(WasteCause::kDumpOverhead, dump_service,
                task->container.node);
    // Queue wait behind the node's sequential checkpoint queue freezes the
    // container without counting as dump overhead.
    ChargeWaste(WasteCause::kQueueing,
                rm_->DumpQueueDelay(task->container.node),
                task->container.node);
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
                    stats_.lost_work += task->work_done - task->saved_work;
                    ChargeWaste(WasteCause::kFaultLostWork,
                                task->work_done - task->saved_work,
                                task->container.node);
                    task->work_done = task->saved_work;
                    task->unsynced_run = 0;
                    task->attempt++;
                    by_container_.erase(task->container.id);
                    rm_->ReleaseContainer(task->container.id);
                    RequeueTask(task);
                    return;
                  }
                  task->dump_failures = 0;
                  task->saved_work = task->work_done;
                  task->unsynced_run = 0;
                  by_container_.erase(task->container.id);
                  rm_->ReleaseContainer(task->container.id);
                  RequeueTask(task);
                });
}

void DistributedShellAm::RequeueTask(TaskRt* task) {
  task->state = TaskRt::State::kWaiting;
  waiting_.push_back(task);
  NodeId preferred;
  if (task->proc != nullptr && task->proc->has_image) {
    preferred = task->proc->image_node;
  }
  rm_->RequestContainers(app_, 1, preferred);
}

}  // namespace ckpt
