#include "mesos/mesos.h"

#include <algorithm>

#include "common/logging.h"

namespace ckpt {

// --- MesosMaster --------------------------------------------------------------

MesosMaster::MesosMaster(Simulator* sim, Cluster* cluster, MesosConfig config)
    : sim_(sim), cluster_(cluster), config_(config) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(cluster != nullptr);
}

void MesosMaster::RegisterFramework(MesosFramework* framework, int weight) {
  CKPT_CHECK(framework != nullptr);
  auto info = std::make_unique<FrameworkInfo>();
  info->framework = framework;
  info->weight = weight;
  frameworks_.push_back(std::move(info));
}

void MesosMaster::DeactivateFramework(MesosFramework* framework) {
  if (FrameworkInfo* info = InfoFor(framework)) {
    info->active = false;
    info->outstanding_request = Resources{};
  }
}

MesosMaster::FrameworkInfo* MesosMaster::InfoFor(MesosFramework* framework) {
  for (auto& info : frameworks_) {
    if (info->framework == framework) return info.get();
  }
  return nullptr;
}

double MesosMaster::FrameworkShare(MesosFramework* framework) const {
  const Resources total = cluster_->TotalCapacity();
  for (const auto& info : frameworks_) {
    if (info->framework == framework && total.cpus > 0) {
      return info->allocated.cpus / total.cpus;
    }
  }
  return 0.0;
}

void MesosMaster::RequestResources(MesosFramework* framework,
                                   const Resources& amount) {
  FrameworkInfo* info = InfoFor(framework);
  CKPT_CHECK(info != nullptr) << "unregistered framework";
  info->outstanding_request = amount;
  RequestOfferCycle();
}

void MesosMaster::RequestOfferCycle() {
  if (cycle_scheduled_) return;
  cycle_scheduled_ = true;
  sim_->ScheduleAfter(0, [this] {
    cycle_scheduled_ = false;
    OfferCycle();
  });
}

void MesosMaster::OfferCycle() {
  // Offer free resources to needy frameworks, least dominant share (scaled
  // by weight) first — DRF in its simplest form.
  for (int guard = 0; guard < 1024; ++guard) {
    FrameworkInfo* chosen = nullptr;
    double chosen_share = 0;
    for (auto& info : frameworks_) {
      if (!info->active || info->outstanding_request.IsZero()) continue;
      if (info->next_offer_at > sim_->Now()) continue;
      const double share =
          FrameworkShare(info->framework) / std::max(info->weight, 1);
      if (chosen == nullptr || share < chosen_share) {
        chosen = info.get();
        chosen_share = share;
      }
    }
    if (chosen == nullptr) break;

    // Offer the first node with anything free.
    Node* node = nullptr;
    for (Node* candidate : cluster_->nodes()) {
      if (candidate->Available().cpus >= 1e-9 &&
          candidate->Available().memory > 0) {
        node = candidate;
        break;
      }
    }
    if (node == nullptr) {
      Revoke();
      return;
    }

    ResourceOffer offer;
    offer.offer_id = next_offer_id_++;
    offer.node = node->id();
    offer.available = node->Available();
    ++offers_sent_;
    const Resources before = chosen->allocated;
    chosen->framework->OnOffer(offer);
    if (chosen->allocated.cpus <= before.cpus + 1e-9) {
      // Declined: back off before offering to this framework again, and
      // wake the cycle when the backoff expires.
      ++offers_declined_;
      chosen->next_offer_at = sim_->Now() + config_.offer_backoff;
      sim_->ScheduleAt(chosen->next_offer_at, [this] { RequestOfferCycle(); });
    }
  }
}

std::int64_t MesosMaster::LaunchTask(MesosFramework* framework,
                                     const ResourceOffer& offer,
                                     const Resources& resources) {
  FrameworkInfo* info = InfoFor(framework);
  CKPT_CHECK(info != nullptr);
  Node& node = cluster_->node(offer.node);
  CKPT_CHECK(node.Allocate(resources))
      << "framework accepted more than the offer";
  const std::int64_t id = next_task_id_++;
  tasks_[id] = MesosTaskInfo{id, offer.node, resources};
  task_owner_[id] = framework;
  info->allocated += resources;
  info->outstanding_request -= Resources{
      std::min(info->outstanding_request.cpus, resources.cpus),
      std::min(info->outstanding_request.memory, resources.memory)};
  return id;
}

void MesosMaster::ReleaseTask(std::int64_t task_id) {
  auto it = tasks_.find(task_id);
  CKPT_CHECK(it != tasks_.end()) << "release of unknown task";
  FrameworkInfo* info = InfoFor(task_owner_.at(task_id));
  CKPT_CHECK(info != nullptr);
  cluster_->node(it->second.node).Release(it->second.resources);
  info->allocated -= it->second.resources;
  task_owner_.erase(task_id);
  revoke_pending_.erase(task_id);
  tasks_.erase(it);
  RequestOfferCycle();
}

const MesosTaskInfo* MesosMaster::FindTask(std::int64_t task_id) const {
  auto it = tasks_.find(task_id);
  return it == tasks_.end() ? nullptr : &it->second;
}

void MesosMaster::InjectNodeFailure(NodeId node) {
  Node& n = cluster_->node(node);
  if (!n.online()) return;
  ++node_failures_;
  // Collect in id order before notifying: tasks_ is a hash map, and the
  // owners' OnTaskLost handlers schedule events.
  std::vector<std::int64_t> lost;
  for (const auto& [id, task] : tasks_) {
    if (task.node == node) lost.push_back(id);
  }
  std::sort(lost.begin(), lost.end());
  for (std::int64_t id : lost) {
    MesosFramework* owner = task_owner_.at(id);
    FrameworkInfo* info = InfoFor(owner);
    n.Release(tasks_.at(id).resources);
    info->allocated -= tasks_.at(id).resources;
    task_owner_.erase(id);
    revoke_pending_.erase(id);
    tasks_.erase(id);
    sim_->ScheduleAfter(0, [owner, id] { owner->OnTaskLost(id); });
  }
  n.SetOnline(false);
  RequestOfferCycle();
}

void MesosMaster::RecoverNode(NodeId node) {
  Node& n = cluster_->node(node);
  if (n.online()) return;
  n.SetOnline(true);
  RequestOfferCycle();
}

void MesosMaster::Revoke() {
  if (config_.policy == PreemptionPolicy::kWait) return;
  // Pace revocation rounds: a framework that instantly releases a revoked
  // task (e.g. an aborted restore) must not create a same-instant
  // launch/revoke cycle.
  if (sim_->Now() < next_revoke_at_) return;
  // Highest-weight needy framework reclaims from lower-weight holders. Only
  // frameworks currently eligible for offers count: revoking for one that
  // is backing off would free resources it cannot yet take.
  FrameworkInfo* needy = nullptr;
  for (auto& info : frameworks_) {
    if (!info->active || info->outstanding_request.IsZero()) continue;
    if (info->next_offer_at > sim_->Now()) continue;
    if (needy == nullptr || info->weight > needy->weight) needy = info.get();
  }
  if (needy == nullptr) return;

  double needed_cpus = needy->outstanding_request.cpus;
  for (std::int64_t id : revoke_pending_) {
    auto it = tasks_.find(id);
    if (it != tasks_.end()) needed_cpus -= it->second.resources.cpus;
  }

  std::vector<std::pair<int, std::int64_t>> victims;  // (weight, task)
  for (const auto& [id, task] : tasks_) {
    if (revoke_pending_.count(id) > 0) continue;
    FrameworkInfo* owner = InfoFor(task_owner_.at(id));
    if (owner->weight < needy->weight) {
      victims.emplace_back(owner->weight, id);
    }
  }
  // Lowest weight first; youngest (highest id) within a weight.
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  bool any = false;
  for (const auto& [weight, id] : victims) {
    if (needed_cpus <= 1e-9) break;
    needed_cpus -= tasks_.at(id).resources.cpus;
    revoke_pending_.insert(id);
    ++revocations_;
    any = true;
    MesosFramework* owner = task_owner_.at(id);
    sim_->ScheduleAfter(0, [owner, id = id] { owner->OnRevoke(id); });
  }
  if (any) {
    next_revoke_at_ = sim_->Now() + config_.revoke_backoff;
    sim_->ScheduleAt(next_revoke_at_, [this] { RequestOfferCycle(); });
  }
}

// --- BatchFramework -----------------------------------------------------------

struct BatchFramework::TaskRt {
  int index = 0;
  std::unique_ptr<ProcessState> proc;

  enum class State { kWaiting, kRestoring, kRunning, kDumping, kDone };
  State state = State::kWaiting;
  int attempt = 0;

  SimTime run_start = -1;
  SimDuration work_done = 0;
  SimDuration saved_work = 0;
  int dump_failures = 0;  // consecutive; reset on a successful dump

  std::int64_t mesos_id = -1;
  NodeId node;
};

BatchFramework::BatchFramework(
    Simulator* sim, MesosMaster* master, CheckpointEngine* engine,
    std::string name, BatchFrameworkConfig config,
    std::function<void(const BatchFramework&)> on_done)
    : sim_(sim),
      master_(master),
      engine_(engine),
      name_(std::move(name)),
      config_(config),
      on_done_(std::move(on_done)),
      rng_(config.seed) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(master != nullptr);
  CKPT_CHECK(engine != nullptr);
}

BatchFramework::~BatchFramework() = default;

void BatchFramework::Start() {
  for (int i = 0; i < config_.num_tasks; ++i) {
    auto task = std::make_unique<TaskRt>();
    task->index = i;
    waiting_.push_back(task.get());
    tasks_.push_back(std::move(task));
  }
  if (config_.num_tasks == 0) {
    finish_time_ = sim_->Now();
    master_->DeactivateFramework(this);
    if (on_done_) on_done_(*this);
    return;
  }
  master_->RequestResources(
      this, Resources{config_.task_demand.cpus * config_.num_tasks,
                      config_.task_demand.memory * config_.num_tasks});
}

void BatchFramework::OnOffer(const ResourceOffer& offer) {
  Resources remaining = offer.available;
  while (!waiting_.empty() && config_.task_demand.FitsIn(remaining)) {
    TaskRt* task = waiting_.front();
    waiting_.pop_front();
    const std::int64_t id = master_->LaunchTask(this, offer,
                                                config_.task_demand);
    remaining -= config_.task_demand;
    ++stats_.launches;
    RunTask(task, offer.node, id);
  }
  // Leaving the loop without launching anything is a decline; the master
  // detects it from the unchanged allocation.
}

void BatchFramework::RunTask(TaskRt* task, NodeId node,
                             std::int64_t mesos_id) {
  task->node = node;
  task->mesos_id = mesos_id;
  by_mesos_id_[mesos_id] = task;

  if (task->proc == nullptr) {
    task->proc = std::make_unique<ProcessState>(
        TaskId(task->index), config_.task_demand.memory,
        config_.image_page_size);
  }

  auto begin_run = [this, task] {
    task->state = TaskRt::State::kRunning;
    task->run_start = sim_->Now();
    task->attempt++;
    SimDuration remaining = config_.task_duration - task->work_done;
    if (remaining < 1) remaining = 1;
    const int attempt = task->attempt;
    sim_->ScheduleAfter(
        remaining, [this, task, attempt] { OnTaskComplete(task, attempt); });
  };

  if (task->proc->has_image) {
    task->state = TaskRt::State::kRestoring;
    task->attempt++;
    const int attempt = task->attempt;
    stats_.restores++;
    engine_->Restore(*task->proc, node,
                     [this, task, attempt, begin_run](const RestoreResult& r) {
                       if (task->attempt != attempt ||
                           task->state != TaskRt::State::kRestoring) {
                         return;
                       }
                       if (!r.ok) {
                         // I/O fault or corrupt image: restart from scratch
                         // on the resources we already hold instead of
                         // aborting the framework.
                         stats_.restore_failures++;
                         stats_.lost_work += task->saved_work;
                         engine_->Discard(*task->proc);
                         task->saved_work = 0;
                         task->work_done = 0;
                         begin_run();
                         return;
                       }
                       task->work_done = task->saved_work;
                       begin_run();
                     });
    return;
  }
  begin_run();
}

void BatchFramework::OnTaskComplete(TaskRt* task, int attempt) {
  if (task->attempt != attempt || task->state != TaskRt::State::kRunning) {
    return;
  }
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDone;
  task->attempt++;
  if (task->proc != nullptr) engine_->Discard(*task->proc);
  by_mesos_id_.erase(task->mesos_id);
  master_->ReleaseTask(task->mesos_id);

  stats_.tasks_done++;
  if (Done()) {
    finish_time_ = sim_->Now();
    master_->DeactivateFramework(this);
    if (on_done_) on_done_(*this);
  }
}

SimDuration BatchFramework::UnsavedProgress(const TaskRt* task) const {
  SimDuration progress = task->work_done - task->saved_work;
  if (task->state == TaskRt::State::kRunning && task->run_start >= 0) {
    progress += sim_->Now() - task->run_start;
  }
  return progress;
}

void BatchFramework::OnRevoke(std::int64_t task_id) {
  auto it = by_mesos_id_.find(task_id);
  if (it == by_mesos_id_.end()) return;  // completed concurrently
  TaskRt* task = it->second;
  if (task->state != TaskRt::State::kRunning &&
      task->state != TaskRt::State::kRestoring) {
    return;
  }
  stats_.revocations++;

  auto requeue = [this, task] {
    task->state = TaskRt::State::kWaiting;
    by_mesos_id_.erase(task->mesos_id);
    master_->ReleaseTask(task->mesos_id);
    task->mesos_id = -1;
    waiting_.push_back(task);
    master_->RequestResources(
        this,
        Resources{config_.task_demand.cpus *
                      static_cast<double>(waiting_.size()),
                  config_.task_demand.memory *
                      static_cast<Bytes>(waiting_.size())});
  };

  // Aborted restore: the image is intact, nothing to decide.
  if (task->state == TaskRt::State::kRestoring) {
    task->attempt++;
    requeue();
    return;
  }

  PreemptAction action = PreemptAction::kKill;
  const bool can_increment = config_.incremental && task->proc->has_image;
  if (config_.policy != PreemptionPolicy::kWait &&
      config_.policy != PreemptionPolicy::kKill &&
      task->dump_failures >= config_.max_checkpoint_failures) {
    // Algorithm 1 degenerates to the kill baseline once this task's dumps
    // keep failing: the checkpoint cost is being paid with nothing saved.
    stats_.fallback_kills++;
    stats_.lost_work += UnsavedProgress(task);
    stats_.kills++;
    task->attempt++;
    task->run_start = -1;
    task->work_done = task->saved_work;
    requeue();
    return;
  }
  switch (config_.policy) {
    case PreemptionPolicy::kWait:
    case PreemptionPolicy::kKill:
      action = PreemptAction::kKill;
      break;
    case PreemptionPolicy::kCheckpoint:
      action = can_increment ? PreemptAction::kCheckpointIncremental
                             : PreemptAction::kCheckpointFull;
      break;
    case PreemptionPolicy::kAdaptive: {
      // Fold the run so far into the soft-dirty page set.
      const double fraction = std::min(
          1.0, config_.memory_write_rate *
                   ToSeconds(sim_->Now() - task->run_start));
      if (task->proc->memory.tracking_enabled()) {
        task->proc->memory.TouchRandomFraction(fraction, rng_);
      }
      const SimDuration overhead =
          engine_->EstimateDump(*task->proc, task->node, can_increment) +
          engine_->EstimateRestore(*task->proc, task->node, /*local=*/true);
      action = DecidePreemption(UnsavedProgress(task), overhead,
                                can_increment, config_.adaptive_threshold);
      break;
    }
  }

  if (action == PreemptAction::kKill) {
    stats_.lost_work += UnsavedProgress(task);
    stats_.kills++;
    task->attempt++;
    task->run_start = -1;
    task->work_done = task->saved_work;
    requeue();
    return;
  }

  // Freeze and dump, then hand the resources back.
  task->work_done += sim_->Now() - task->run_start;
  task->run_start = -1;
  task->state = TaskRt::State::kDumping;
  task->attempt++;
  stats_.checkpoints++;
  DumpOptions opts;
  opts.incremental = action == PreemptAction::kCheckpointIncremental;
  const int attempt = task->attempt;
  engine_->Dump(*task->proc, task->node, opts,
                [this, task, attempt, requeue](const DumpResult& result) {
                  if (task->attempt != attempt ||
                      task->state != TaskRt::State::kDumping) {
                    return;
                  }
                  if (!result.ok) {
                    // Dump failed after retries; write-new-then-swap kept
                    // any previous image intact, so only the unsaved run
                    // since it is lost.
                    stats_.dump_failures++;
                    task->dump_failures++;
                    stats_.lost_work += task->work_done - task->saved_work;
                    task->work_done = task->saved_work;
                    requeue();
                    return;
                  }
                  task->dump_failures = 0;
                  task->saved_work = task->work_done;
                  requeue();
                });
}

void BatchFramework::OnTaskLost(std::int64_t task_id) {
  auto it = by_mesos_id_.find(task_id);
  if (it == by_mesos_id_.end()) return;  // completed concurrently
  TaskRt* task = it->second;
  by_mesos_id_.erase(it);
  stats_.tasks_lost++;
  switch (task->state) {
    case TaskRt::State::kRunning:
      stats_.lost_work += UnsavedProgress(task);
      break;
    case TaskRt::State::kDumping:
      // A late dump completion must not commit into this task.
      engine_->CancelInflight(*task->proc);
      stats_.lost_work += task->work_done - task->saved_work;
      break;
    case TaskRt::State::kRestoring:
      engine_->CancelInflight(*task->proc);
      break;
    case TaskRt::State::kWaiting:
    case TaskRt::State::kDone:
      return;
  }
  task->attempt++;
  task->run_start = -1;
  task->work_done = task->saved_work;
  task->mesos_id = -1;
  task->state = TaskRt::State::kWaiting;
  waiting_.push_back(task);
  master_->RequestResources(
      this, Resources{config_.task_demand.cpus *
                          static_cast<double>(waiting_.size()),
                      config_.task_demand.memory *
                          static_cast<Bytes>(waiting_.size())});
}

}  // namespace ckpt
