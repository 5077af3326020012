// Mesos-style two-level scheduling with checkpoint-based revocation.
//
// The paper's system model (S3.1) "is generic and employed by many
// frameworks such as Google's Omega, Hadoop YARN, Mesos and Dryad". The
// YARN layer (src/yarn) realizes it with a request-based RM; this module
// realizes the same model offer-based, Mesos-style:
//
//  - Frameworks register with the master (with a priority/role weight).
//  - The master sends *resource offers* (free capacity on a node) to one
//    framework at a time, dominant-share-fairly; the framework accepts a
//    slice (launching tasks) or declines.
//  - Under contention the master *revokes* resources from lower-priority
//    frameworks. A revocation notice is the offer-world analogue of YARN's
//    ContainerPreemptEvent: the framework's preemption handler runs
//    Algorithm 1 — checkpoint the task if its progress outweighs the
//    suspend-resume cost, kill it otherwise — and returns the resources.
//
// BatchFramework is the reference framework implementation (the analogue of
// the DistributedShell AM).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "scheduler/policy.h"
#include "sim/simulator.h"
#include "storage/medium.h"

namespace ckpt {

struct ResourceOffer {
  std::int64_t offer_id = 0;
  NodeId node;
  Resources available;
};

// A task launched through an offer; the master tracks it for revocation.
struct MesosTaskInfo {
  std::int64_t task_id = 0;
  NodeId node;
  Resources resources;
};

class MesosFramework {
 public:
  virtual ~MesosFramework() = default;

  // An offer of free resources on one node. Return the resources to accept
  // (zero to decline); then call MesosMaster::LaunchTask for each task
  // started within the accepted slice, before returning.
  virtual void OnOffer(const ResourceOffer& offer) = 0;

  // Revocation notice: vacate this task (checkpoint or kill) and call
  // MesosMaster::ReleaseTask when its resources are free.
  virtual void OnRevoke(std::int64_t task_id) = 0;

  // The node hosting this task crashed. The master has already dropped the
  // task and its resources; do NOT call ReleaseTask — just account the loss
  // and requeue the work.
  virtual void OnTaskLost(std::int64_t task_id) { (void)task_id; }

  virtual const char* name() const = 0;
};

struct MesosConfig {
  // Offers are re-sent this long after a framework declines (Mesos'
  // offer-timeout behaviour keeps declined resources from starving).
  SimDuration offer_backoff = Seconds(5);
  // Minimum spacing between revocation rounds.
  SimDuration revoke_backoff = Seconds(1);
  PreemptionPolicy policy = PreemptionPolicy::kAdaptive;
};

class MesosMaster {
 public:
  MesosMaster(Simulator* sim, Cluster* cluster, MesosConfig config);

  MesosMaster(const MesosMaster&) = delete;
  MesosMaster& operator=(const MesosMaster&) = delete;

  // Register a framework; higher weight = higher revocation priority.
  void RegisterFramework(MesosFramework* framework, int weight);
  void DeactivateFramework(MesosFramework* framework);  // no more offers

  // Called by a framework from OnOffer to start a task inside the offer.
  // Returns the task id the master will use in revocation notices.
  std::int64_t LaunchTask(MesosFramework* framework,
                          const ResourceOffer& offer,
                          const Resources& resources);

  // Called by a framework when a task's resources are free again
  // (completed, killed, or checkpoint finished).
  void ReleaseTask(std::int64_t task_id);

  // Ask the master for resources (triggers offers and, under contention,
  // revocation of lower-weight frameworks' tasks).
  void RequestResources(MesosFramework* framework, const Resources& amount);

  // Script a node crash: every task on the node is torn down (each owner
  // gets OnTaskLost) and the node stops receiving offers until RecoverNode.
  void InjectNodeFailure(NodeId node);
  void RecoverNode(NodeId node);

  const MesosTaskInfo* FindTask(std::int64_t task_id) const;
  std::int64_t offers_sent() const { return offers_sent_; }
  std::int64_t offers_declined() const { return offers_declined_; }
  std::int64_t revocations_sent() const { return revocations_; }
  std::int64_t node_failures() const { return node_failures_; }
  double FrameworkShare(MesosFramework* framework) const;

 private:
  struct FrameworkInfo {
    MesosFramework* framework = nullptr;
    int weight = 0;
    Resources allocated;
    Resources outstanding_request;
    SimTime next_offer_at = 0;  // decline backoff
    bool active = true;
  };

  void RequestOfferCycle();
  void OfferCycle();
  void Revoke();
  FrameworkInfo* InfoFor(MesosFramework* framework);

  Simulator* sim_;
  Cluster* cluster_;
  MesosConfig config_;

  std::vector<std::unique_ptr<FrameworkInfo>> frameworks_;
  std::unordered_map<std::int64_t, MesosTaskInfo> tasks_;
  std::unordered_map<std::int64_t, MesosFramework*> task_owner_;
  std::unordered_set<std::int64_t> revoke_pending_;
  std::int64_t next_task_id_ = 0;
  std::int64_t next_offer_id_ = 0;
  std::int64_t offers_sent_ = 0;
  std::int64_t offers_declined_ = 0;
  std::int64_t revocations_ = 0;
  std::int64_t node_failures_ = 0;
  SimTime next_revoke_at_ = 0;
  bool cycle_scheduled_ = false;
};

// --- Reference framework -----------------------------------------------------

struct BatchFrameworkConfig {
  int num_tasks = 10;
  SimDuration task_duration = Seconds(60);
  Resources task_demand{1.0, GiB(2)};
  double memory_write_rate = 0.02;
  PreemptionPolicy policy = PreemptionPolicy::kAdaptive;
  double adaptive_threshold = 1.0;
  Bytes image_page_size = kMiB;
  bool incremental = true;
  // After this many consecutive failed dumps of one task, revocation falls
  // back to killing it (Algorithm 1 degenerates to the kill baseline).
  int max_checkpoint_failures = 3;
  std::uint64_t seed = 99;
};

struct BatchFrameworkStats {
  std::int64_t tasks_done = 0;
  std::int64_t launches = 0;
  std::int64_t revocations = 0;
  std::int64_t kills = 0;
  std::int64_t checkpoints = 0;
  std::int64_t restores = 0;
  std::int64_t tasks_lost = 0;        // node crashes under running tasks
  std::int64_t dump_failures = 0;     // dumps that failed after retries
  std::int64_t restore_failures = 0;  // restores abandoned (I/O or corrupt)
  std::int64_t fallback_kills = 0;    // revocations downgraded to kill
  SimDuration lost_work = 0;
};

class BatchFramework final : public MesosFramework {
 public:
  BatchFramework(Simulator* sim, MesosMaster* master, CheckpointEngine* engine,
                 std::string name, BatchFrameworkConfig config,
                 std::function<void(const BatchFramework&)> on_done);
  ~BatchFramework() override;

  // Ask the master for enough resources for all remaining tasks.
  void Start();

  // MesosFramework ------------------------------------------------------------
  void OnOffer(const ResourceOffer& offer) override;
  void OnRevoke(std::int64_t task_id) override;
  void OnTaskLost(std::int64_t task_id) override;
  const char* name() const override { return name_.c_str(); }

  bool Done() const { return stats_.tasks_done == config_.num_tasks; }
  SimTime finish_time() const { return finish_time_; }
  const BatchFrameworkStats& stats() const { return stats_; }

 private:
  struct TaskRt;

  void RunTask(TaskRt* task, NodeId node, std::int64_t mesos_id);
  void OnTaskComplete(TaskRt* task, int attempt);
  SimDuration UnsavedProgress(const TaskRt* task) const;

  Simulator* sim_;
  MesosMaster* master_;
  CheckpointEngine* engine_;
  std::string name_;
  BatchFrameworkConfig config_;
  std::function<void(const BatchFramework&)> on_done_;
  Rng rng_;

  std::vector<std::unique_ptr<TaskRt>> tasks_;
  std::deque<TaskRt*> waiting_;
  std::unordered_map<std::int64_t, TaskRt*> by_mesos_id_;
  BatchFrameworkStats stats_;
  SimTime finish_time_ = -1;
};

}  // namespace ckpt
