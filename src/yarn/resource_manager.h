// YARN ResourceManager: container allocation by priority plus the
// preemption monitor that dispatches ContainerPreemptEvents (paper S5.2).
//
// Allocation walks outstanding asks highest-priority first and places
// containers on nodes with free slots, honouring a preferred node when one
// is given (cost-aware remote resumption passes the image's node). When the
// top ask cannot be satisfied, the preemption monitor ranks lower-priority
// containers cost-aware — estimated checkpoint time, i.e. container memory
// over the node's checkpoint bandwidth plus the node's checkpoint-queue
// backlog — and asks their ApplicationMasters to vacate the cheapest ones.
//
// Asks and live containers are counted per priority as they enter and
// leave `asks_` and `live_`, and per-node vacating counts move with
// `preempt_pending_`. The preemption monitor returns before walking `live_`
// when no live container ranks below the top ask, and capacity queue usage
// is summed from the live counts. A monitor round that does walk `live_`
// costs O(L + v log v) for L live containers and v candidates; each
// candidate's cost is evaluated once before ranking.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/packed_ring.h"
#include "sim/simulator.h"
#include "yarn/container.h"
#include "yarn/node_manager.h"
#include "yarn/yarn_config.h"

namespace ckpt {

class Counter;
class Histogram;

// Callbacks the RM makes into an ApplicationMaster.
class AppClient {
 public:
  virtual ~AppClient() = default;
  virtual void OnContainerAllocated(const Container& container) = 0;
  // ContainerPreemptEvent: vacate this container (checkpoint or kill) and
  // release it.
  virtual void OnPreemptContainer(ContainerId id) = 0;
  // The container's node crashed: the container is already gone (do not
  // release it) and any in-flight work on it is void.
  virtual void OnContainerLost(ContainerId id) { (void)id; }
};

class ResourceManager {
 public:
  ResourceManager(Simulator* sim, std::vector<NodeManager*> nodes,
                  const YarnConfig& config);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  AppId RegisterApp(AppClient* client, int priority);
  void UnregisterApp(AppId app);

  // Ask for `count` containers; `preferred` (when valid) is tried first.
  void RequestContainers(AppId app, int count, NodeId preferred = NodeId());

  // The AM is done with the container (task finished, killed, or its
  // checkpoint completed); resources return to the node.
  void ReleaseContainer(ContainerId id);

  // Backlog of the node's sequential checkpoint queue (its device FIFO);
  // feeds the queue term of Algorithm 1's overhead estimate.
  SimDuration DumpQueueDelay(NodeId node) const;

  // Freeze/unfreeze a container's process without releasing the slot.
  void SuspendContainer(ContainerId id);
  void ResumeContainer(ContainerId id);

  // Node crash: drain the node's containers (owners learn through
  // OnContainerLost), mark it offline so allocation skips it. Recovery
  // brings the node back empty.
  void OnNodeFailure(NodeId node);
  void OnNodeRecovered(NodeId node);
  std::int64_t node_failures() const { return node_failures_; }

  const Container* FindContainer(ContainerId id) const;
  int live_containers() const { return static_cast<int>(live_.size()); }
  int pending_asks() const { return static_cast<int>(asks_.size()); }
  std::int64_t containers_allocated() const { return next_container_; }
  std::int64_t preempt_events_sent() const { return preempt_events_; }

 private:
  struct Ask {
    AppId app;
    int priority = 0;
    NodeId preferred;
    std::int64_t seq = 0;
  };
  struct AskOrder {
    bool operator()(const Ask& a, const Ask& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };
  using AskSet = std::multiset<Ask, AskOrder>;
  struct AppInfo {
    AppClient* client = nullptr;
    int priority = 0;
  };
  // A preemption candidate with its VictimCost, evaluated once per round.
  struct Victim {
    const Container* container = nullptr;
    SimDuration cost = 0;
  };

  void RequestSchedule();
  void ScheduleLoop();
  void PriorityAllocate();
  void CapacityAllocate();
  void RunPreemptionMonitor();
  void RunCapacityMonitor();
  bool Allocate(const Ask& ask);
  // Every asks_ erase goes through here to keep asks_by_priority_ exact.
  AskSet::iterator EraseAsk(AskSet::iterator it);
  // Every live_ erase calls this to keep live_by_priority_ exact.
  void UncountLive(int priority);
  // Live containers not yet asked to vacate that satisfy `eligible`, costed
  // and ranked into victims_.
  template <typename Pred>
  void CollectVictims(Pred eligible);
  void DispatchPreempts(std::int64_t count);
  void MarkPreemptPending(const Container& container);
  void ClearPreemptPending(const Container& container);
  NodeManager* PickNode(NodeId preferred);
  NodeManager* NodeOf(NodeId node) const;
  SimDuration VictimCost(const Container& container) const;
  void RankVictims();

  // Capacity mode: queue index of a priority (0 = batch, 1 = production).
  static int QueueOf(int priority) {
    return priority >= 9 ? 1 : 0;
  }
  std::array<int, 2> QueueUsage() const;

  Simulator* sim_;
  std::vector<NodeManager*> nodes_;
  std::vector<NodeManager*> node_by_id_;  // indexed by NodeId; null = absent
  YarnConfig config_;

  std::unordered_map<AppId, AppInfo> apps_;
  AskSet asks_;
  std::map<int, std::int64_t> asks_by_priority_;  // no zero entries
  std::unordered_map<ContainerId, Container> live_;
  std::map<int, std::int64_t> live_by_priority_;  // no zero entries
  std::unordered_set<ContainerId> preempt_pending_;
  std::vector<int> vacating_;  // preempt_pending_ containers per NodeId
  std::vector<Victim> victims_;  // per-round scratch

  int total_slots_ = 0;
  std::array<int, 2> guaranteed_slots_{};  // capacity mode, by queue

  std::int64_t next_app_ = 0;
  std::int64_t next_container_ = 0;
  std::int64_t next_seq_ = 0;
  std::int64_t preempt_events_ = 0;
  std::int64_t node_failures_ = 0;
  bool schedule_scheduled_ = false;
  size_t place_cursor_ = 0;

  // Per-dispatch audit candidate lists (reassigned in place), the row of
  // each node's vacating-cap skips in the current dispatch (kNoRow when it
  // has none) and lazily-resolved metric handles; indexed by dense node id.
  static constexpr std::int32_t kNoRow = -1;
  std::vector<TraceArgs> dispatch_candidates_;
  std::vector<std::int32_t> cap_row_;
  std::vector<Counter*> preempt_event_counters_;
  Histogram* dump_queue_delay_hist_ = nullptr;
  // ScheduleLoop's counters, resolved on its first loop with observability.
  Counter* schedule_loops_counter_ = nullptr;
  Counter* allocations_counter_ = nullptr;
};

}  // namespace ckpt
