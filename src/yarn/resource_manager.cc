#include "yarn/resource_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

ResourceManager::ResourceManager(Simulator* sim,
                                 std::vector<NodeManager*> nodes,
                                 const YarnConfig& config)
    : sim_(sim), nodes_(std::move(nodes)), config_(config) {
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(!nodes_.empty());
  for (NodeManager* nm : nodes_) {
    CKPT_CHECK(nm != nullptr);
    CKPT_CHECK(nm->id().valid());
    const auto i = static_cast<size_t>(nm->id().value());
    if (node_by_id_.size() <= i) node_by_id_.resize(i + 1, nullptr);
    node_by_id_[i] = nm;
    const Resources capacity = nm->node().capacity();
    const int by_cpu = static_cast<int>(capacity.cpus /
                                        config_.container_size.cpus);
    const int by_mem = static_cast<int>(capacity.memory /
                                        config_.container_size.memory);
    total_slots_ += std::min(by_cpu, by_mem);
  }
  CKPT_CHECK_GE(config_.production_guarantee, 0.0);
  CKPT_CHECK_LE(config_.production_guarantee, 1.0);
  guaranteed_slots_[1] = static_cast<int>(
      total_slots_ * config_.production_guarantee + 0.5);
  guaranteed_slots_[0] = total_slots_ - guaranteed_slots_[1];
  vacating_.assign(node_by_id_.size(), 0);
}

NodeManager* ResourceManager::NodeOf(NodeId node) const {
  const auto i = static_cast<size_t>(node.value());
  CKPT_CHECK(node.valid() && i < node_by_id_.size() &&
             node_by_id_[i] != nullptr)
      << "unknown node " << node.value();
  return node_by_id_[i];
}

std::array<int, 2> ResourceManager::QueueUsage() const {
  std::array<int, 2> usage{};
  for (const auto& [id, container] : live_) {
    usage[static_cast<size_t>(QueueOf(container.priority))]++;
  }
  return usage;
}

AppId ResourceManager::RegisterApp(AppClient* client, int priority) {
  CKPT_CHECK(client != nullptr);
  AppId id(next_app_++);
  apps_[id] = AppInfo{client, priority};
  return id;
}

void ResourceManager::UnregisterApp(AppId app) {
  apps_.erase(app);
  for (auto it = asks_.begin(); it != asks_.end();) {
    it = it->app == app ? EraseAsk(it) : std::next(it);
  }
}

void ResourceManager::RequestContainers(AppId app, int count,
                                        NodeId preferred) {
  auto it = apps_.find(app);
  CKPT_CHECK(it != apps_.end());
  const int priority = it->second.priority;
  for (int i = 0; i < count; ++i) {
    asks_.insert(Ask{app, priority, preferred, next_seq_++});
  }
  if (count > 0) asks_by_priority_[priority] += count;
  RequestSchedule();
}

ResourceManager::AskSet::iterator ResourceManager::EraseAsk(
    AskSet::iterator it) {
  auto count = asks_by_priority_.find(it->priority);
  CKPT_CHECK(count != asks_by_priority_.end());
  if (--count->second == 0) asks_by_priority_.erase(count);
  return asks_.erase(it);
}

void ResourceManager::MarkPreemptPending(const Container& container) {
  preempt_pending_.insert(container.id);
  vacating_[static_cast<size_t>(container.node.value())]++;
}

void ResourceManager::ClearPreemptPending(const Container& container) {
  if (preempt_pending_.erase(container.id) > 0) {
    vacating_[static_cast<size_t>(container.node.value())]--;
  }
}

void ResourceManager::ReleaseContainer(ContainerId id) {
  auto it = live_.find(id);
  // A node crash may have torn the container down while the AM's release
  // was in flight; that is not an error.
  if (it == live_.end()) return;
  NodeOf(it->second.node)->StopContainer(id);
  ClearPreemptPending(it->second);
  live_.erase(it);
  RequestSchedule();
}

SimDuration ResourceManager::DumpQueueDelay(NodeId node) const {
  return NodeOf(node)->node().storage().QueueDelay();
}

void ResourceManager::SuspendContainer(ContainerId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // lost to a node crash
  NodeOf(it->second.node)->SuspendContainer(id);
}

void ResourceManager::ResumeContainer(ContainerId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // lost to a node crash
  NodeOf(it->second.node)->ResumeContainer(id);
}

void ResourceManager::OnNodeFailure(NodeId node) {
  NodeManager* nm = NodeOf(node);
  if (!nm->node().online()) return;
  ++node_failures_;
  std::vector<Container> evicted = nm->Drain();
  nm->node().SetOnline(false);
  if (Observability* obs = config_.obs) {
    obs->metrics()
        .GetCounter("rm.node_failures",
                    {{"node", Observability::NodeLabel(node)}})
        ->Inc();
    obs->tracer().Instant(
        "fault.node_crash", "fault", Observability::NodeTrack(node),
        sim_->Now(),
        {TraceArg::Num("containers_lost",
                       static_cast<double>(evicted.size()))});
  }
  for (const Container& container : evicted) {
    live_.erase(container.id);
    ClearPreemptPending(container);
    auto app_it = apps_.find(container.app);
    if (app_it == apps_.end()) continue;
    AppClient* client = app_it->second.client;
    const ContainerId id = container.id;
    // The AM learns asynchronously, as it would from a missed NM heartbeat.
    sim_->ScheduleAfter(config_.rpc_latency,
                        [client, id] { client->OnContainerLost(id); });
  }
  RequestSchedule();
}

void ResourceManager::OnNodeRecovered(NodeId node) {
  NodeManager* nm = NodeOf(node);
  if (nm->node().online()) return;
  nm->node().SetOnline(true);
  if (Observability* obs = config_.obs) {
    obs->tracer().Instant("fault.node_recover", "fault",
                          Observability::NodeTrack(node), sim_->Now(), {});
  }
  RequestSchedule();
}

const Container* ResourceManager::FindContainer(ContainerId id) const {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second;
}

void ResourceManager::RequestSchedule() {
  if (schedule_scheduled_) return;
  schedule_scheduled_ = true;
  sim_->ScheduleAfter(0, [this] {
    schedule_scheduled_ = false;
    ScheduleLoop();
  });
}

NodeManager* ResourceManager::PickNode(NodeId preferred) {
  const auto pi = static_cast<size_t>(preferred.value());
  if (preferred.valid() && pi < node_by_id_.size()) {
    NodeManager* nm = node_by_id_[pi];
    if (nm != nullptr && config_.container_size.FitsIn(nm->Available())) {
      return nm;
    }
  }
  const size_t n = nodes_.size();
  for (size_t i = 0; i < n; ++i) {
    NodeManager* nm = nodes_[(place_cursor_ + i) % n];
    if (config_.container_size.FitsIn(nm->Available())) {
      place_cursor_ = (place_cursor_ + i + 1) % n;
      return nm;
    }
  }
  return nullptr;
}

void ResourceManager::ScheduleLoop() {
  Observability* obs = config_.obs;
  Tracer::SpanId span = Tracer::kInvalidSpan;
  // Idle wakeups (no outstanding asks) are not worth a trace event; they
  // would dominate the ring without explaining any scheduling decision.
  const bool traced = obs != nullptr && !asks_.empty();
  if (traced) {
    span = obs->tracer().BeginSpan(
        "rm.schedule_loop", "rm", "rm", sim_->Now(),
        {TraceArg::Num("pending_asks", static_cast<double>(asks_.size())),
         TraceArg::Num("live_containers", static_cast<double>(live_.size()))});
  }
  const std::int64_t allocated_before = next_container_;
  if (config_.scheduling_mode == SchedulingMode::kCapacity) {
    CapacityAllocate();
  } else {
    PriorityAllocate();
  }
  if (config_.policy != PreemptionPolicy::kWait) {
    if (config_.scheduling_mode == SchedulingMode::kCapacity) {
      RunCapacityMonitor();
    } else {
      RunPreemptionMonitor();
    }
  }
  if (obs != nullptr) {
    obs->metrics().GetCounter("rm.schedule_loops")->Inc();
    obs->metrics()
        .GetCounter("rm.allocations")
        ->Inc(next_container_ - allocated_before);
  }
  if (traced) {
    obs->tracer().EndSpan(
        span, sim_->Now(),
        {TraceArg::Num("allocated",
                       static_cast<double>(next_container_ - allocated_before)),
         TraceArg::Num("unplaced_asks", static_cast<double>(asks_.size()))});
  }
}

// Place one container for `ask`; false when no node can host it.
bool ResourceManager::Allocate(const Ask& ask) {
  NodeManager* nm = PickNode(ask.preferred);
  if (nm == nullptr) return false;
  auto app_it = apps_.find(ask.app);
  if (app_it == apps_.end()) return true;  // stale ask: drop silently
  Container container;
  container.id = ContainerId(next_container_++);
  container.app = ask.app;
  container.node = nm->id();
  container.size = config_.container_size;
  container.priority = ask.priority;
  container.started = sim_->Now();
  CKPT_CHECK(nm->LaunchContainer(container));
  live_[container.id] = container;
  AppClient* client = app_it->second.client;
  sim_->ScheduleAfter(config_.rpc_latency, [client, container] {
    client->OnContainerAllocated(container);
  });
  return true;
}

void ResourceManager::PriorityAllocate() {
  // Satisfy asks highest-priority first while slots last.
  for (auto it = asks_.begin(); it != asks_.end();) {
    if (!Allocate(*it)) break;  // cluster full: fall through to the monitor
    it = EraseAsk(it);
  }
}

void ResourceManager::CapacityAllocate() {
  auto usage = QueueUsage();
  // Pass 1: queues below their guarantee claim their share first.
  for (auto it = asks_.begin(); it != asks_.end();) {
    const auto queue = static_cast<size_t>(QueueOf(it->priority));
    if (usage[queue] >= guaranteed_slots_[queue]) {
      ++it;
      continue;
    }
    if (!Allocate(*it)) return;
    usage[queue]++;
    it = EraseAsk(it);
  }
  // Pass 2: work conservation — idle slots may be borrowed beyond the
  // guarantee (they come back through the capacity monitor when needed).
  for (auto it = asks_.begin(); it != asks_.end();) {
    if (!Allocate(*it)) return;
    it = EraseAsk(it);
  }
}

SimDuration ResourceManager::VictimCost(const Container& container) const {
  // Paper S5.2.2 "checkpoint cost-aware eviction": container memory divided
  // by the node's checkpoint bandwidth, plus that node's current
  // checkpoint-queue backlog.
  const StorageDevice& device = NodeOf(container.node)->node().storage();
  return device.QueueDelay() + device.EstimateWrite(container.size.memory);
}

template <typename Pred>
void ResourceManager::CollectVictims(Pred eligible) {
  victims_.clear();
  for (const auto& [id, container] : live_) {
    if (eligible(container) && preempt_pending_.count(id) == 0) {
      victims_.push_back(Victim{&container, VictimCost(container)});
    }
  }
  RankVictims();
}

void ResourceManager::RankVictims() {
  switch (config_.victim_order) {
    case VictimOrder::kCostAware:
      std::sort(victims_.begin(), victims_.end(),
                [](const Victim& va, const Victim& vb) {
                  if (va.cost != vb.cost) return va.cost < vb.cost;
                  // Equal checkpoint cost (same container size and queue):
                  // vacate the youngest container — it has the least
                  // progress to save or lose.
                  const Container* a = va.container;
                  const Container* b = vb.container;
                  if (a->started != b->started) return a->started > b->started;
                  return a->id.value() < b->id.value();
                });
      break;
    case VictimOrder::kLowestPriority:
      std::sort(victims_.begin(), victims_.end(),
                [](const Victim& va, const Victim& vb) {
                  const Container* a = va.container;
                  const Container* b = vb.container;
                  if (a->priority != b->priority)
                    return a->priority < b->priority;
                  return a->id.value() < b->id.value();
                });
      break;
    case VictimOrder::kRandom:
      // Deterministic shuffle stand-in: order by id hash-ish.
      std::sort(victims_.begin(), victims_.end(),
                [](const Victim& a, const Victim& b) {
                  return (a.container->id.value() * 2654435761u % 1000003) <
                         (b.container->id.value() * 2654435761u % 1000003);
                });
      break;
  }
}

const std::string& ResourceManager::NodeTrackCached(NodeId node) {
  const size_t i = static_cast<size_t>(node.value());
  if (node_tracks_.size() <= i) node_tracks_.resize(i + 1);
  std::string& track = node_tracks_[i];
  if (track.empty()) track = Observability::NodeTrack(node);
  return track;
}

void ResourceManager::DispatchPreempts(std::int64_t count) {
  // Audit envelope: which ranked victims the monitor examined this round
  // and why each was dispatched or passed over.
  Observability* obs = config_.obs;
  // Candidate lists are member scratch whose capacity is reused from round
  // to round; the audit log copies them out.
  size_t cand_used = 0;
  std::int64_t dispatched = 0;
  auto audit_victim = [&](const Victim& v, const char* action,
                          const char* reason) {
    if (obs == nullptr) return;
    const Container* victim = v.container;
    if (dispatch_candidates_.size() <= cand_used) {
      dispatch_candidates_.emplace_back();
    }
    dispatch_candidates_[cand_used++] = {
        TraceArg::Num("container", static_cast<double>(victim->id.value())),
        TraceArg::Num("app", static_cast<double>(victim->app.value())),
        TraceArg::Num("node", static_cast<double>(victim->node.value())),
        TraceArg::Num("priority", victim->priority),
        TraceArg::Num("cost_s", ToSeconds(v.cost)),
        TraceArg::Str("action", action), TraceArg::Str("reason", reason)};
  };

  for (const Victim& v : victims_) {
    const Container* victim = v.container;
    if (count <= 0) {
      if (obs == nullptr) break;  // the seed's early exit
      audit_victim(v, "skipped", "quota_filled");
      continue;
    }
    // Per-node cap on concurrent vacating containers: checkpoints on a node
    // are sequential, so asking more victims than that to dump at once only
    // freezes work that could still be executing.
    if (config_.policy != PreemptionPolicy::kKill &&
        vacating_[static_cast<size_t>(victim->node.value())] >=
            config_.max_vacating_per_node) {
      audit_victim(v, "skipped", "vacating_cap");
      continue;
    }
    auto app_it = apps_.find(victim->app);
    if (app_it == apps_.end()) {
      audit_victim(v, "skipped", "app_gone");
      continue;
    }
    audit_victim(v, "dispatched", "selected");
    ++dispatched;
    MarkPreemptPending(*victim);
    ++preempt_events_;
    --count;
    if (obs != nullptr) {
      const SimDuration queue_delay = DumpQueueDelay(victim->node);
      obs->tracer().Instant(
          "rm.preempt_event", "rm", NodeTrackCached(victim->node),
          sim_->Now(),
          {TraceArg::Num("container", static_cast<double>(victim->id.value())),
           TraceArg::Num("app", static_cast<double>(victim->app.value())),
           TraceArg::Num("priority", victim->priority),
           TraceArg::Num("victim_cost_s", ToSeconds(v.cost)),
           TraceArg::Num("dump_queue_s", ToSeconds(queue_delay))});
      const size_t ni = static_cast<size_t>(victim->node.value());
      if (preempt_event_counters_.size() <= ni) {
        preempt_event_counters_.resize(ni + 1);
      }
      Counter*& events = preempt_event_counters_[ni];
      if (events == nullptr) {
        events = obs->metrics().GetCounter(
            "rm.preempt_events",
            {{"node", Observability::NodeLabel(victim->node)}});
      }
      events->Inc();
      if (dump_queue_delay_hist_ == nullptr) {
        dump_queue_delay_hist_ = obs->metrics().GetHistogram(
            "rm.dump_queue_delay_seconds", {},
            {0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300});
      }
      dump_queue_delay_hist_->Observe(ToSeconds(queue_delay));
    }
    AppClient* client = app_it->second.client;
    const ContainerId cid = victim->id;
    sim_->ScheduleAfter(config_.rpc_latency,
                        [client, cid] { client->OnPreemptContainer(cid); });
  }
  if (obs != nullptr && cand_used > 0) {
    obs->audit().Event(
        "rm_preempt_dispatch", "rm", sim_->Now(),
        {TraceArg::Num("considered", static_cast<double>(cand_used)),
         TraceArg::Num("dispatched", static_cast<double>(dispatched))},
        {dispatch_candidates_.data(), cand_used});
  }
}

void ResourceManager::RunPreemptionMonitor() {
  if (asks_.empty()) return;
  // Consider only the top ask's priority level; lower asks wait their turn.
  const int want_priority = asks_.begin()->priority;
  const std::int64_t unsatisfied = asks_by_priority_.at(want_priority);
  const auto in_flight = static_cast<std::int64_t>(preempt_pending_.size());
  if (unsatisfied <= in_flight) return;

  CollectVictims([want_priority](const Container& c) {
    return c.priority < want_priority;
  });
  DispatchPreempts(unsatisfied - in_flight);
}

void ResourceManager::RunCapacityMonitor() {
  if (asks_.empty()) return;
  auto usage = QueueUsage();

  // Count unsatisfied asks and pending reclaims per queue.
  std::array<std::int64_t, 2> unsatisfied{};
  for (const auto& [priority, count] : asks_by_priority_) {
    unsatisfied[static_cast<size_t>(QueueOf(priority))] += count;
  }
  std::array<std::int64_t, 2> pending{};
  for (ContainerId id : preempt_pending_) {
    auto it = live_.find(id);
    if (it != live_.end()) {
      pending[static_cast<size_t>(QueueOf(it->second.priority))]++;
    }
  }

  // Serve the production queue's deficit first, then batch's.
  for (size_t queue : {size_t{1}, size_t{0}}) {
    const size_t other = 1 - queue;
    const std::int64_t deficit = guaranteed_slots_[queue] - usage[queue];
    if (deficit <= 0 || unsatisfied[queue] == 0) continue;
    // Only containers the other queue holds beyond its own guarantee are
    // reclaimable: a queue within its share is never preempted.
    const std::int64_t surplus = static_cast<std::int64_t>(usage[other]) -
                                 guaranteed_slots_[other] - pending[other];
    const std::int64_t want =
        std::min({deficit, unsatisfied[queue], surplus});
    if (want <= 0) continue;

    CollectVictims([other](const Container& c) {
      return static_cast<size_t>(QueueOf(c.priority)) == other;
    });
    DispatchPreempts(want);
    return;  // one queue per monitor round
  }
}

}  // namespace ckpt
