#include "scheduler/cluster_scheduler.h"

#include <algorithm>
#include <cmath>

#include "checkpoint/checkpoint_engine.h"
#include "common/logging.h"
#include "obs/observability.h"
#include "service/service.h"
#include "service/service_manager.h"
#include "storage/bandwidth_domain.h"
#include "trace/workload_stream.h"

namespace ckpt {

namespace {
// Fixed model parameters.
// Pending tasks examined per scheduling pass (the backfill scan bound).
constexpr int kMaxBackfillScan = 64;
// Lazy restore pages this fraction of the image in before the task resumes.
constexpr double kLazyEagerFraction = 0.05;
// Shadow buffering's background mirror streams dirty pages to NVM at this
// rate while the task runs.
constexpr Bandwidth kShadowSyncBw = GBps(2);
// Floor under the Young/Daly period, so cheap increments cannot thrash.
constexpr SimDuration kPeriodicMinInterval = Minutes(2);
// The weight converting a replica's estimated SLO-violation seconds into
// the time units the cost-aware victim order compares against checkpoint
// overhead.
constexpr double kServiceSloWeight = 1.0;
// Interference model's rack layer: cross-rack transfers drain per-rack
// uplink domains.
constexpr int kRackSize = 16;
constexpr Bandwidth kRackUplinkBw = GBps(2.5);
}  // namespace

// --- Runtime state ----------------------------------------------------------

struct ClusterScheduler::RtJob {
  JobSpec spec;
  int tasks_left = 0;
  SimTime finish_time = -1;
  // Streaming submission (SubmitStream): task records are tracked so that
  // when the job finishes its spec storage — the bulk of a run's memory —
  // can be released and the records' spec pointers nulled (a later
  // dereference faults loudly instead of reading freed data).
  bool streaming = false;
  std::vector<RtTask*> rt_tasks;
  // Index into the ServiceManager when this job is a service fleet entry
  // (SubmitServices); -1 for batch jobs.
  int service_idx = -1;
};

struct ClusterScheduler::RtTask {
  const TaskSpec* spec = nullptr;
  RtJob* job = nullptr;
  // For an in-flight victim dump, the pending task it makes room for.
  RtTask* beneficiary = nullptr;

  // The one-byte fields share a word with `attempt`, keeping the record at
  // 144 bytes (see the static_assert in the constructor). A pending task's
  // order key and backoff end live only in its pending_ entry; its submit
  // time is its job's, since every arrival fires at the job's submit_time.
  enum class State : std::uint8_t {
    kPending, kRunning, kDumping, kRestoring, kFinished
  };
  State state = State::kPending;
  bool has_image = false;      // image_node / stored_bytes are meaningful
  bool periodic_dump = false;  // the current kDumping is a Young/Daly dump
  int attempt = 0;  // bumped on every transition; stale events check it

  TaskProgress progress;  // running exactly while kRunning

  NodeId node;  // holder of resources in kRunning/kDumping/kRestoring

  NodeId image_node;
  Bytes stored_bytes = 0;  // on image_node's device (base + layers)

  // In-flight dump bookkeeping so a node failure can unwind the
  // capacity reservation.
  Bytes pending_dump_bytes = 0;
  NodeId pending_dump_node;

  // Service replica identity (-1/-1 for batch tasks): a replica runs until
  // its service's absolute `end` instant instead of accumulating a fixed
  // amount of work, and reports up/down transitions to the ServiceManager.
  int service_idx = -1;
  int replica_idx = -1;

  int dump_failures = 0;     // consecutive; reset on a successful dump
  int restore_failures = 0;  // consecutive; reset on a successful restore
  // Dumps in flight that were initiated to make room for this task; while
  // nonzero the task does not trigger further preemption.
  int releases_in_flight = 0;

  // Interference accounting: when the current kDumping/kRestoring phase
  // froze the cores (actual-duration charging), and the dump scheduler's
  // admission ticket for the dump (-1 when none).
  SimTime frozen_at = -1;
  std::int64_t dump_ticket = -1;
};

// --- Construction -----------------------------------------------------------

ClusterScheduler::ClusterScheduler(Simulator* sim, Cluster* cluster,
                                   SchedulerConfig config)
    : sim_(sim), cluster_(cluster), config_(config), rng_(config.seed) {
  // Task records are most of a large run's memory: new per-task state must
  // fit the record's padding.
  static_assert(sizeof(RtTask) == 144);
  CKPT_CHECK(sim != nullptr);
  CKPT_CHECK(cluster != nullptr);
  CKPT_CHECK_GT(cluster->size(), 0);
  if (config_.interference.enabled) {
    // Fold the interference model into the network (receiver charging +
    // rack uplink domains); the DFS-ingest pool is separate, attached to
    // the node devices below, so device writes and network transfers never
    // double-charge one shared stage.
    config_.network.charge_receiver = true;
    config_.network.rack_size = kRackSize;
    config_.network.rack_uplink_bw = kRackUplinkBw;
  }
  network_ = std::make_unique<NetworkModel>(sim_, config_.network);
  task_arena_ = std::make_unique<SlabArena<RtTask>>();
  running_.resize(static_cast<size_t>(cluster->size()));
  for (auto& bucket : running_) bucket.reserve(8);
  for (Node* node : cluster_->nodes()) {
    network_->AddNode(node->id());
  }
  if (config_.use_feasibility_index) {
    const size_t n = running_.size();
    feas_index_.Reset(n);
    index_leaf_stale_.assign(n, kPlaceStale | kPreemptStale);
    index_place_stale_list_.reserve(n);
    index_preempt_stale_list_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      index_place_stale_list_.push_back(i);
      index_preempt_stale_list_.push_back(i);
    }
  }
  if (!config_.fault.empty()) {
    fault_ = std::make_unique<FaultInjector>(sim_, config_.fault, config_.obs);
    for (Node* node : cluster_->nodes()) {
      node->storage().set_fault_injector(fault_.get(), node->id());
    }
    for (const NodeCrashEvent& crash : config_.fault.node_crashes) {
      InjectNodeFailure(crash.node, crash.at, crash.down_for);
    }
  }
  if (config_.interference.enabled) {
    if (config_.checkpoint_to_dfs && config_.interference.shared_bw > 0) {
      ingest_domain_ = std::make_unique<BandwidthDomain>(
          sim_, "dfs.ingest", config_.interference.shared_bw);
      for (Node* node : cluster_->nodes()) {
        node->storage().set_bandwidth_domain(ingest_domain_.get());
      }
    }
    DumpSchedulerConfig dump_config = config_.dump_scheduler;
    if (dump_config.shared_bw <= 0) {
      dump_config.shared_bw = config_.interference.shared_bw;
    }
    dump_scheduler_ = std::make_unique<DumpScheduler>(sim_, dump_config,
                                                      config_.obs);
  }
  if (config_.obs != nullptr) {
    config_.obs->waste().set_policy(PolicyName(config_.policy));
    SelfProfile& prof = config_.obs->self_profile();
    prof_run_ = prof.slot("scheduler.run");
    prof_pass_ = prof.slot("scheduler.pass");
    prof_preempt_ = prof.slot("scheduler.preempt_scan");
    prof_place_ = prof.slot("scheduler.try_place");
    prof_index_flush_ = prof.slot("scheduler.index_flush");
    prof_waste_charge_ = prof.slot("scheduler.waste_charge");
  }
}

ClusterScheduler::~ClusterScheduler() = default;

void ClusterScheduler::Submit(const Workload& workload) {
  for (const JobSpec& job_spec : workload.jobs) {
    // The feasibility index buckets releasable demand by raw priority;
    // out-of-range specs would index past the aggregate array.
    for (const TaskSpec& spec : job_spec.tasks) {
      CKPT_CHECK(spec.priority >= kMinPriority &&
                 spec.priority <= kMaxPriority)
          << "task " << spec.id.value() << " priority " << spec.priority;
    }
    auto job = std::make_unique<RtJob>();
    job->spec = job_spec;
    job->tasks_left = static_cast<int>(job_spec.tasks.size());
    RtJob* jp = job.get();
    jobs_.push_back(std::move(job));
    sim_->ScheduleAt(jp->spec.submit_time, [this, jp] { OnJobArrival(jp); });
  }
}

void ClusterScheduler::SubmitStream(WorkloadStream* stream) {
  CKPT_CHECK(stream != nullptr);
  CKPT_CHECK(stream_ == nullptr) << "SubmitStream called twice";
  stream_ = stream;
  jobs_.reserve(static_cast<size_t>(stream->TotalJobs()));
  stream_has_next_ = stream_->Next(&stream_next_);
  if (stream_has_next_) {
    sim_->ScheduleAt(stream_next_.submit_time, [this] { OnStreamArrival(); });
  }
}

void ClusterScheduler::OnStreamArrival() {
  CKPT_CHECK(stream_has_next_);
  auto job = std::make_unique<RtJob>();
  job->spec = std::move(stream_next_);
  job->streaming = true;
  for (const TaskSpec& spec : job->spec.tasks) {
    CKPT_CHECK(spec.priority >= kMinPriority && spec.priority <= kMaxPriority)
        << "task " << spec.id.value() << " priority " << spec.priority;
  }
  job->tasks_left = static_cast<int>(job->spec.tasks.size());
  RtJob* jp = job.get();
  jobs_.push_back(std::move(job));
  // Pull the successor before dispatching this arrival: the stream's sorted
  // contract puts it at >= now, so lookahead 1 suffices.
  stream_has_next_ = stream_->Next(&stream_next_);
  if (stream_has_next_) {
    CKPT_CHECK_GE(stream_next_.submit_time, sim_->Now());
    sim_->ScheduleAt(stream_next_.submit_time, [this] { OnStreamArrival(); });
  }
  OnJobArrival(jp);
}

void ClusterScheduler::SubmitServices(const std::vector<ServiceSpec>& services) {
  CKPT_CHECK(services_ == nullptr) << "SubmitServices called twice";
  CKPT_CHECK(!services.empty());
  services_ = std::make_unique<ServiceManager>(services);
  for (int s = 0; s < static_cast<int>(services.size()); ++s) {
    const ServiceSpec& spec = services[static_cast<size_t>(s)];
    CKPT_CHECK(spec.priority >= kMinPriority && spec.priority <= kMaxPriority)
        << "service " << spec.id << " priority " << spec.priority;
    CKPT_CHECK_GT(spec.end, spec.start);
    CKPT_CHECK_GT(spec.replicas, 0);
    auto job = std::make_unique<RtJob>();
    job->spec.id = JobId(spec.id);
    job->spec.submit_time = spec.start;
    job->spec.priority = spec.priority;
    job->service_idx = s;
    job->spec.tasks.reserve(static_cast<size_t>(spec.replicas));
    for (int r = 0; r < spec.replicas; ++r) {
      TaskSpec task;
      // Replica task ids are derived from the service id; SubmitServices
      // callers keep service ids disjoint from batch job ids, so the *1000
      // stride keeps replica ids disjoint from batch task ids too.
      task.id = TaskId(spec.id * 1000 + r);
      task.job = job->spec.id;
      // The nominal duration equals the full residency span; the actual
      // completion is scheduled against the service's absolute end instant,
      // so preempted replicas do not serve extra time to "catch up".
      task.duration = spec.end - spec.start;
      task.demand = spec.demand;
      task.priority = spec.priority;
      task.latency_class = spec.latency_class;
      task.memory_write_rate = spec.memory_write_rate;
      job->spec.tasks.push_back(task);
    }
    job->tasks_left = spec.replicas;
    RtJob* jp = job.get();
    jobs_.push_back(std::move(job));
    sim_->ScheduleAt(spec.start, [this, jp] { OnJobArrival(jp); });
    // SLO accounting cadence: tick k covers (start+k*tick, start+(k+1)*tick].
    const SimTime first = spec.start + kServiceTick;
    if (first <= spec.end) {
      sim_->ScheduleAt(first, [this, s] { OnServiceTick(s, 0); });
    }
  }
}

bool ClusterScheduler::IsService(const RtTask* task) const {
  return task->service_idx >= 0;
}

void ClusterScheduler::ServiceReplicaUp(const RtTask* task, bool cold) {
  if (task->service_idx < 0) return;
  services_->ReplicaUp(task->service_idx, task->replica_idx, sim_->Now(),
                       cold);
}

void ClusterScheduler::ServiceReplicaDown(const RtTask* task) {
  if (task->service_idx < 0) return;
  services_->ReplicaDown(task->service_idx, task->replica_idx);
}

void ClusterScheduler::OnServiceTick(int service_idx,
                                     std::int64_t tick_index) {
  const ServiceSpec& spec = services_->spec(service_idx);
  const ServiceManager::TickSample sample =
      services_->Tick(service_idx, tick_index, sim_->Now());
  result_.slo_violation_seconds += sample.violation_s;
  result_.slo_violation_preempt_seconds += sample.preempt_s;
  result_.slo_violation_organic_seconds += sample.organic_s;
  if (config_.obs != nullptr) {
    if (sample.violation_s > 0) {
      config_.obs->waste().Add(WasteCause::kSloViolation, sample.violation_s,
                               spec.id, -1);
    }
    if (service_p99_hist_.size() <= static_cast<size_t>(service_idx)) {
      service_p99_hist_.resize(static_cast<size_t>(service_idx) + 1, nullptr);
    }
    Histogram*& hist = service_p99_hist_[static_cast<size_t>(service_idx)];
    if (hist == nullptr) {
      hist = config_.obs->metrics().GetHistogram("service.p99_ms",
                                                 {{"service", spec.name}});
    }
    hist->Observe(ToSeconds(sample.q.p99) * 1e3);
  }
  const SimTime next = spec.start + (tick_index + 2) * kServiceTick;
  if (next <= spec.end) {
    sim_->ScheduleAt(next, [this, service_idx, tick_index] {
      OnServiceTick(service_idx, tick_index + 1);
    });
  }
}

ServicePreemptCost ClusterScheduler::ServiceVictimCost(
    const RtTask* victim) const {
  ServicePreemptCost cost;
  if (services_ == nullptr || victim->service_idx < 0) return cost;
  const int s = victim->service_idx;
  const ServiceSpec& spec = services_->spec(s);
  const SimTime now = sim_->Now();
  // Checkpoint: the replica is frozen for the dump (and pays the restore
  // read-back later), then resumes warm.
  cost.ckpt_overhead = VictimCheckpointOverhead(victim);
  cost.ckpt_violation_s =
      services_->MarginalViolationSeconds(s, now, cost.ckpt_overhead, 1.0);
  // Kill: the replica is gone until rescheduled (at least the resubmit
  // backoff; a floor keeps the trade nonzero when backoff is off), then
  // serves the warmup span at reduced capacity.
  const SimDuration down =
      std::max<SimDuration>(config_.resubmit_delay, Seconds(5));
  cost.kill_violation_s =
      services_->MarginalViolationSeconds(s, now, down, 1.0) +
      services_->MarginalViolationSeconds(s, now, spec.warmup,
                                          1.0 - spec.warmup_factor);
  return cost;
}

SimDuration ClusterScheduler::VictimSloPenalty(const RtTask* victim) const {
  if (services_ == nullptr || victim->service_idx < 0) return 0;
  const ServicePreemptCost cost = ServiceVictimCost(victim);
  // The sort sees the damage of the *cheaper* disposition — that is what
  // the per-victim decision will pick.
  const double cheaper =
      std::min(cost.kill_violation_s,
               cost.ckpt_violation_s + ToSeconds(cost.ckpt_overhead));
  return Seconds(kServiceSloWeight * cheaper);
}

SimulationResult ClusterScheduler::Run() {
  {
    ScopedWallTimer run_timer(prof_run_);
    sim_->Run();
  }
  result_.total_busy_core_hours = ToHours(cluster_->TotalBusyCoreTime());
  result_.energy_kwh = cluster_->TotalEnergyKwh();
  SimDuration device_busy = 0;
  for (Node* node : cluster_->nodes()) {
    device_busy += node->storage().total_busy_time();
  }
  if (result_.makespan > 0 && cluster_->size() > 0) {
    result_.io_overhead_fraction =
        static_cast<double>(device_busy) /
        (static_cast<double>(result_.makespan) * cluster_->size());
  }
  if (fault_ != nullptr) {
    result_.faults_injected = fault_->faults_injected();
  }
  if (dump_scheduler_ != nullptr) {
    result_.dumps_deferred = dump_scheduler_->deferred();
    result_.dump_defer_time = dump_scheduler_->total_defer_time();
  }
  if (services_ != nullptr) {
    for (int s = 0; s < services_->count(); ++s) {
      result_.service_cold_starts += services_->totals(s).cold_starts;
    }
  }
  if (config_.obs != nullptr) {
    MetricsRegistry& m = config_.obs->metrics();
    m.GetGauge("sim.events_processed")
        ->Set(static_cast<double>(sim_->EventsProcessed()));
    m.GetGauge("sched.busy_core_hours")->Set(result_.total_busy_core_hours);
    m.GetGauge("sched.wasted_core_hours")->Set(result_.wasted_core_hours);
    m.GetGauge("sched.lost_work_core_hours")
        ->Set(result_.lost_work_core_hours);
    m.GetGauge("sched.overhead_core_hours")->Set(result_.overhead_core_hours);
    m.GetGauge("sched.goodput_core_hours")
        ->Set(result_.total_busy_core_hours - result_.wasted_core_hours);
    m.GetGauge("sched.decisions")
        ->Set(static_cast<double>(result_.sched_decisions));
    m.GetGauge("index.leaves_recomputed")
        ->Set(static_cast<double>(index_leaves_recomputed_));
    if (services_ != nullptr) {
      for (int s = 0; s < services_->count(); ++s) {
        const ServiceSpec& spec = services_->spec(s);
        const ServiceManager::Totals& t = services_->totals(s);
        const MetricLabels labels = {{"service", spec.name}};
        m.GetGauge("service.p50_ms", labels)->Set(t.P50MsMean());
        m.GetGauge("service.p95_ms", labels)->Set(t.P95MsMean());
        m.GetGauge("service.p99_ms_mean", labels)->Set(t.P99MsMean());
        m.GetGauge("service.peak_p99_ms", labels)->Set(t.peak_p99_ms);
        m.GetGauge("service.slo_violation_seconds",
                   {{"service", spec.name}, {"cause", "total"}})
            ->Set(t.violation_s);
        m.GetGauge("service.slo_violation_seconds",
                   {{"service", spec.name}, {"cause", "preempt"}})
            ->Set(t.preempt_s);
        m.GetGauge("service.slo_violation_seconds",
                   {{"service", spec.name}, {"cause", "organic"}})
            ->Set(t.organic_s);
        m.GetGauge("service.ticks", labels)
            ->Set(static_cast<double>(t.ticks));
        m.GetGauge("service.violated_ticks", labels)
            ->Set(static_cast<double>(t.violated_ticks));
        m.GetGauge("service.cold_starts", labels)
            ->Set(static_cast<double>(t.cold_starts));
      }
    }
    if (dump_scheduler_ != nullptr) {
      const char* policy = DumpPolicyName(config_.dump_scheduler.policy);
      m.GetGauge("dump_sched.admitted", {{"policy", policy}})
          ->Set(static_cast<double>(dump_scheduler_->admitted()));
      m.GetGauge("dump_sched.deferred", {{"policy", policy}})
          ->Set(static_cast<double>(dump_scheduler_->deferred()));
      m.GetGauge("dump_sched.forced", {{"policy", policy}})
          ->Set(static_cast<double>(dump_scheduler_->forced()));
      m.GetGauge("dump_sched.bypassed", {{"policy", policy}})
          ->Set(static_cast<double>(dump_scheduler_->bypassed()));
      m.GetGauge("dump_sched.defer_seconds", {{"policy", policy}})
          ->Set(ToSeconds(dump_scheduler_->total_defer_time()));
      m.GetGauge("dump_sched.peak_active", {{"policy", policy}})
          ->Set(static_cast<double>(dump_scheduler_->peak_active()));
    }
    auto export_domain = [&m](const BandwidthDomain& d) {
      m.GetGauge("bw_domain.bytes", {{"domain", d.name()}})
          ->Set(static_cast<double>(d.total_bytes()));
      m.GetGauge("bw_domain.busy_seconds", {{"domain", d.name()}})
          ->Set(ToSeconds(d.busy_time()));
      m.GetGauge("bw_domain.peak_flows", {{"domain", d.name()}})
          ->Set(static_cast<double>(d.peak_flows()));
      m.GetGauge("bw_domain.flows", {{"domain", d.name()}})
          ->Set(static_cast<double>(d.flows_completed()));
    };
    if (ingest_domain_ != nullptr) export_domain(*ingest_domain_);
    if (network_ != nullptr) network_->ForEachDomain(export_domain);
    config_.obs->FinalizeRun();
  }
  return result_;
}

// --- Arrival & scheduling ---------------------------------------------------

void ClusterScheduler::OnJobArrival(RtJob* job) {
  if (job->streaming) job->rt_tasks.reserve(job->spec.tasks.size());
  int replica = 0;
  for (const TaskSpec& spec : job->spec.tasks) {
    RtTask* task = task_arena_->New();
    task->spec = &spec;
    task->job = job;
    if (job->service_idx >= 0) {
      task->service_idx = job->service_idx;
      task->replica_idx = replica;
    }
    ++replica;
    AddPending(task);
    tasks_.push_back(task);
    if (job->streaming) job->rt_tasks.push_back(task);
  }
  FinishJobIfDone(job);  // degenerate zero-task jobs complete immediately
  TrySchedule();
}

namespace {
PendingKey PendingKeyOf(const TaskSpec& spec, const JobSpec& job) {
  return PendingKey{spec.priority, job.submit_time, spec.id.value()};
}
}  // namespace

void ClusterScheduler::AddPending(RtTask* task, SimTime eligible_at) {
  task->state = RtTask::State::kPending;
  CKPT_CHECK(pending_.Insert(
      {PendingKeyOf(*task->spec, task->job->spec), eligible_at,
       task->spec->demand, task}));
}

void ClusterScheduler::RemovePending(RtTask* task) {
  CKPT_CHECK(pending_.Erase(PendingKeyOf(*task->spec, task->job->spec)));
}

void ClusterScheduler::TrySchedule() {
  if (schedule_scheduled_) return;
  schedule_scheduled_ = true;
  // Coalesce: many completions can land at one instant; schedule once.
  sim_->ScheduleAfter(0, [this] { RunSchedulePass(); });
}

void ClusterScheduler::RunSchedulePass() {
  ScopedWallTimer pass_timer(prof_pass_);
  schedule_scheduled_ = false;
  // The preemption failure cache is scoped to one pass: between passes,
  // completions and dump finishes can grow some node's releasable set.
  preempt_fail_valid_ = false;
  const SimTime now = sim_->Now();
  const bool may_preempt = config_.policy != PreemptionPolicy::kWait;
  int scanned = 0;
  PendingQueue<RtTask>::Pos pos;
  // Only a placement changes the head (a preemption re-queues victims
  // below the head's class), and every placement restarts the scan.
  int head_priority = 0;
  auto restart = [&] {
    pos = pending_.Begin();
    if (const auto* head = pending_.At(pos)) head_priority = head->key.priority;
  };
  restart();
  // Each visit first reads only the entry: most tasks are rejected there,
  // their records untouched.
  while (scanned < kMaxBackfillScan) {
    const auto* entry = pending_.At(pos);
    if (entry == nullptr) break;
    ++scanned;
    // In resubmit backoff: may neither place nor preempt.
    if (entry->eligible_at > now) {
      pending_.Advance(pos);
      continue;
    }
    RtTask* task = entry->task;
    if (PlacementMayFit(entry->demand) && TryPlace(task)) {
      // Placement erased `task` from pending_; restart the scan (the new
      // head may now fit or be entitled to preempt).
      restart();
      continue;
    }
    // The whole top-priority class may trigger preemption (the RM asks
    // victims to vacate for every unsatisfied top-priority container, not
    // just one); lower classes only backfill.
    if (entry->key.priority == head_priority && may_preempt &&
        !PreemptFailureCovers(entry->key.priority, entry->demand) &&
        task->releases_in_flight == 0) {
      // Killed victims are queued while the search runs, which moves
      // entries: keep what the rest of this visit reads.
      const PendingKey key = entry->key;
      const Resources demand = entry->demand;
      if (TryPreemptFor(task)) {
        // Kill-released resources are free already.
        if (PlacementMayFit(demand) && TryPlace(task)) {
          restart();
          continue;
        }
        // Continue after `task`, visiting any victim queued behind it.
        pos = pending_.UpperBound(key);
        continue;
      }
    }
    pending_.Advance(pos);
  }
}

namespace {
// First-fit probe over all nodes, scanning round-robin from `cursor` so
// placements spread and the common case exits early.
Node* ProbeFit(Cluster& cluster, const Resources& demand, size_t& cursor) {
  const size_t n = static_cast<size_t>(cluster.size());
  for (size_t i = 0; i < n; ++i) {
    Node& node = cluster.node(NodeId(static_cast<std::int64_t>((cursor + i) % n)));
    if (demand.FitsIn(node.Available())) {
      cursor = (cursor + i + 1) % n;
      return &node;
    }
  }
  return nullptr;
}
}  // namespace

void ClusterScheduler::TouchNode(NodeId node) {
  InvalidateAvailSummary();
  if (!config_.use_feasibility_index) return;
  const size_t i = static_cast<size_t>(node.value());
  std::uint8_t& stale = index_leaf_stale_[i];
  if (!(stale & kPlaceStale)) index_place_stale_list_.push_back(i);
  if (!(stale & kPreemptStale)) index_preempt_stale_list_.push_back(i);
  stale = kPlaceStale | kPreemptStale;
}

void ClusterScheduler::FlushPlaceIndex() {
  for (const size_t i : index_place_stale_list_) {
    index_leaf_stale_[i] &= ~kPlaceStale;
    feas_index_.UpdatePlace(
        i, cluster_->node(NodeId(static_cast<std::int64_t>(i))).Available());
  }
  index_place_stale_list_.clear();
}

void ClusterScheduler::FlushFeasibilityIndex() {
  ScopedWallTimer timer(prof_index_flush_);
  index_leaves_recomputed_ +=
      static_cast<std::int64_t>(index_preempt_stale_list_.size());
  // A leaf's preempt values are its Available() plus its releasable sums,
  // which StartTask, ResumeFrozen and StopRunning keep current; refresh the
  // Available() half, then publish each touched leaf's rise, if any.
  FlushPlaceIndex();
  for (const size_t i : index_preempt_stale_list_) {
    index_leaf_stale_[i] &= ~kPreemptStale;
    feas_index_.RaisePreempt(i);
  }
  index_preempt_stale_list_.clear();
}

void ClusterScheduler::UpdateReleasable(const RtTask* task, bool add) {
  if (!config_.use_feasibility_index ||
      task->spec->latency_class >= config_.protect_latency_class_at_least) {
    return;
  }
  const size_t leaf = static_cast<size_t>(task->node.value());
  const size_t priority = static_cast<size_t>(task->spec->priority);
  if (add) {
    feas_index_.AddReleasable(leaf, priority, task->spec->demand);
  } else {
    feas_index_.RemoveReleasable(leaf, priority, task->spec->demand);
  }
}

bool ClusterScheduler::MightFitAnywhere(const Resources& demand) {
  if (!avail_summary_valid_) {
    Resources summary{};
    for (Node* node : cluster_->nodes()) {
      const Resources avail = node->Available();
      summary.cpus = std::max(summary.cpus, avail.cpus);
      summary.memory = std::max(summary.memory, avail.memory);
    }
    avail_summary_ = summary;
    avail_summary_valid_ = true;
  }
  // Conservative: the summary is a componentwise upper bound on every
  // node's Available(), so a demand that does not fit it fits nowhere.
  return demand.FitsIn(avail_summary_);
}

Node* ClusterScheduler::ProbeFitCached(const Resources& demand) {
  if (config_.use_feasibility_index) {
    FlushPlaceIndex();
    // The root aggregate is the conservative fit summary: reject in O(1).
    if (!demand.FitsIn(feas_index_.Root().place)) return nullptr;
    const size_t hit = feas_index_.FindPlace(
        place_cursor_, demand, [this, &demand](size_t i) {
          return demand.FitsIn(
              cluster_->node(NodeId(static_cast<std::int64_t>(i)))
                  .Available());
        });
    if (hit == FeasibilityIndex::npos) return nullptr;
    place_cursor_ = (hit + 1) % static_cast<size_t>(cluster_->size());
    return &cluster_->node(NodeId(static_cast<std::int64_t>(hit)));
  }
  // A failed ProbeFit leaves the cursor untouched, so skipping the scan
  // outright is behaviorally identical.
  if (!MightFitAnywhere(demand)) return nullptr;
  return ProbeFit(*cluster_, demand, place_cursor_);
}

bool ClusterScheduler::PlacementMayFit(const Resources& demand) {
  if (!config_.use_feasibility_index) return true;
  // The root is the componentwise max of every node's Available(), the
  // image node's included, so every placement TryPlace could make — a
  // fresh start, a local or a remote restore — needs the demand to fit it.
  FlushPlaceIndex();
  return demand.FitsIn(feas_index_.Root().place);
}

bool ClusterScheduler::TryPlace(RtTask* task) {
  ScopedWallTimer timer(prof_place_);
  const Resources& demand = task->spec->demand;

  if (!task->has_image) {
    Node* node = ProbeFitCached(demand);
    if (node == nullptr) return false;
    StartTask(task, node);
    return true;
  }

  // Task has a checkpoint: Algorithm 2.
  Node* image_node = &cluster_->node(task->image_node);
  const bool local_fits = demand.FitsIn(image_node->Available());

  if (!config_.checkpoint_to_dfs) {
    // Stock CRIU: the image is only readable where it was dumped.
    if (!local_fits) return false;
    BeginRestore(task, image_node, /*remote=*/false);
    return true;
  }

  const StorageDevice& src = image_node->storage();
  // Restore-cost terms, computed lazily: only the adaptive policy and the
  // audit record consume them, so the fixed policies (and the no-obs fast
  // path) skip the device/network queue probes entirely. The probes are
  // pure reads, so deferring them changes no simulation state.
  RestoreCost cost;
  SimDuration local_overhead = 0;
  SimDuration remote_overhead = 0;
  bool cost_computed = false;
  auto compute_cost = [&] {
    if (cost_computed) return;
    cost_computed = true;
    cost.image_bytes = task->stored_bytes;
    cost.read_bw = src.medium().read_bw;
    cost.net_bw = network_->config().link_bw;
    cost.local_queue_time = src.QueueDelay();
    cost.remote_queue_time =
        cost.local_queue_time + network_->QueueDelay(task->image_node);
    local_overhead = EstimateLocalRestore(cost);
    remote_overhead = EstimateRemoteRestore(cost);
  };

  // Audit Algorithm 2's inputs whenever a restore actually begins; failed
  // placements leave no record (they recur every pass and carry no
  // decision).
  auto audit_restore = [&](const Node* node, bool remote) {
    Observability* obs = config_.obs;
    if (obs == nullptr) return;
    compute_cost();
    const char* policy_name =
        config_.restore_policy == RestorePolicy::kAlwaysLocal
            ? "always_local"
            : config_.restore_policy == RestorePolicy::kAlwaysRemote
                  ? "always_remote"
                  : "adaptive";
    obs->audit().Event(
        "restore_decision", obs->TrackFor(node->id()), sim_->Now(),
        {TraceArg::Num("task", static_cast<double>(task->spec->id.value())),
         TraceArg::Num("job", static_cast<double>(task->job->spec.id.value())),
         TraceArg::Num("image_node",
                       static_cast<double>(task->image_node.value())),
         TraceArg::Num("chosen_node", static_cast<double>(node->id().value())),
         TraceArg::Num("remote", remote ? 1 : 0),
         TraceArg::Num("local_fits", local_fits ? 1 : 0),
         TraceArg::Num("image_bytes", static_cast<double>(task->stored_bytes)),
         TraceArg::Num("local_queue_s", ToSeconds(cost.local_queue_time)),
         TraceArg::Num("remote_queue_s", ToSeconds(cost.remote_queue_time)),
         TraceArg::Num("local_overhead_s", ToSeconds(local_overhead)),
         TraceArg::Num("remote_overhead_s", ToSeconds(remote_overhead)),
         TraceArg::Str("restore_policy", policy_name)});
  };

  switch (config_.restore_policy) {
    case RestorePolicy::kAlwaysLocal:
      if (!local_fits) return false;
      audit_restore(image_node, false);
      BeginRestore(task, image_node, false);
      return true;
    case RestorePolicy::kAlwaysRemote: {
      Node* node = ProbeFitCached(demand);
      if (node == nullptr) return false;
      audit_restore(node, node->id() != task->image_node);
      BeginRestore(task, node, node->id() != task->image_node);
      return true;
    }
    case RestorePolicy::kAdaptive: {
      // Algorithm 2's comparison matters only when the image node has room;
      // otherwise any node with room serves, so skip costing it.
      if (local_fits) {
        compute_cost();
        if (DecideRestore(true, local_overhead, remote_overhead) ==
            RestoreChoice::kLocal) {
          audit_restore(image_node, false);
          BeginRestore(task, image_node, false);
          return true;
        }
      }
      // Local loses (or cannot fit right now): any node with room; if that
      // happens to be the image node the restore is local after all.
      Node* node = ProbeFitCached(demand);
      if (node == nullptr) return false;
      audit_restore(node, node->id() != task->image_node);
      BeginRestore(task, node, node->id() != task->image_node);
      return true;
    }
  }
  return false;
}

void ClusterScheduler::StartTask(RtTask* task, Node* node) {
  CKPT_CHECK(node->Allocate(task->spec->demand));
  TouchNode(node->id());
  result_.sched_decisions++;
  RemovePending(task);
  task->state = RtTask::State::kRunning;
  task->node = node->id();
  UpdateReleasable(task, /*add=*/true);
  task->progress.Start(sim_->Now());
  task->attempt++;
  RunningOn(node->id()).push_back(task);
  // The horizon opens on services already in steady state, so a replica's
  // first start joins warm; any later StartTask means the process state was
  // lost (kill, crash, abandoned image) and the restart is cold.
  ServiceReplicaUp(task, /*cold=*/task->attempt > 1);
  ScheduleRun(task);
}

void ClusterScheduler::BeginRestore(RtTask* task, Node* node, bool remote) {
  CKPT_CHECK(task->has_image);
  CKPT_CHECK(node->Allocate(task->spec->demand));
  TouchNode(node->id());
  result_.sched_decisions++;
  RemovePending(task);
  task->state = RtTask::State::kRestoring;
  task->node = node->id();
  task->attempt++;
  RunningOn(node->id()).push_back(task);
  // The container is held but the process is not yet executing: restore is
  // I/O, so the CPUs stay suspended until it completes.
  node->Suspend(task->spec->demand);
  if (remote) {
    result_.remote_restores++;
  } else {
    result_.local_restores++;
  }

  const int attempt = task->attempt;
  StorageDevice& src = cluster_->node(task->image_node).storage();
  Bytes bytes = task->stored_bytes;
  if (config_.lazy_restore) {
    // Copy-on-touch resumption: reload metadata plus the eagerly-paged
    // fraction; remaining pages fault in from NVRAM while the task runs.
    bytes = kCheckpointMetadataBytes +
            static_cast<Bytes>(kLazyEagerFraction * static_cast<double>(bytes));
  }
  if (InterferenceOn()) {
    // Actual-duration accounting: the restore drains shared domains whose
    // contention is unknowable at submit, so the overhead charge waits for
    // completion (OnRestoreDone/OnRestoreFailed) and covers the real
    // elapsed freeze time.
    task->frozen_at = sim_->Now();
  } else {
    SimDuration service = src.EstimateRead(bytes);
    if (remote) service += network_->EstimateTransfer(bytes);
    ChargeFreeze(task, service);
  }
  auto finish = [this, task, attempt](bool ok) {
    if (task->attempt != attempt ||
        task->state != RtTask::State::kRestoring) {
      return;
    }
    if (!ok) {
      OnRestoreFailed(task);
      return;
    }
    OnRestoreDone(task, attempt);
  };
  if (remote) {
    const NodeId src_node = task->image_node;
    const NodeId dst_node = node->id();
    src.SubmitRead(bytes, [this, src_node, dst_node, bytes,
                           finish = std::move(finish)](bool ok) mutable {
      if (!ok) {
        finish(false);
        return;
      }
      network_->Transfer(src_node, dst_node, bytes,
                         [finish = std::move(finish)] { finish(true); });
    });
  } else {
    src.SubmitRead(bytes, std::move(finish));
  }
}

void ClusterScheduler::OnRestoreFailed(RtTask* task) {
  // The read faulted; the image itself is intact, so release the container
  // and requeue — a later placement retries the restore (fresh I/O, and
  // possibly a healthier path).
  result_.restore_failures++;
  task->restore_failures++;
  task->attempt++;
  EndFreeze(task);  // the failed attempt still froze the container
  DetachFromNode(task);
  if (task->restore_failures >= kMaxCheckpointFailures) {
    // The image keeps failing to load (Algorithm 1's fallback mirror on the
    // restore side): give up on it and restart from scratch, so a permanent
    // read fault cannot livelock the task in a restore-retry loop.
    const SimDuration lost = IsService(task) ? 0 : task->progress.saved_work;
    result_.lost_work_core_hours += ToHours(lost) * task->spec->demand.cpus;
    result_.wasted_core_hours += ToHours(lost) * task->spec->demand.cpus;
    ChargeWaste(WasteCause::kFaultLostWork,
                ToHours(lost) * task->spec->demand.cpus, task);
    ReleaseImage(task);
    result_.restarts_from_scratch++;
    task->progress.RollBack();
    task->restore_failures = 0;
  }
  AddPending(task, ApplyResubmitBackoff());
  TrySchedule();
}

void ClusterScheduler::OnRestoreDone(RtTask* task, int attempt) {
  CKPT_CHECK_EQ(task->attempt, attempt);
  EndFreeze(task);
  task->restore_failures = 0;
  task->progress.work_done = task->progress.saved_work;
  ResumeFrozen(task);
  ScheduleRun(task);
}

void ClusterScheduler::StopRunning(RtTask* task) {
  CKPT_CHECK(task->state == RtTask::State::kRunning);
  UpdateReleasable(task, /*add=*/false);
  task->progress.Stop(sim_->Now());
  // Every exit from kRunning (preempt, dump freeze, crash, retirement)
  // takes the replica's capacity out of the latency model.
  ServiceReplicaDown(task);
}

void ClusterScheduler::DetachFromNode(RtTask* task) {
  Node& node = cluster_->node(task->node);
  if (task->state == RtTask::State::kDumping ||
      task->state == RtTask::State::kRestoring) {
    node.ReleaseSuspended(task->spec->demand);  // its CPUs are frozen
  } else {
    node.Release(task->spec->demand);
  }
  TouchNode(task->node);
  auto& bucket = RunningOn(task->node);
  bucket.erase(std::find(bucket.begin(), bucket.end(), task));
  // An idle node has nothing to release: nonzero sums here mean a task
  // entered or left kRunning without UpdateReleasable.
  if (bucket.empty() && config_.use_feasibility_index) {
    feas_index_.ClearReleasable(static_cast<size_t>(task->node.value()));
  }
}

void ClusterScheduler::OnTaskComplete(RtTask* task, int attempt) {
  if (task->attempt != attempt || task->state != RtTask::State::kRunning) {
    return;  // preempted since this completion was scheduled
  }
  StopRunning(task);
  if (!IsService(task)) {
    CKPT_CHECK_GE(task->progress.work_done, task->spec->duration);
  }
  task->state = RtTask::State::kFinished;
  task->attempt++;

  DetachFromNode(task);
  ReleaseImage(task);

  result_.makespan = std::max(result_.makespan, sim_->Now());
  if (IsService(task)) {
    // Retired at the horizon, not "completed": keep service replicas out
    // of the batch completion counts and response statistics.
    result_.service_replicas_retired++;
  } else {
    result_.tasks_completed++;
    const auto band = static_cast<size_t>(BandOf(task->spec->priority));
    result_.task_response_by_band[band].Add(
        ToSeconds(sim_->Now() - task->job->spec.submit_time));
  }

  task->job->tasks_left--;
  FinishJobIfDone(task->job);
  TrySchedule();
}

void ClusterScheduler::FinishJobIfDone(RtJob* job) {
  if (job->tasks_left > 0 || job->finish_time >= 0) return;
  job->finish_time = sim_->Now();
  if (job->service_idx < 0) {
    result_.jobs_completed++;
    const double response =
        ToSeconds(job->finish_time - job->spec.submit_time);
    const auto band = static_cast<size_t>(BandOf(job->spec.priority));
    result_.job_response_by_band[band].Add(response);
    result_.all_job_responses.Add(response);
  }
  if (job->streaming) {
    // Release the task specs — the bulk of a streaming run's memory. Spec
    // pointers are nulled so a stale access faults instead of reading the
    // freed vector.
    for (RtTask* t : job->rt_tasks) t->spec = nullptr;
    job->rt_tasks.clear();
    job->rt_tasks.shrink_to_fit();
    job->spec.tasks.clear();
    job->spec.tasks.shrink_to_fit();
  }
}

// --- Preemption -------------------------------------------------------------

Bytes ClusterScheduler::DumpBytes(const RtTask* victim,
                                  bool incremental) const {
  const SimTime now = sim_->Now();
  const Bytes memory = victim->spec->demand.memory;
  Bytes payload = memory;
  if (incremental && victim->has_image) {
    payload = static_cast<Bytes>(
        victim->progress.DirtyFraction(now, victim->spec->memory_write_rate) *
        static_cast<double>(memory));
  }
  if (config_.shadow_buffering) {
    // The background mirror has already streamed part of the (dirty) state
    // to NVM; only the unsynced residue must be copied at dump time.
    const Bytes shadowed = static_cast<Bytes>(
        kShadowSyncBw * ToSeconds(victim->progress.Exposure(now)));
    payload = std::max<Bytes>(payload - shadowed, 0);
  }
  return payload + kCheckpointMetadataBytes;
}

bool ClusterScheduler::CanIncrement(const RtTask* victim) const {
  return config_.incremental_checkpoints && victim->has_image &&
         (config_.checkpoint_to_dfs || victim->image_node == victim->node);
}

SimDuration ClusterScheduler::VictimCheckpointOverhead(
    const RtTask* victim) const {
  // Recomputed on every call from constant-time reads (the victim, its
  // node's device backlog, the ingest domain and the dump scheduler), so it
  // always reflects their current state.
  const bool incremental = CanIncrement(victim);
  CheckpointCost cost;
  cost.dump_bytes = DumpBytes(victim, incremental);
  cost.restore_bytes = victim->stored_bytes + cost.dump_bytes;
  cost.write_bw = config_.medium.write_bw;
  cost.read_bw = config_.medium.read_bw;
  // Queue term: the node's device backlog (dumps are submitted at freeze
  // time, so the backlog is the sequential checkpoint queue).
  cost.dump_queue_time = cluster_->node(victim->node).storage().QueueDelay();
  if (InterferenceOn()) {
    // Algorithm 1's dump term stretches by the ingest fair-share factor
    // (one more concurrent writer than currently active), and the dump
    // scheduler's expected admission wait joins the queue term, so the
    // adaptive kill-vs-checkpoint comparison sees contended reality.
    if (ingest_domain_ != nullptr) {
      const double nominal =
          config_.medium.write_bw * ingest_domain_->ContentionFactor();
      cost.write_contention =
          std::max(1.0, nominal / ingest_domain_->capacity());
    }
    if (dump_scheduler_ != nullptr) {
      cost.admit_delay = dump_scheduler_->EstimateAdmitDelay();
    }
  }
  return EstimateCheckpointOverhead(cost);
}

PreemptAction ClusterScheduler::DecideVictimAction(RtTask* victim) const {
  const bool can_increment = CanIncrement(victim);
  return ActionForPolicy(config_.policy, can_increment, [&] {
    // Service replicas have no unsaved batch progress to weigh; their
    // Algorithm 1 branch compares kill's SLO damage (downtime + cold
    // warmup) against the checkpoint's (freeze at current load, plus the
    // frozen-core overhead): troughs kill, peaks checkpoint.
    if (IsService(victim)) {
      return DecideServicePreemption(ServiceVictimCost(victim), can_increment,
                                     config_.adaptive_threshold);
    }
    return DecidePreemption(victim->progress.Unsaved(sim_->Now()),
                            VictimCheckpointOverhead(victim), can_increment,
                            config_.adaptive_threshold);
  });
}

void ClusterScheduler::ChargeWaste(WasteCause cause, double amount,
                                   const RtTask* task) {
  if (config_.obs == nullptr) return;
  ScopedWallTimer timer(prof_waste_charge_);
  config_.obs->waste().Add(cause, amount, task->job->spec.id.value(),
                           task->node.valid() ? task->node.value() : -1);
}

void ClusterScheduler::RecordServicePreempt(
    const RtTask* victim, PreemptAction action,
    const ServicePreemptCost& cost) const {
  Observability* obs = config_.obs;
  if (obs == nullptr) return;
  const int s = victim->service_idx;
  const ServiceSpec& spec = services_->spec(s);
  const SimTime now = sim_->Now();
  obs->audit().Event(
      "service_preempt", obs->TrackFor(victim->node), now,
      {TraceArg::Num("service", static_cast<double>(spec.id)),
       TraceArg::Num("replica", static_cast<double>(victim->replica_idx)),
       TraceArg::Num("rate_rps", DiurnalRate(spec, now)),
       TraceArg::Num("effective_replicas",
                     services_->EffectiveReplicas(s, now)),
       TraceArg::Num("kill_violation_s", cost.kill_violation_s),
       TraceArg::Num("ckpt_violation_s", cost.ckpt_violation_s),
       TraceArg::Num("ckpt_overhead_s", ToSeconds(cost.ckpt_overhead)),
       TraceArg::Str("action", ActionName(action))});
}

bool ClusterScheduler::PreemptFailureCovers(int priority,
                                            const Resources& demand) const {
  // Failure dominance: a failed search has no side effects (the cursor and
  // RNG only move on success), and within one scheduling pass a node's
  // releasable set at a fixed priority never grows (placements allocate; a
  // newly placed lower-priority task adds back at most what it consumed).
  // So once a demand has failed, any demand that dominates it at the same
  // priority must fail too — skip the O(nodes x running) scan.
  return preempt_fail_valid_ && priority == preempt_fail_priority_ &&
         demand.cpus >= preempt_fail_demand_.cpus &&
         demand.memory >= preempt_fail_demand_.memory;
}

bool ClusterScheduler::TryPreemptFor(RtTask* task) {
  ScopedWallTimer timer(prof_preempt_);
  const Resources& demand = task->spec->demand;
  const int priority = task->spec->priority;

  // A task whose image is pinned to one node (local-only store, or the
  // always-local ablation) can only run there; preempting elsewhere would
  // free resources it cannot use.
  const bool image_bound =
      task->has_image && (!config_.checkpoint_to_dfs ||
                          config_.restore_policy == RestorePolicy::kAlwaysLocal);

  // Find a node whose free resources plus lower-priority running work cover
  // the demand. The scan rotates so preemption pressure spreads across the
  // cluster instead of repeatedly recycling the same nodes' fresh tasks.
  // Exact per-node check; fills preempt_local_scratch_ (a member, so the
  // hot path allocates nothing once warm) with the node's eligible victims.
  auto releasable_fits = [this, &demand, priority](Node* node) {
    preempt_local_scratch_.clear();
    Resources releasable = node->Available();
    for (RtTask* running : RunningOn(node->id())) {
      if (running->state == RtTask::State::kRunning &&
          running->spec->priority < priority &&
          running->spec->latency_class <
              config_.protect_latency_class_at_least) {
        releasable += running->spec->demand;
        preempt_local_scratch_.push_back(running);
      }
    }
    return demand.FitsIn(releasable);
  };

  Node* chosen = nullptr;
  victim_candidates_.clear();
  const size_t n = static_cast<size_t>(cluster_->size());
  if (image_bound) {
    // Only the image node can host the task; the rotation scan would skip
    // every other node, so probe it directly. On success the cursor lands
    // one past the image node, exactly where the full scan would leave it.
    Node* node = &cluster_->node(task->image_node);
    if (releasable_fits(node)) {
      chosen = node;
      victim_candidates_.swap(preempt_local_scratch_);
      victim_cursor_ =
          (static_cast<size_t>(task->image_node.value()) + 1) % n;
    }
  } else if (config_.use_feasibility_index) {
    FlushFeasibilityIndex();
    const size_t hit = feas_index_.FindPreempt(
        victim_cursor_, static_cast<size_t>(priority), demand,
        [this, &releasable_fits](size_t i) {
          return releasable_fits(
              &cluster_->node(NodeId(static_cast<std::int64_t>(i))));
        });
    if (hit != FeasibilityIndex::npos) {
      chosen = &cluster_->node(NodeId(static_cast<std::int64_t>(hit)));
      victim_candidates_.swap(preempt_local_scratch_);
      victim_cursor_ = (hit + 1) % n;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      Node* node = &cluster_->node(
          NodeId(static_cast<std::int64_t>((victim_cursor_ + i) % n)));
      if (releasable_fits(node)) {
        chosen = node;
        victim_candidates_.swap(preempt_local_scratch_);
        victim_cursor_ = (victim_cursor_ + i + 1) % n;
        break;
      }
    }
  }
  // Decision-level audit envelope; only filled when obs is attached.
  // Searches the pass skipped by failure dominance leave no record (they
  // repeat a failure already audited this pass); every real scan lands
  // here. The args and
  // candidate lists are member scratch whose capacity is reused from scan
  // to scan; the audit log copies them out.
  Observability* obs = config_.obs;
  TraceArgs& args = preempt_args_;
  size_t cand_used = 0;
  if (obs != nullptr) {
    // Eight scan inputs; the chosen_node/outcome tail is appended per
    // branch below.
    args = {TraceArg::Num("task", static_cast<double>(task->spec->id.value())),
            TraceArg::Num("job",
                          static_cast<double>(task->job->spec.id.value())),
            TraceArg::Num("priority", static_cast<double>(priority)),
            TraceArg::Num("demand_cpus", demand.cpus),
            TraceArg::Num("demand_memory", static_cast<double>(demand.memory)),
            TraceArg::Num("image_bound", image_bound ? 1 : 0),
            TraceArg::Num("index_enabled",
                          config_.use_feasibility_index ? 1 : 0),
            TraceArg::Num("index_leaves_recomputed",
                          static_cast<double>(index_leaves_recomputed_))};
  }

  if (chosen == nullptr) {
    // Record only full-cluster failures: an image-bound task scans one
    // node, so its failure proves nothing about dominating demands.
    if (!image_bound) {
      preempt_fail_valid_ = true;
      preempt_fail_demand_ = demand;
      preempt_fail_priority_ = priority;
    }
    if (obs != nullptr) {
      args.push_back(TraceArg::Num("chosen_node", -1));
      args.push_back(TraceArg::Str("outcome", "no_node"));
      obs->audit().Event("preempt_scan", "scheduler", sim_->Now(), args);
    }
    return false;
  }

  switch (config_.victim_order) {
    case VictimOrder::kCostAware:
      // VictimSloPenalty is exactly 0 for batch tasks (and whenever no
      // services were submitted), so the order is byte-identical to the
      // plain checkpoint-cost sort without services. With services, a
      // replica serving a traffic peak sorts behind idle batch work. Keys
      // are computed once per candidate. std::sort's moves depend only on
      // the comparisons' outcomes, so sorting (key, task) pairs on the key
      // gives the permutation a sort of the tasks on that key gives.
      victim_keys_.clear();
      for (RtTask* victim : victim_candidates_) {
        victim_keys_.emplace_back(
            VictimCheckpointOverhead(victim) + VictimSloPenalty(victim),
            victim);
      }
      std::sort(victim_keys_.begin(), victim_keys_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t i = 0; i < victim_keys_.size(); ++i) {
        victim_candidates_[i] = victim_keys_[i].second;
      }
      break;
    case VictimOrder::kLowestPriority:
      std::sort(victim_candidates_.begin(), victim_candidates_.end(),
                [](RtTask* a, RtTask* b) {
                  if (a->spec->priority != b->spec->priority)
                    return a->spec->priority < b->spec->priority;
                  // Least progress first.
                  return a->progress.run_start > b->progress.run_start;
                });
      break;
    case VictimOrder::kRandom:
      std::shuffle(victim_candidates_.begin(), victim_candidates_.end(),
                   rng_.engine());
      break;
  }

  // Per-candidate audit entry with the cost terms Algorithm 1 weighed;
  // must run before PreemptVictim mutates the victim's progress counters.
  auto audit_candidate = [&](const RtTask* victim, const char* action,
                             const char* reason) {
    if (preempt_candidates_.size() <= cand_used) {
      preempt_candidates_.emplace_back();
    }
    preempt_candidates_[cand_used++] = {
        TraceArg::Num("task", static_cast<double>(victim->spec->id.value())),
        TraceArg::Num("job", static_cast<double>(victim->job->spec.id.value())),
        TraceArg::Num("priority", static_cast<double>(victim->spec->priority)),
        TraceArg::Num("cpus", victim->spec->demand.cpus),
        TraceArg::Num("unsaved_progress_s",
                      ToSeconds(victim->progress.Unsaved(sim_->Now()))),
        TraceArg::Num("overhead_s",
                      ToSeconds(VictimCheckpointOverhead(victim))),
        TraceArg::Num("has_image", victim->has_image ? 1 : 0),
        TraceArg::Str("action", action), TraceArg::Str("reason", reason)};
  };

  Resources freed = chosen->Available();
  bool satisfied = false;
  for (RtTask* victim : victim_candidates_) {
    if (!satisfied && demand.FitsIn(freed)) satisfied = true;
    if (satisfied) {
      // The demand is covered; remaining candidates survive. Only the
      // audit record cares — without obs this is the seed's `break`.
      if (obs == nullptr) break;
      audit_candidate(victim, "none", "not_needed");
      continue;
    }
    freed += victim->spec->demand;
    PreemptAction action = DecideVictimAction(victim);
    bool fallback = false;
    if (action != PreemptAction::kKill &&
        victim->dump_failures >= kMaxCheckpointFailures) {
      // Algorithm 1 falls back to the kill baseline for a victim whose
      // dumps keep failing: the checkpoint cost is paid with nothing saved.
      action = PreemptAction::kKill;
      result_.checkpoint_failure_fallback_kills++;
      fallback = true;
    }
    if (obs != nullptr) {
      audit_candidate(victim, ActionName(action),
                      fallback ? "dump_failures_fallback" : "selected");
      obs->DecisionCounter(PolicyName(config_.policy), ActionName(action))
          ->Inc();
    }
    PreemptVictim(victim, action);
    if (victim->state == RtTask::State::kDumping) {
      // Remember whom this dump is for; until it completes the beneficiary
      // must not trigger further preemption.
      task->releases_in_flight++;
      victim->beneficiary = task;
    }
  }
  if (obs != nullptr) {
    args.push_back(
        TraceArg::Num("chosen_node", static_cast<double>(chosen->id().value())));
    args.push_back(TraceArg::Str("outcome", "preempted"));
    obs->audit().Event("preempt_scan", obs->TrackFor(chosen->id()),
                       sim_->Now(), args,
                       {preempt_candidates_.data(), cand_used});
  }
  // Kills freed resources: earlier failures no longer bound releasable.
  preempt_fail_valid_ = false;
  return true;
}

void ClusterScheduler::KillVictim(RtTask* victim) {
  // A killed service replica's process state is gone; any earlier image is
  // stale, so release it — the next start is cold. Checkpoint preemption
  // keeping its image (and resuming warm) is exactly the benefit the
  // service branch of Algorithm 1 weighs. Released first: the rollback
  // below restarts the replica from the (now zero) saved work.
  if (IsService(victim)) ReleaseImage(victim);
  // Unsaved progress is lost and will be re-executed; the task restarts
  // from its last image if one exists (Algorithm 2), else from scratch.
  ForfeitUnsavedWork(victim, WasteCause::kKillLostWork);
  result_.kills++;
  if (!victim->has_image) result_.restarts_from_scratch++;
  DetachFromNode(victim);
  AddPending(victim, ApplyResubmitBackoff());
}

SimTime ClusterScheduler::ApplyResubmitBackoff() {
  if (config_.resubmit_delay <= 0) return sim_->Now();
  const SimTime eligible_at = sim_->Now() + config_.resubmit_delay;
  // Wake the scheduler when the task becomes eligible; nothing else may be
  // pending at that instant.
  sim_->ScheduleAt(eligible_at, [this] { TrySchedule(); });
  return eligible_at;
}

void ClusterScheduler::PreemptVictim(RtTask* victim, PreemptAction action) {
  CKPT_CHECK(victim->state == RtTask::State::kRunning);
  result_.preemptions++;
  result_.sched_decisions++;
  if (IsService(victim)) {
    result_.service_preemptions++;
    // Audit before StopRunning: the cost probe must see the victim's
    // capacity still counted among the warm replicas.
    RecordServicePreempt(victim, action, ServiceVictimCost(victim));
  }
  StopRunning(victim);
  victim->attempt++;  // invalidate the scheduled completion

  if (action == PreemptAction::kKill) {
    KillVictim(victim);
    return;
  }

  const bool incremental =
      action == PreemptAction::kCheckpointIncremental && CanIncrement(victim);
  const Bytes dump_bytes = DumpBytes(victim, incremental);
  if (!ReserveDump(victim, incremental, dump_bytes)) {
    // No room for the image: fall back to killing the victim.
    result_.capacity_fallback_kills++;
    if (config_.obs != nullptr) {
      config_.obs->audit().Event(
          "capacity_fallback", config_.obs->TrackFor(victim->node),
          sim_->Now(),
          {TraceArg::Num("task",
                         static_cast<double>(victim->spec->id.value())),
           TraceArg::Num("job",
                         static_cast<double>(victim->job->spec.id.value())),
           TraceArg::Num("dump_bytes", static_cast<double>(dump_bytes)),
           TraceArg::Num("image_node",
                         static_cast<double>(incremental
                                                 ? victim->image_node.value()
                                                 : victim->node.value())),
           TraceArg::Str("reason", "image_capacity")});
    }
    KillVictim(victim);
    return;
  }
  FreezeForDump(victim, incremental, dump_bytes);
}

void ClusterScheduler::LaunchDump(RtTask* victim, int attempt,
                                  Bytes dump_bytes,
                                  std::function<void(bool)> finish) {
  // Ticket lives in a shared slot: the value is only known after Request()
  // returns, but the completion wrapper is built first. Completion releases
  // the scheduler slot exactly once (Complete is a no-op on a retired
  // ticket, so a node-failure unwind that already withdrew it is safe).
  auto ticket = std::make_shared<std::int64_t>(-1);
  if (dump_scheduler_ != nullptr) {
    finish = [this, victim, ticket,
              finish = std::move(finish)](bool ok) mutable {
      if (*ticket >= 0) {
        dump_scheduler_->Complete(*ticket);
        if (victim->dump_ticket == *ticket) victim->dump_ticket = -1;
        *ticket = -1;
      }
      finish(ok);
    };
  }

  auto submit = [this, victim, dump_bytes,
                 finish = std::move(finish)]() mutable {
    StorageDevice& device = cluster_->node(victim->node).storage();
    if (config_.checkpoint_to_dfs && cluster_->size() > 1) {
      // Local write, then pipeline the second replica to a random peer (the
      // DFS overhead visible in Fig. 2b).
      NodeId peer;
      do {
        peer = NodeId(rng_.UniformInt(0, cluster_->size() - 1));
      } while (peer == victim->node);
      const NodeId src = victim->node;
      device.SubmitWrite(dump_bytes,
                         [this, src, peer, dump_bytes,
                          finish = std::move(finish)](bool ok) mutable {
                           if (!ok) {
                             finish(false);
                             return;
                           }
                           network_->Transfer(
                               src, peer, dump_bytes,
                               [finish = std::move(finish)] { finish(true); });
                         });
    } else {
      device.SubmitWrite(dump_bytes, std::move(finish));
    }
  };

  if (dump_scheduler_ == nullptr) {
    submit();
    return;
  }
  *ticket = dump_scheduler_->Request(
      victim->node.value(), victim->spec->id.value(), dump_bytes,
      [this, victim, attempt, ticket, submit = std::move(submit)]() mutable {
        if (victim->attempt != attempt ||
            victim->state != RtTask::State::kDumping) {
          // Unwound while waiting for admission: release the slot instead
          // of submitting I/O for a dead dump (no-op if the unwind already
          // withdrew the ticket).
          if (*ticket >= 0) {
            dump_scheduler_->Complete(*ticket);
            if (victim->dump_ticket == *ticket) victim->dump_ticket = -1;
            *ticket = -1;
          }
          return;
        }
        if (config_.obs != nullptr) {
          // Queue wait at admission time: separately attributed, as in the
          // non-interference path (the reconciling freeze charge lands at
          // completion).
          ChargeWaste(WasteCause::kQueueing,
                      ToHours(cluster_->node(victim->node)
                                  .storage()
                                  .QueueDelay()) *
                          victim->spec->demand.cpus,
                      victim);
        }
        submit();
      });
  victim->dump_ticket = *ticket;
}

void ClusterScheduler::OnDumpComplete(RtTask* task, int attempt,
                                      bool incremental, Bytes dump_bytes) {
  if (task->attempt != attempt || task->state != RtTask::State::kDumping) {
    return;  // a node failure already unwound this dump
  }
  EndFreeze(task);
  // The reservation becomes the image.
  task->progress.Commit();
  task->has_image = true;
  task->dump_failures = 0;
  task->pending_dump_bytes = 0;
  if (!incremental) task->image_node = task->node;
  task->stored_bytes += dump_bytes;
  current_checkpoint_bytes_ += dump_bytes;
  result_.peak_checkpoint_bytes =
      std::max(result_.peak_checkpoint_bytes, current_checkpoint_bytes_);
  EndDump(task);
}

void ClusterScheduler::OnDumpFailed(RtTask* task, int attempt) {
  if (task->attempt != attempt || task->state != RtTask::State::kDumping) {
    return;  // a node failure already unwound this dump
  }
  // The write faulted. A failed incremental dump keeps the base image (and
  // its saved_work); a failed full dump had already retired the old image
  // at freeze time, so a victim restarts from scratch and a periodic
  // dumper's crash-restart exposure grows until its next successful dump.
  result_.dump_failures++;
  if (task->periodic_dump) result_.periodic_checkpoint_failures++;
  task->dump_failures++;
  EndFreeze(task);  // the failed attempt still froze the task
  ReleaseDumpReservation(task);
  // A victim falls back to kill semantics; a periodic dumper loses no live
  // work, it resumes in place from its running state.
  if (!task->periodic_dump) {
    ForfeitUnsavedWork(task, WasteCause::kFaultLostWork);
  }
  EndDump(task);
}

// --- Periodic Young/Daly checkpointing ---------------------------------------

void ClusterScheduler::MaybeSchedulePeriodicDump(RtTask* task) {
  if (config_.periodic_ckpt_mtbf <= 0) return;
  // Young/Daly period sqrt(2 * C * MTBF), C the current estimated dump
  // service time; floored so cheap incremental dumps cannot thrash.
  const Bytes bytes = DumpBytes(task, CanIncrement(task));
  const SimDuration interval = YoungDalyInterval(
      cluster_->node(task->node).storage().EstimateWrite(bytes),
      config_.periodic_ckpt_mtbf, kPeriodicMinInterval);
  if (RemainingRun(task) <= interval) return;  // completion beats the dump
  const int attempt = task->attempt;
  sim_->ScheduleAfter(interval, [this, task, attempt] {
    if (task->attempt != attempt || task->state != RtTask::State::kRunning) {
      return;  // preempted / finished / crashed since the timer was armed
    }
    StartPeriodicDump(task);
  });
}

void ClusterScheduler::StartPeriodicDump(RtTask* task) {
  const bool incremental = CanIncrement(task);
  const Bytes dump_bytes = DumpBytes(task, incremental);
  if (!ReserveDump(task, incremental, dump_bytes)) {
    // No room for the image: skip this cycle, try again one period later.
    MaybeSchedulePeriodicDump(task);
    return;
  }
  StopRunning(task);
  task->attempt++;  // invalidate the scheduled completion
  task->periodic_dump = true;
  FreezeForDump(task, incremental, dump_bytes);
}

// --- Failure injection --------------------------------------------------------

void ClusterScheduler::InjectNodeFailure(NodeId node, SimTime at,
                                         SimDuration down_for) {
  CKPT_CHECK(node.valid());
  CKPT_CHECK_LT(node.value(), cluster_->size());
  sim_->ScheduleAt(at,
                   [this, node, down_for] { OnNodeFailure(node, down_for); });
}

void ClusterScheduler::OnNodeFailure(NodeId node_id, SimDuration down_for) {
  Node& node = cluster_->node(node_id);
  if (!node.online()) return;
  result_.node_failures++;
  node.SetOnline(false);
  TouchNode(node_id);

  // Interrupt every task holding resources on the node. Copy the bucket:
  // the handlers below mutate it.
  const std::vector<RtTask*> victims = RunningOn(node_id);
  for (RtTask* task : victims) {
    result_.tasks_interrupted_by_failure++;
    switch (task->state) {
      case RtTask::State::kRunning:
        StopRunning(task);
        task->attempt++;
        ForfeitUnsavedWork(task, WasteCause::kFaultLostWork);
        DetachFromNode(task);
        AddPending(task);
        break;
      case RtTask::State::kRestoring:
        // Abort the restore; the image is untouched. The node's cores died
        // with it, so the interference freeze span is not charged as
        // overhead.
        task->attempt++;
        task->frozen_at = -1;
        DetachFromNode(task);
        AddPending(task);
        break;
      case RtTask::State::kDumping:
        AbandonDump(task);
        break;
      default:
        break;
    }
  }

  // The first loop unwound the dumps running *on* the failed node. Still
  // doomed: incremental dumps from other nodes *to* it, whose reservation
  // and target are gone, and the images whose accounting device was on it.
  // Unwinding those dumps moves no image, so one scan of tasks_ collects
  // both lists, in creation order.
  std::vector<RtTask*> doomed_dumps;
  std::vector<RtTask*> doomed_images;
  for (RtTask* task : tasks_) {
    if (task->state == RtTask::State::kDumping &&
        task->pending_dump_node == node_id) {
      doomed_dumps.push_back(task);
    }
    if (task->has_image && task->image_node == node_id) {
      doomed_images.push_back(task);
    }
  }
  for (RtTask* task : doomed_dumps) AbandonDump(task);
  for (RtTask* task : doomed_images) EvacuateImage(task, node_id);

  if (down_for >= 0) {
    sim_->ScheduleAfter(down_for, [this, node_id] {
      cluster_->node(node_id).SetOnline(true);
      TouchNode(node_id);
      TrySchedule();
    });
  }
  TrySchedule();
}

void ClusterScheduler::EvacuateImage(RtTask* task, NodeId failed) {
  if (config_.checkpoint_to_dfs && cluster_->size() > 1) {
    // A DFS replica survives on another node: rebind the image's
    // accounting to an online host.
    for (Node* candidate : cluster_->nodes()) {
      if (!candidate->online() || candidate->id() == failed) continue;
      if (candidate->storage().Reserve(task->stored_bytes)) {
        cluster_->node(failed).storage().Release(task->stored_bytes);
        task->image_node = candidate->id();
        result_.images_survived_failure++;
        return;
      }
    }
  }
  // Local-only image (or nowhere to evacuate): the checkpoint is gone and
  // the task restarts from scratch.
  ReleaseImage(task);
  if (task->state == RtTask::State::kPending) {
    task->progress.work_done = 0;
  }
  result_.images_lost_to_failure++;
}

void ClusterScheduler::ReleaseImage(RtTask* task) {
  if (!task->has_image) return;
  cluster_->node(task->image_node).storage().Release(task->stored_bytes);
  current_checkpoint_bytes_ -= task->stored_bytes;
  task->has_image = false;
  task->stored_bytes = 0;
  task->progress.saved_work = 0;
}

// --- Checkpoint lifecycle steps ----------------------------------------------

SimDuration ClusterScheduler::RemainingRun(const RtTask* task) const {
  // A service replica completes at its absolute retirement instant; a batch
  // task after its remaining work.
  return IsService(task) ? services_->spec(task->service_idx).end - sim_->Now()
                         : task->spec->duration - task->progress.work_done;
}

void ClusterScheduler::ScheduleRun(RtTask* task) {
  const int attempt = task->attempt;
  sim_->ScheduleAfter(std::max<SimDuration>(RemainingRun(task), 1),
                      [this, task, attempt] { OnTaskComplete(task, attempt); });
  MaybeSchedulePeriodicDump(task);
}

bool ClusterScheduler::ReserveDump(RtTask* task, bool incremental,
                                   Bytes dump_bytes) {
  // Capacity is accounted on the node that serves later restores: the base
  // image's node for increments, the dumping node for full images.
  const NodeId target = incremental ? task->image_node : task->node;
  if (!cluster_->node(target).storage().Reserve(dump_bytes)) return false;
  task->pending_dump_bytes = dump_bytes;
  task->pending_dump_node = target;
  return true;
}

void ClusterScheduler::FreezeForDump(RtTask* task, bool incremental,
                                     Bytes dump_bytes) {
  // A full dump replaces (and releases) any previous image; until the new
  // one commits, a crash restarts the task from scratch.
  if (!incremental && task->has_image) ReleaseImage(task);

  // Freeze: the process tree stops here and the dump enters the node's
  // sequential checkpoint queue. While frozen the container keeps its
  // allocation but burns no CPU, so only the dump's *service* time (actual
  // I/O work) counts as overhead; queue wait shows up purely in response
  // times.
  task->state = RtTask::State::kDumping;
  Node& node = cluster_->node(task->node);
  node.Suspend(task->spec->demand);
  // Available() is unchanged, and StopRunning already lowered the leaf's
  // releasable sums; the touch queues the leaf for the next
  // preemption-side flush, as every change to a node's task set does.
  TouchNode(task->node);
  if (task->periodic_dump) {
    result_.periodic_checkpoints++;
  } else {
    result_.checkpoints++;
    if (incremental) result_.incremental_checkpoints++;
  }
  result_.total_checkpoint_bytes_written += dump_bytes;

  if (InterferenceOn()) {
    // Actual-duration accounting: the dump's real cost (queue wait + device
    // service + shared-domain drain + any admission deferral) is charged
    // once at completion from this freeze timestamp.
    task->frozen_at = sim_->Now();
  } else {
    const StorageDevice& device = node.storage();
    ChargeFreeze(task, device.EstimateWrite(dump_bytes));
    // Queue wait freezes the task's cores without counting as overhead in
    // the paper's accounting; attribute it separately.
    ChargeWaste(WasteCause::kQueueing,
                ToHours(device.QueueDelay()) * task->spec->demand.cpus, task);
  }

  const int attempt = task->attempt;
  LaunchDump(task, attempt, dump_bytes,
             [this, task, attempt, incremental, dump_bytes](bool ok) {
               if (ok) {
                 OnDumpComplete(task, attempt, incremental, dump_bytes);
               } else {
                 OnDumpFailed(task, attempt);
               }
             });
}

void ClusterScheduler::EndDump(RtTask* task) {
  if (task->periodic_dump) {
    task->periodic_dump = false;
    ResumeFrozen(task);
    ScheduleRun(task);
    return;
  }
  task->attempt++;
  DetachFromNode(task);
  AddPending(task, ApplyResubmitBackoff());
  ReleaseBeneficiary(task);
  TrySchedule();
}

void ClusterScheduler::AbandonDump(RtTask* task) {
  // The dump dies unfinished: withdraw its admission ticket, and fall back
  // to kill semantics (progress since the last image dies). An abandoned
  // freeze is not charged as overhead.
  task->attempt++;
  if (task->dump_ticket >= 0 && dump_scheduler_ != nullptr) {
    dump_scheduler_->Complete(task->dump_ticket);
  }
  task->dump_ticket = -1;
  task->periodic_dump = false;
  task->frozen_at = -1;
  ReleaseDumpReservation(task);
  ForfeitUnsavedWork(task, WasteCause::kFaultLostWork);
  DetachFromNode(task);
  AddPending(task);
  ReleaseBeneficiary(task);
}

void ClusterScheduler::ReleaseDumpReservation(RtTask* task) {
  cluster_->node(task->pending_dump_node)
      .storage()
      .Release(task->pending_dump_bytes);
  task->pending_dump_bytes = 0;
}

void ClusterScheduler::ChargeFreeze(RtTask* task, SimDuration span) {
  const bool restore = task->state == RtTask::State::kRestoring;
  (restore ? result_.total_restore_time : result_.total_dump_time) += span;
  const double core_hours = ToHours(span) * task->spec->demand.cpus;
  result_.overhead_core_hours += core_hours;
  result_.wasted_core_hours += core_hours;
  ChargeWaste(restore               ? WasteCause::kRestoreTransfer
              : task->periodic_dump ? WasteCause::kPeriodicDumpOverhead
                                    : WasteCause::kDumpOverhead,
              core_hours, task);
}

void ClusterScheduler::EndFreeze(RtTask* task) {
  if (!InterferenceOn() || task->frozen_at < 0) return;
  // One reconciling charge for everything the freeze actually cost:
  // admission deferral, device queue + service, and the shared ingest and
  // network drain under contention.
  ChargeFreeze(task, sim_->Now() - task->frozen_at);
  task->frozen_at = -1;
}

void ClusterScheduler::ResumeFrozen(RtTask* task) {
  cluster_->node(task->node).Resume(task->spec->demand);
  // Available() is unchanged, but the task re-enters kRunning and so grows
  // the node's releasable set: the leaf's rise must reach the index.
  TouchNode(task->node);
  task->state = RtTask::State::kRunning;
  UpdateReleasable(task, /*add=*/true);
  task->progress.Start(sim_->Now());
  task->attempt++;
  // Checkpoint-resumed service replicas come back warm — the asymmetry the
  // SLO-aware kill-vs-checkpoint decision trades on.
  ServiceReplicaUp(task, /*cold=*/false);
}

void ClusterScheduler::ForfeitUnsavedWork(RtTask* task, WasteCause cause) {
  // A service replica loses no batch work — its cost is SLO-violation
  // seconds plus the cold restart, accounted by the ServiceManager — so
  // charging zero keeps the ledger's reconciliation invariant intact.
  const SimDuration lost =
      IsService(task) ? 0 : task->progress.Unsaved(sim_->Now());
  const double core_hours = ToHours(lost) * task->spec->demand.cpus;
  result_.lost_work_core_hours += core_hours;
  result_.wasted_core_hours += core_hours;
  ChargeWaste(cause, core_hours, task);
  task->progress.RollBack();
}

void ClusterScheduler::ReleaseBeneficiary(RtTask* task) {
  if (task->beneficiary == nullptr) return;
  task->beneficiary->releases_in_flight--;
  CKPT_CHECK_GE(task->beneficiary->releases_in_flight, 0);
  task->beneficiary = nullptr;
}

}  // namespace ckpt
