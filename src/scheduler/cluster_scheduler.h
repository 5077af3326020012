// Trace-driven cluster scheduling simulator (the paper's S3.3.2 simulator).
//
// Implements the system model of S3.1: jobs arrive with a priority and
// per-task resource demands; a priority scheduler places tasks on nodes and,
// under contention, preempts lower-priority victims using one of the four
// policies (wait / kill / checkpoint / adaptive). Checkpoint traffic runs
// through each node's StorageDevice queue plus the network model, so dump
// and restore latencies — and therefore Algorithm 1/2's decisions — reflect
// the backlog on the chosen storage medium.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/dump_scheduler.h"
#include "obs/packed_ring.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/slab.h"
#include "dfs/network.h"
#include "fault/fault.h"
#include "metrics/stats.h"
#include "obs/self_profile.h"
#include "scheduler/feasibility_index.h"
#include "scheduler/policy.h"
#include "sim/simulator.h"
#include "storage/medium.h"
#include "trace/workload.h"

namespace ckpt {

class BandwidthDomain;
class Histogram;
class Observability;
class ServiceManager;
struct ServiceSpec;
class StorageDevice;
class WorkloadStream;
enum class WasteCause;
struct ServicePreemptCost;

// Shared-bandwidth interference model (Herault et al.'s interfering
// checkpoints). Off by default; when enabled, checkpoint dumps/restores
// drain a cluster-wide DFS-ingest BandwidthDomain after their device stage
// (N concurrent dumps each see ~1/N), network transfers occupy the
// receiver's ingress too and cross-rack ones drain per-rack uplink domains
// (racks of 16 nodes, 2.5 GB/s uplinks), and dump/restore overhead is
// charged from actual elapsed freeze time instead of the submit-time
// estimate.
struct InterferenceConfig {
  bool enabled = false;
  // Cluster-wide DFS ingest/backbone pool that every checkpoint write to a
  // DFS-backed device drains (fair-shared).
  Bandwidth shared_bw = GBps(1);
};

struct SchedulerConfig {
  PreemptionPolicy policy = PreemptionPolicy::kKill;
  StorageMedium medium = StorageMedium::Hdd();
  NetworkConfig network;

  // Checkpoint handling.
  bool incremental_checkpoints = true;
  // Checkpoints go to a DFS: restorable from any node (paper's HDFS
  // extension), with a second replica on a random peer. When false, images
  // are local-only (stock CRIU) and a task can resume only on the node that
  // dumped it. Either way an image must fit its device: a victim whose
  // image does not fit falls back to kill.
  bool checkpoint_to_dfs = true;
  double adaptive_threshold = 1.0;
  VictimOrder victim_order = VictimOrder::kCostAware;
  RestorePolicy restore_policy = RestorePolicy::kAdaptive;

  // --- NVRAM-as-virtual-memory extensions (paper S3.2.3 / future work) ---
  // Shadow buffering: while a task runs, a background mirror streams its
  // dirty pages to NVM at `shadow_sync_bw`, so a later dump only writes the
  // residue that the mirror has not caught up with.
  bool shadow_buffering = false;
  Bandwidth shadow_sync_bw = GBps(2);
  // Lazy (copy-on-touch) restore: resume after reloading metadata plus 5%
  // of the image, eagerly paged; the rest faults back from NVRAM on demand
  // via OS paging.
  bool lazy_restore = false;

  // Backoff before a preempted task may be scheduled again (the Google
  // trace shows tens of seconds between eviction and resubmission). Zero
  // re-queues instantly; nonzero damps preemption ping-pong on fast media.
  SimDuration resubmit_delay = 0;

  // QoS guard motivated by the paper's Table 2: in the Google trace 14.8%
  // of the *most* latency-sensitive tasks were still preempted. Tasks with
  // latency_class >= this threshold are never selected as victims
  // (kNumLatencyClasses disables the guard, reproducing the trace).
  int protect_latency_class_at_least = kNumLatencyClasses;

  // O(log n) node-feasibility index over placement/preemption scans. The
  // index descends to exactly the node the linear scan would choose, so
  // results are byte-identical either way; `false` keeps the plain scans
  // (the bench_scale --index=off ablation and the property tests' reference
  // executions).
  bool use_feasibility_index = true;

  // Deterministic fault injection (node crashes are scheduled at
  // construction; storage faults hook into every node's device). An empty
  // plan leaves behaviour bit-for-bit identical to a build without faults.
  FaultPlan fault;
  // After this many consecutive failed dumps of one victim, Algorithm 1
  // falls back to killing it instead of checkpointing again.
  int max_checkpoint_failures = 3;

  // Shared-bandwidth checkpoint interference; see InterferenceConfig.
  InterferenceConfig interference;
  // Cooperative dump admission (naive = admit-all, byte-identical to no
  // scheduler). Only consulted when interference.enabled.
  DumpSchedulerConfig dump_scheduler;
  // Periodic Young/Daly checkpointing: with a positive MTBF, running tasks
  // dump in place every sqrt(2 * dump_cost * MTBF) (2 min at the shortest)
  // so a node crash loses at most ~one interval of work instead of
  // everything since the last preemption. Zero disables; independent of
  // interference.enabled.
  SimDuration periodic_ckpt_mtbf = 0;

  std::uint64_t seed = 7;

  // Optional metrics/trace sink; not owned, null disables all recording.
  Observability* obs = nullptr;
};

struct SimulationResult {
  // Fig. 3a / 8a.
  double wasted_core_hours = 0;     // lost work + preemption overhead
  double lost_work_core_hours = 0;  // re-executed work (kills)
  double overhead_core_hours = 0;   // cores held during dump/restore
  double total_busy_core_hours = 0;
  double WastedFraction() const {
    return total_busy_core_hours > 0 ? wasted_core_hours / total_busy_core_hours
                                     : 0;
  }

  // Fig. 3b / 8b.
  double energy_kwh = 0;

  // Fig. 3c / 8c / 9: response times in seconds.
  std::array<SummaryStats, 3> job_response_by_band;   // by PriorityBand
  std::array<SummaryStats, 3> task_response_by_band;
  SummaryStats all_job_responses;

  // Event counts.
  std::int64_t preemptions = 0;
  std::int64_t kills = 0;
  std::int64_t checkpoints = 0;
  std::int64_t incremental_checkpoints = 0;
  // Young/Daly in-place dumps (not counted in `checkpoints`).
  std::int64_t periodic_checkpoints = 0;
  std::int64_t periodic_checkpoint_failures = 0;
  // Cooperative dump-scheduler admission outcomes.
  std::int64_t dumps_deferred = 0;
  SimDuration dump_defer_time = 0;
  std::int64_t local_restores = 0;
  std::int64_t remote_restores = 0;
  std::int64_t restarts_from_scratch = 0;  // killed work re-run
  std::int64_t capacity_fallback_kills = 0;

  // Fig. 12 overhead accounting.
  SimDuration total_dump_time = 0;
  SimDuration total_restore_time = 0;
  double CheckpointCpuOverhead() const {
    const double busy = total_busy_core_hours;
    return busy > 0 ? overhead_core_hours / busy : 0;
  }
  double io_overhead_fraction = 0;  // device busy time / wall time
  Bytes peak_checkpoint_bytes = 0;
  Bytes total_checkpoint_bytes_written = 0;

  SimDuration makespan = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t tasks_completed = 0;

  // Service workload (SubmitServices): SLO accounting totals across all
  // services, split by the full-capacity counterfactual attribution.
  std::int64_t service_replicas_retired = 0;
  std::int64_t service_preemptions = 0;
  std::int64_t service_cold_starts = 0;
  double slo_violation_seconds = 0;
  double slo_violation_preempt_seconds = 0;
  double slo_violation_organic_seconds = 0;

  // Scheduling decisions taken: task starts, restore starts, and victim
  // preemptions. bench_scale divides this by wall time for decisions/s.
  std::int64_t sched_decisions = 0;

  // Failure injection.
  std::int64_t node_failures = 0;
  std::int64_t tasks_interrupted_by_failure = 0;
  std::int64_t images_lost_to_failure = 0;
  std::int64_t images_survived_failure = 0;
  std::int64_t dump_failures = 0;     // storage write faults during dumps
  std::int64_t restore_failures = 0;  // storage read faults during restores
  std::int64_t checkpoint_failure_fallback_kills = 0;
  std::int64_t faults_injected = 0;
};

class ClusterScheduler {
 public:
  ClusterScheduler(Simulator* sim, Cluster* cluster, SchedulerConfig config);
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  // Register the workload's arrival events. Call once before Run().
  void Submit(const Workload& workload);

  // Streaming alternative to Submit(): jobs are pulled from `stream` (not
  // owned; must outlive Run()) one at a time — each arrival event pulls the
  // next job, so at most one undispatched JobSpec is materialized and
  // finished jobs release their task specs. Peak memory stays O(live tasks)
  // instead of O(all tasks). Event ordering may differ from Submit() when a
  // later job's arrival ties with an event scheduled before it was pulled,
  // so a run is comparable only to other SubmitStream runs of the same
  // stream (which are deterministic).
  void SubmitStream(WorkloadStream* stream);

  // Register long-running service jobs (one replicated RtJob per spec).
  // Replicas never "complete" within the horizon — each runs until its
  // spec's end time — and carry a diurnal traffic curve whose tail latency
  // is sampled every 30 s. Capacity lost to preemption or checkpoint
  // freezes inflates p99 and accrues SLO-violation seconds
  // (WasteCause::kSloViolation); the cost-aware victim order weighs a
  // replica by those seconds one for one against checkpoint overhead.
  // Composable with Submit()/SubmitStream(); call at most once, before
  // Run().
  void SubmitServices(const std::vector<ServiceSpec>& services);

  // Null unless SubmitServices was called; per-service SLO totals.
  const ServiceManager* services() const { return services_.get(); }

  // Failure injection: crash `node` at `at`, recover it `down_for` later
  // (never, when down_for < 0). Tasks on the node are interrupted; with
  // DFS-replicated checkpoints their images survive and they resume
  // elsewhere from saved progress — local-only images die with the node.
  void InjectNodeFailure(NodeId node, SimTime at, SimDuration down_for);

  // Drive the simulation to completion and return the collected metrics.
  SimulationResult Run();

  const SchedulerConfig& config() const { return config_; }

 private:
  struct RtTask;
  struct RtJob;
  struct PendingLess {
    bool operator()(const RtTask* a, const RtTask* b) const;
  };

  void OnJobArrival(RtJob* job);
  // Dispatch the buffered streamed job, then pull/schedule the next one.
  void OnStreamArrival();
  void TrySchedule();
  void RunSchedulePass();
  bool TryPlace(RtTask* task);
  // First-fit probe with the cached cluster-wide free-resource summary as a
  // fast reject; advances place_cursor_ on success like the raw probe.
  Node* ProbeFitCached(const Resources& demand);
  // Conservative upper bound: false means no single node can fit `demand`.
  bool MightFitAnywhere(const Resources& demand);
  // Any change to some node's Available() invalidates the summary.
  void InvalidateAvailSummary() { avail_summary_valid_ = false; }
  // Invalidate the summary AND mark `node`'s feasibility-index leaf stale.
  // Must be called on every change to the node's Available(), its online
  // state, or the set/state of tasks running on it.
  void TouchNode(NodeId node);
  // Recompute stale index leaves; queries call this first.
  void FlushFeasibilityIndex();
  FeasibilityAgg ComputeNodeAgg(size_t node_index);
  // Any change that can affect VictimCheckpointOverhead's inputs (device
  // backlogs, image state) bumps the epoch, invalidating memoized costs.
  void BumpOverheadEpoch() { ++overhead_epoch_; }
  bool TryPreemptFor(RtTask* task);
  void StartTask(RtTask* task, Node* node);
  void BeginRestore(RtTask* task, Node* node, bool remote);
  void OnRestoreDone(RtTask* task, int attempt);
  void OnTaskComplete(RtTask* task, int attempt);
  void PreemptVictim(RtTask* victim, PreemptAction action);
  void KillVictim(RtTask* victim);
  void ApplyResubmitBackoff(RtTask* task);
  void OnDumpComplete(RtTask* task, int attempt, bool incremental,
                      Bytes dump_bytes);
  void OnDumpFailed(RtTask* task, int attempt);
  // Interference-aware accounting switch: actual elapsed freeze durations
  // instead of submit-time estimates.
  bool InterferenceOn() const { return config_.interference.enabled; }
  // Submit a frozen victim's dump I/O, optionally through the cooperative
  // dump scheduler: the device write (and DFS replication transfer) start
  // at admission; `finish(ok)` runs on completion with the scheduler slot
  // already released.
  void LaunchDump(RtTask* victim, int attempt, Bytes dump_bytes,
                  std::function<void(bool)> finish);
  // Periodic Young/Daly checkpointing of running tasks.
  void MaybeSchedulePeriodicDump(RtTask* task);
  void StartPeriodicDump(RtTask* task);
  // Checkpoint lifecycle steps. Each is written once and called from every
  // path that makes its transition: preemption, periodic dumps, restores,
  // their I/O completions and failures, and node crashes.
  SimDuration RemainingRun(const RtTask* task) const;
  // Arm a (re)started run's completion and its next periodic dump.
  void ScheduleRun(RtTask* task);
  // Reserve a new image's room on the device that will serve its restores
  // and record the dump as pending; false, reserving nothing, when the
  // image does not fit.
  bool ReserveDump(RtTask* task, bool incremental, Bytes dump_bytes);
  // Freeze a stopped task whose dump is reserved, charge the freeze and
  // launch the dump I/O.
  void FreezeForDump(RtTask* task, bool incremental, Bytes dump_bytes);
  // After a dump commits or fails: thaw a periodic dumper in place, or hand
  // a victim's container back and requeue it.
  void EndDump(RtTask* task);
  // Unwind a dump whose writer or target node crashed.
  void AbandonDump(RtTask* task);
  void ReleaseDumpReservation(RtTask* task);
  // Charge `span` of frozen cores as overhead of the task's phase.
  void ChargeFreeze(RtTask* task, SimDuration span);
  // Under interference, charge the real span since the freeze began.
  void EndFreeze(RtTask* task);
  // Thaw a frozen container back into kRunning, its process intact.
  void ResumeFrozen(RtTask* task);
  // Charge the progress made since the last image as lost, and roll back.
  void ForfeitUnsavedWork(RtTask* task, WasteCause cause);
  // The pending task a finished dump made room for may preempt again.
  void ReleaseBeneficiary(RtTask* task);
  void OnRestoreFailed(RtTask* task);
  void StopRunning(RtTask* task);  // fold progress, detach from node
  // Give the task's container, running or frozen, back to its node.
  void DetachFromNode(RtTask* task);
  void ReleaseImage(RtTask* task);
  PreemptAction DecideVictimAction(RtTask* victim) const;
  void RecordVictimDecision(const RtTask* victim, PreemptAction action) const;
  // --- Service workload hooks (all no-ops unless SubmitServices ran) ---
  bool IsService(const RtTask* task) const;
  // Capacity bookkeeping: a replica comes up cold (fresh start / post-kill
  // restart, warms up at reduced capacity) or warm (checkpoint resume).
  void ServiceReplicaUp(const RtTask* task, bool cold);
  void ServiceReplicaDown(const RtTask* task);
  // Per-service SLO accounting tick; reschedules itself until spec end.
  void OnServiceTick(int service_idx, std::int64_t tick_index);
  // Algorithm 1 service branch inputs for one replica victim.
  ServicePreemptCost ServiceVictimCost(const RtTask* victim) const;
  // Cost-aware victim-order penalty: 0 for batch tasks, the weighted
  // cheaper-action SLO damage for service replicas.
  SimDuration VictimSloPenalty(const RtTask* victim) const;
  void RecordServicePreempt(const RtTask* victim, PreemptAction action,
                            const ServicePreemptCost& cost) const;
  // Canonical "node/N" track spelling from a lazily filled per-node cache
  // (node ids are dense), so hot audit/trace sites stop re-formatting it.
  const std::string& NodeTrackCached(NodeId node) const;
  // Mirror of a result_ waste increment into the ledger (no-op without
  // obs); `amount` is in the cause's unit, attribution from the task.
  void ChargeWaste(WasteCause cause, double amount, const RtTask* task);
  bool CanIncrement(const RtTask* victim) const;
  SimDuration VictimCheckpointOverhead(const RtTask* victim) const;
  Bytes DumpBytes(const RtTask* victim, bool incremental) const;
  Bytes DirtyBytes(const RtTask* victim) const;
  SimDuration UnsavedProgress(const RtTask* task) const;
  void AddPending(RtTask* task);
  void RemovePending(RtTask* task);
  void FinishJobIfDone(RtJob* job);
  void OnNodeFailure(NodeId node, SimDuration down_for);
  void EvacuateImage(RtTask* task, NodeId failed);

  std::vector<RtTask*>& RunningOn(NodeId node) {
    return running_[static_cast<size_t>(node.value())];
  }
  // Failure-handling indexes (insertion keyed by task creation order so
  // iteration matches the seed's linear scan over tasks_).
  void IndexImage(RtTask* task);
  void UnindexImage(RtTask* task);
  void IndexPendingDump(RtTask* task);
  void UnindexPendingDump(RtTask* task);

  Simulator* sim_;
  Cluster* cluster_;
  SchedulerConfig config_;
  Rng rng_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<FaultInjector> fault_;
  // Shared-bandwidth interference plumbing (null unless enabled): the
  // DFS-ingest pool every node device drains, and the cooperative dump
  // admission scheduler.
  std::unique_ptr<BandwidthDomain> ingest_domain_;
  std::unique_ptr<DumpScheduler> dump_scheduler_;

  // Service workload state (null unless SubmitServices was called).
  std::unique_ptr<ServiceManager> services_;
  // Per-service p99 histogram handles, resolved lazily under obs.
  mutable std::vector<Histogram*> service_p99_hist_;

  std::vector<std::unique_ptr<RtJob>> jobs_;

  // Streaming submission state (SubmitStream): the source stream plus the
  // single pulled-but-undispatched job (lookahead 1).
  WorkloadStream* stream_ = nullptr;
  JobSpec stream_next_;
  bool stream_has_next_ = false;
  // Task records live in a slab arena (pointer-stable, chunk-allocated);
  // tasks_ keeps creation order for the failure-handling index iteration.
  std::unique_ptr<SlabArena<RtTask>> task_arena_;
  std::vector<RtTask*> tasks_;

  // Pending tasks ordered by (priority desc, submit asc, id asc).
  std::set<RtTask*, PendingLess> pending_;

  // Running/dumping tasks per node for victim search; node ids are dense,
  // so a flat vector beats hashing on the hot path.
  std::vector<std::vector<RtTask*>> running_;

  // For each in-flight victim dump, the pending task it makes room for.
  std::unordered_map<RtTask*, RtTask*> dump_beneficiary_;

  // Failure-handling indexes, ordered by task creation index so failure
  // handling walks tasks in the same order as the seed's full scans.
  struct ByTaskIndex {
    bool operator()(const RtTask* a, const RtTask* b) const;
  };
  using TaskIndexSet = std::set<RtTask*, ByTaskIndex>;
  std::unordered_map<NodeId, TaskIndexSet> images_on_node_;
  std::unordered_map<NodeId, TaskIndexSet> dumps_to_node_;

  SimulationResult result_;
  Bytes current_checkpoint_bytes_ = 0;
  bool schedule_scheduled_ = false;  // coalesce TrySchedule calls
  size_t place_cursor_ = 0;          // round-robin fit probe position
  size_t victim_cursor_ = 0;         // round-robin preemption-node position

  // Cluster-wide free-resource summary (component-wise max of per-node
  // Available()); lazily recomputed after any allocation change so probes
  // for demands that cannot fit anywhere skip the node scan.
  bool avail_summary_valid_ = false;
  Resources avail_summary_{};

  // Memoization epoch for VictimCheckpointOverhead (see BumpOverheadEpoch).
  std::uint64_t overhead_epoch_ = 0;

  // Within one scheduling pass, the smallest demand (with its priority) for
  // which victim search failed. While no victim has been released, any
  // demand dominating it at the same priority must fail too, so the O(nodes
  // x running) scan can be skipped. Reset at pass start and on success.
  bool preempt_fail_valid_ = false;
  Resources preempt_fail_demand_{};
  int preempt_fail_priority_ = 0;

  // O(log n) feasibility index (see feasibility_index.h). Leaves go stale
  // via TouchNode and are recomputed lazily before each query.
  FeasibilityIndex feas_index_;
  std::vector<char> index_leaf_stale_;
  std::vector<size_t> index_stale_list_;

  // Scratch buffers for TryPreemptFor, reused across nodes/attempts so the
  // hot path performs no per-attempt allocations once warmed up.
  std::vector<RtTask*> preempt_local_scratch_;
  std::vector<RtTask*> victim_candidates_;

  // Scratch args and candidate lists for TryPreemptFor's preempt_scan
  // audit record; reassigned in place, so steady-state scans reuse their
  // capacity instead of allocating per decision.
  TraceArgs preempt_args_;
  std::vector<TraceArgs> preempt_candidates_;
  // Per-node "node/N" spellings (see NodeTrackCached) and policy.decisions
  // counter handles resolved on first use per action; mutable because the
  // const decision-recording paths fill them.
  mutable std::vector<std::string> node_tracks_;
  mutable std::array<Counter*, 3> decision_counters_{};

  // Feasibility-index work counter (leaves recomputed by flushes); cheap
  // enough to keep always-on, exported and audited only under obs.
  std::int64_t index_leaves_recomputed_ = 0;

  // Self-profile slots, resolved once at construction; null without obs,
  // making every ScopedWallTimer a no-op.
  SelfProfile::Slot* prof_run_ = nullptr;
  SelfProfile::Slot* prof_pass_ = nullptr;
  SelfProfile::Slot* prof_preempt_ = nullptr;
  // Count-only per-site slots (no timer — the sites are per-event hot):
  // self.calls reports how often each site ran, wall stays 0.
  SelfProfile::Slot* prof_place_ = nullptr;
  SelfProfile::Slot* prof_index_flush_ = nullptr;
  SelfProfile::Slot* prof_waste_charge_ = nullptr;
};

}  // namespace ckpt
