// Golden results for ClusterScheduler: small seeded runs whose every
// SimulationResult field must equal a value recorded from the scheduler
// whose pass retried every pending task from the head on every pass.
//
// The pass now skips work it can prove will fail, reading only a task's
// pending entry: a task in resubmit backoff, a placement whose demand does
// not fit the feasibility index's root (the max of every node's
// Available()), and a preemption attempt the pass's failure-dominance memo
// covers. Placement also skips Algorithm 2's restore costing when the
// image node cannot fit. Each skip claims identical decisions, so the
// recorded results are the oracle for all of them at once. The matrix
// crosses every preemption policy with the three ways an image can be
// restored (the kWait row takes no images, so its three cells agree), and
// every cell crashes two nodes mid-run and brings them back, so nodes go
// offline and come back with pending tasks waiting for them.
//
// StorageNodeAlwaysLocal adds a node that takes evacuated images but is
// too small to run any task. Its crash moves images while detaching
// nothing, and always-local restores are bound to wherever their image is.
//
// The IndexOff cells run the linear reference scans that the feasibility
// index replaces; there the pass does no root check, and TryPlace rejects
// what the root would. They were recorded from the scheduler that still
// skipped failed placements by a per-task release-epoch stamp, so they pin
// that dropping the stamp changed no decision on that path either. Their
// values equal KillDfs's and AdaptiveDfs's: the index moves no decision.
//
// Every cell also runs with an Observability attached and must match the
// same line: a traced run costs victims the plain run never costs (the
// preempt_scan audit's not_needed rows), and none of that may move a
// decision.
//
// On a mismatch the test prints the cell's actual line; recording a new
// golden value means pasting it into kGolden below, and says why the
// results changed.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "golden_line.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "service/service_workload.h"
#include "trace/google_trace.h"

namespace ckpt {
namespace {

enum class Images { kDfsAdaptive, kDfsAlwaysLocal, kLocalOnly };

struct GoldenCell {
  const char* name;
  PreemptionPolicy policy;
  Images images;
  bool latency_guard = false;
  bool resubmit_delay = false;
  // Colocated services, shared-bandwidth interference and periodic
  // Young/Daly dumps.
  bool services = false;
  // Node 0 takes evacuated images but is too small to run any task.
  bool storage_node = false;
  // The plain linear scans instead of the feasibility index.
  bool index_off = false;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

SimulationResult RunCell(const GoldenCell& cell, Observability* obs) {
  GoogleTraceConfig trace_config;
  trace_config.sample_jobs = 120;
  trace_config.seed = 21;
  Workload workload = GoogleTraceGenerator(trace_config).GenerateWorkloadSample();
  // Compress arrivals so six nodes stay contended.
  for (JobSpec& job : workload.jobs) job.submit_time /= 12;

  SchedulerConfig config;
  config.policy = cell.policy;
  config.medium = StorageMedium::Ssd();
  config.seed = 5;
  config.obs = obs;
  config.checkpoint_to_dfs = cell.images != Images::kLocalOnly;
  if (cell.images == Images::kDfsAlwaysLocal) {
    config.restore_policy = RestorePolicy::kAlwaysLocal;
  }
  if (cell.latency_guard) config.protect_latency_class_at_least = 2;
  if (cell.resubmit_delay) config.resubmit_delay = Seconds(30);
  if (cell.index_off) config.use_feasibility_index = false;
  if (cell.services) {
    config.interference.enabled = true;
    config.periodic_ckpt_mtbf = Hours(4);
  }
  config.fault.node_crashes = {{NodeId(1), Minutes(50), Minutes(20)},
                               {NodeId(4), Minutes(130), Minutes(10)}};

  Simulator sim;
  Cluster cluster(&sim);
  if (cell.storage_node) {
    // Node 3's crash evacuates its images to node 0, the first node with
    // room on its device; node 0 then crashes holding images but no task.
    cluster.AddNodes(1, Resources{0.2, GiB(64)}, config.medium);
    config.fault.node_crashes = {{NodeId(3), Minutes(50), Minutes(20)},
                                 {NodeId(0), Hours(4), Minutes(10)}};
  }
  cluster.AddNodes(6, Resources{16.0, GiB(64)}, config.medium);
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  if (cell.services) {
    ServiceFleetConfig fleet;
    fleet.services = 2;
    fleet.min_replicas = 2;
    fleet.max_replicas = 3;
    fleet.demand_per_replica = Resources{2.0, GiB(8)};
    fleet.end = Hours(6);
    scheduler.SubmitServices(GenerateServiceFleet(fleet));
  }
  return scheduler.Run();
}

// Every field of the result as "name=value" tokens: integers exactly,
// doubles to 17 significant digits (which round-trips), and each sample
// set as its count, sum and an FNV-1a hash of its samples' bits in order.
std::vector<std::string> Fields(const SimulationResult& r) {
  std::vector<std::string> out;
  char buf[128];
  auto num = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g", name, v);
    out.emplace_back(buf);
  };
  auto integer = [&](const char* name, std::int64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%" PRId64, name, v);
    out.emplace_back(buf);
  };
  auto stats = [&](const std::string& name, const SummaryStats& s) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const double x : s.samples()) {
      std::uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        hash ^= (bits >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
      }
    }
    integer((name + ".n").c_str(), s.count());
    num((name + ".sum").c_str(), s.sum());
    std::snprintf(buf, sizeof(buf), "%s.fnv=%016" PRIx64, name.c_str(), hash);
    out.emplace_back(buf);
  };
  num("wasted_ch", r.wasted_core_hours);
  num("lost_ch", r.lost_work_core_hours);
  num("overhead_ch", r.overhead_core_hours);
  num("busy_ch", r.total_busy_core_hours);
  num("energy_kwh", r.energy_kwh);
  for (size_t b = 0; b < 3; ++b) {
    stats("job_rt" + std::to_string(b), r.job_response_by_band[b]);
    stats("task_rt" + std::to_string(b), r.task_response_by_band[b]);
  }
  stats("job_rt", r.all_job_responses);
  integer("preemptions", r.preemptions);
  integer("kills", r.kills);
  integer("checkpoints", r.checkpoints);
  integer("incremental", r.incremental_checkpoints);
  integer("periodic", r.periodic_checkpoints);
  integer("periodic_failures", r.periodic_checkpoint_failures);
  integer("dumps_deferred", r.dumps_deferred);
  integer("dump_defer_time", r.dump_defer_time);
  integer("local_restores", r.local_restores);
  integer("remote_restores", r.remote_restores);
  integer("scratch_restarts", r.restarts_from_scratch);
  integer("capacity_kills", r.capacity_fallback_kills);
  integer("dump_time", r.total_dump_time);
  integer("restore_time", r.total_restore_time);
  num("io_overhead", r.io_overhead_fraction);
  integer("peak_ckpt_bytes", r.peak_checkpoint_bytes);
  integer("ckpt_bytes_written", r.total_checkpoint_bytes_written);
  integer("makespan", r.makespan);
  integer("jobs", r.jobs_completed);
  integer("tasks", r.tasks_completed);
  integer("replicas_retired", r.service_replicas_retired);
  integer("service_preemptions", r.service_preemptions);
  integer("cold_starts", r.service_cold_starts);
  num("slo_s", r.slo_violation_seconds);
  num("slo_preempt_s", r.slo_violation_preempt_seconds);
  num("slo_organic_s", r.slo_violation_organic_seconds);
  integer("decisions", r.sched_decisions);
  integer("node_failures", r.node_failures);
  integer("interrupted", r.tasks_interrupted_by_failure);
  integer("images_lost", r.images_lost_to_failure);
  integer("images_survived", r.images_survived_failure);
  integer("dump_failures", r.dump_failures);
  integer("restore_failures", r.restore_failures);
  integer("failure_kills", r.checkpoint_failure_fallback_kills);
  integer("faults", r.faults_injected);
  return out;
}

// Recorded from the scheduler before the incremental pass, one line per
// cell (the name order of Fields()).
const Golden kGolden[] = {
    {"WaitDfs",
     "wasted_ch=16.337641001805547 lost_ch=16.337641001805547 "
     "overhead_ch=0 busy_ch=786.14785378694444 "
     "energy_kwh=18.565377107180467 job_rt0.n=63 "
     "job_rt0.sum=959936.43805600004 job_rt0.fnv=50d83446b695f29e "
     "task_rt0.n=1293 task_rt0.sum=22525649.587306004 "
     "task_rt0.fnv=b487b8566f819059 job_rt1.n=52 "
     "job_rt1.sum=116536.22209700001 job_rt1.fnv=d4a15540ce043075 "
     "task_rt1.n=979 task_rt1.sum=2775824.4979460021 "
     "task_rt1.fnv=6735aef667cf1a55 job_rt2.n=5 "
     "job_rt2.sum=22189.551563000001 job_rt2.fnv=db3e8194ef2e7639 "
     "task_rt2.n=93 task_rt2.sum=275714.24585600005 "
     "task_rt2.fnv=1ffdedca206977de job_rt.n=120 "
     "job_rt.sum=1098662.211716 job_rt.fnv=23af2c91e71794a2 "
     "preemptions=0 kills=0 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=0 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=41662344648 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=2428 node_failures=2 interrupted=63 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"WaitAlwaysLocal",
     "wasted_ch=16.337641001805547 lost_ch=16.337641001805547 "
     "overhead_ch=0 busy_ch=786.14785378694444 "
     "energy_kwh=18.565377107180467 job_rt0.n=63 "
     "job_rt0.sum=959936.43805600004 job_rt0.fnv=50d83446b695f29e "
     "task_rt0.n=1293 task_rt0.sum=22525649.587306004 "
     "task_rt0.fnv=b487b8566f819059 job_rt1.n=52 "
     "job_rt1.sum=116536.22209700001 job_rt1.fnv=d4a15540ce043075 "
     "task_rt1.n=979 task_rt1.sum=2775824.4979460021 "
     "task_rt1.fnv=6735aef667cf1a55 job_rt2.n=5 "
     "job_rt2.sum=22189.551563000001 job_rt2.fnv=db3e8194ef2e7639 "
     "task_rt2.n=93 task_rt2.sum=275714.24585600005 "
     "task_rt2.fnv=1ffdedca206977de job_rt.n=120 "
     "job_rt.sum=1098662.211716 job_rt.fnv=23af2c91e71794a2 "
     "preemptions=0 kills=0 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=0 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=41662344648 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=2428 node_failures=2 interrupted=63 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"WaitLocalOnly",
     "wasted_ch=16.337641001805547 lost_ch=16.337641001805547 "
     "overhead_ch=0 busy_ch=786.14785378694444 "
     "energy_kwh=18.565377107180467 job_rt0.n=63 "
     "job_rt0.sum=959936.43805600004 job_rt0.fnv=50d83446b695f29e "
     "task_rt0.n=1293 task_rt0.sum=22525649.587306004 "
     "task_rt0.fnv=b487b8566f819059 job_rt1.n=52 "
     "job_rt1.sum=116536.22209700001 job_rt1.fnv=d4a15540ce043075 "
     "task_rt1.n=979 task_rt1.sum=2775824.4979460021 "
     "task_rt1.fnv=6735aef667cf1a55 job_rt2.n=5 "
     "job_rt2.sum=22189.551563000001 job_rt2.fnv=db3e8194ef2e7639 "
     "task_rt2.n=93 task_rt2.sum=275714.24585600005 "
     "task_rt2.fnv=1ffdedca206977de job_rt.n=120 "
     "job_rt.sum=1098662.211716 job_rt.fnv=23af2c91e71794a2 "
     "preemptions=0 kills=0 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=0 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=41662344648 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=2428 node_failures=2 interrupted=63 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"KillDfs",
     "wasted_ch=50.319335857777787 lost_ch=50.319335857777787 "
     "overhead_ch=0 busy_ch=820.12954863361108 "
     "energy_kwh=19.248874703976828 job_rt0.n=63 "
     "job_rt0.sum=1135133.0017150005 job_rt0.fnv=158d927bbb8af4c0 "
     "task_rt0.n=1293 task_rt0.sum=25179998.025924031 "
     "task_rt0.fnv=6a0f6044a28575c9 job_rt1.n=52 "
     "job_rt1.sum=114399.412008 job_rt1.fnv=a265db1626c2a8b4 "
     "task_rt1.n=979 task_rt1.sum=2706458.7702910001 "
     "task_rt1.fnv=12c233f26bdfd8a0 job_rt2.n=5 "
     "job_rt2.sum=20690.088052999999 job_rt2.fnv=95fa62ce7a767104 "
     "task_rt2.n=93 task_rt2.sum=250940.39454200002 "
     "task_rt2.fnv=a25a6c21f8b44b50 job_rt.n=120 "
     "job_rt.sum=1270222.5017760005 job_rt.fnv=9956206457c420b4 "
     "preemptions=373 kills=373 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=373 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=42953216918 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=3169 node_failures=2 interrupted=58 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"KillAlwaysLocal",
     "wasted_ch=50.319335857777787 lost_ch=50.319335857777787 "
     "overhead_ch=0 busy_ch=820.12954863361108 "
     "energy_kwh=19.248874703976828 job_rt0.n=63 "
     "job_rt0.sum=1135133.0017150005 job_rt0.fnv=158d927bbb8af4c0 "
     "task_rt0.n=1293 task_rt0.sum=25179998.025924031 "
     "task_rt0.fnv=6a0f6044a28575c9 job_rt1.n=52 "
     "job_rt1.sum=114399.412008 job_rt1.fnv=a265db1626c2a8b4 "
     "task_rt1.n=979 task_rt1.sum=2706458.7702910001 "
     "task_rt1.fnv=12c233f26bdfd8a0 job_rt2.n=5 "
     "job_rt2.sum=20690.088052999999 job_rt2.fnv=95fa62ce7a767104 "
     "task_rt2.n=93 task_rt2.sum=250940.39454200002 "
     "task_rt2.fnv=a25a6c21f8b44b50 job_rt.n=120 "
     "job_rt.sum=1270222.5017760005 job_rt.fnv=9956206457c420b4 "
     "preemptions=373 kills=373 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=373 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=42953216918 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=3169 node_failures=2 interrupted=58 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"KillLocalOnly",
     "wasted_ch=50.319335857777787 lost_ch=50.319335857777787 "
     "overhead_ch=0 busy_ch=820.12954863361108 "
     "energy_kwh=19.248874703976828 job_rt0.n=63 "
     "job_rt0.sum=1135133.0017150005 job_rt0.fnv=158d927bbb8af4c0 "
     "task_rt0.n=1293 task_rt0.sum=25179998.025924031 "
     "task_rt0.fnv=6a0f6044a28575c9 job_rt1.n=52 "
     "job_rt1.sum=114399.412008 job_rt1.fnv=a265db1626c2a8b4 "
     "task_rt1.n=979 task_rt1.sum=2706458.7702910001 "
     "task_rt1.fnv=12c233f26bdfd8a0 job_rt2.n=5 "
     "job_rt2.sum=20690.088052999999 job_rt2.fnv=95fa62ce7a767104 "
     "task_rt2.n=93 task_rt2.sum=250940.39454200002 "
     "task_rt2.fnv=a25a6c21f8b44b50 job_rt.n=120 "
     "job_rt.sum=1270222.5017760005 job_rt.fnv=9956206457c420b4 "
     "preemptions=373 kills=373 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=373 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=42953216918 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=3169 node_failures=2 interrupted=58 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"CheckpointDfs",
     "wasted_ch=9.9626421962499787 lost_ch=6.5453584707638885 "
     "overhead_ch=3.4172837254860982 busy_ch=776.35557086166671 "
     "energy_kwh=18.534134774206251 job_rt0.n=63 "
     "job_rt0.sum=1060560.1161500001 job_rt0.fnv=8a6c4c4728ca31b6 "
     "task_rt0.n=1293 task_rt0.sum=23401248.354661014 "
     "task_rt0.fnv=d084b094779f408b job_rt1.n=52 "
     "job_rt1.sum=113087.978596 job_rt1.fnv=6bc984869a5b4a98 "
     "task_rt1.n=979 task_rt1.sum=2698183.2761210008 "
     "task_rt1.fnv=f9a5ee9ed1cadb99 job_rt2.n=5 job_rt2.sum=16123.044119 "
     "job_rt2.fnv=7ff941074cea4084 task_rt2.n=93 "
     "task_rt2.sum=242897.67771100017 task_rt2.fnv=552786850073e3d2 "
     "job_rt.n=120 job_rt.sum=1189771.1388650003 "
     "job_rt.fnv=2fb086af98785c92 preemptions=2680 kills=0 "
     "checkpoints=2680 incremental=2156 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=2135 "
     "remote_restores=575 scratch_restarts=0 capacity_kills=0 "
     "dump_time=4464311649 restore_time=14715754103 "
     "io_overhead=0.074265476447931023 peak_ckpt_bytes=144095910420 "
     "ckpt_bytes_written=558005268424 makespan=42000576843 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=7777 "
     "node_failures=2 interrupted=52 images_lost=0 images_survived=41 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"CheckpointAlwaysLocal",
     "wasted_ch=10.249280498611101 lost_ch=6.8077113067361132 "
     "overhead_ch=3.441569191874986 busy_ch=776.6179237975 "
     "energy_kwh=18.541858913377595 job_rt0.n=63 "
     "job_rt0.sum=1062990.7805270001 job_rt0.fnv=9e24943770aa6d45 "
     "task_rt0.n=1293 task_rt0.sum=23796249.601099994 "
     "task_rt0.fnv=e96d1a1dd7c07da5 job_rt1.n=52 "
     "job_rt1.sum=118692.14628 job_rt1.fnv=064dcef02e6760e5 "
     "task_rt1.n=979 task_rt1.sum=2684262.136198001 "
     "task_rt1.fnv=3d79c734db9fb6c9 job_rt2.n=5 job_rt2.sum=16135.468326 "
     "job_rt2.fnv=7d27c5d49e6c02c0 task_rt2.n=93 "
     "task_rt2.sum=244594.30001399992 task_rt2.fnv=0ee524c7362198f7 "
     "job_rt.n=120 job_rt.sum=1197818.3951330001 "
     "job_rt.fnv=2d5a30a14fdf3fb0 preemptions=2657 kills=0 "
     "checkpoints=2657 incremental=2124 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=2687 "
     "remote_restores=0 scratch_restarts=0 capacity_kills=0 "
     "dump_time=4193418903 restore_time=14091157346 "
     "io_overhead=0.072521527721089857 peak_ckpt_bytes=185373559339 "
     "ckpt_bytes_written=524143965912 makespan=42021031142 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=7734 "
     "node_failures=2 interrupted=58 images_lost=0 images_survived=53 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"CheckpointLocalOnly",
     "wasted_ch=10.06711072361111 lost_ch=6.9094255221527749 "
     "overhead_ch=3.1576852014583188 busy_ch=785.95162226111108 "
     "energy_kwh=18.737623427082553 job_rt0.n=63 "
     "job_rt0.sum=1083281.7193469999 job_rt0.fnv=ae8c8c3e265ccd77 "
     "task_rt0.n=1293 task_rt0.sum=24214679.56206502 "
     "task_rt0.fnv=9b969fbd08c83c1f job_rt1.n=52 "
     "job_rt1.sum=119924.795281 job_rt1.fnv=8927a71e5eb2fda5 "
     "task_rt1.n=979 task_rt1.sum=2767782.9967710017 "
     "task_rt1.fnv=5cee31ddda3d0a9f job_rt2.n=5 "
     "job_rt2.sum=15819.262906000002 job_rt2.fnv=73a04763059a43b8 "
     "task_rt2.n=93 task_rt2.sum=243152.41661900008 "
     "task_rt2.fnv=986d86fe4ac8fdbb job_rt.n=120 "
     "job_rt.sum=1219025.7775339999 job_rt.fnv=0bb27b3998f5207a "
     "preemptions=2763 kills=0 checkpoints=2763 incremental=2225 "
     "periodic=0 periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=2744 remote_restores=0 scratch_restarts=0 "
     "capacity_kills=0 dump_time=4376638031 restore_time=14073662697 "
     "io_overhead=0.072507658784316129 peak_ckpt_bytes=171920941082 "
     "ckpt_bytes_written=547045024443 makespan=42410004307 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=7946 "
     "node_failures=2 interrupted=55 images_lost=48 images_survived=0 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"AdaptiveDfs",
     "wasted_ch=12.045734368541625 lost_ch=11.033023747361113 "
     "overhead_ch=1.0127106211805486 busy_ch=780.84323640472223 "
     "energy_kwh=18.509736043634625 job_rt0.n=63 "
     "job_rt0.sum=1052634.4522769998 job_rt0.fnv=3f15d7e0592461ea "
     "task_rt0.n=1293 task_rt0.sum=23421944.653501019 "
     "task_rt0.fnv=65f401437c5b245a job_rt1.n=52 "
     "job_rt1.sum=106743.92019300001 job_rt1.fnv=1792846af9db0e04 "
     "task_rt1.n=979 task_rt1.sum=2459006.5676329993 "
     "task_rt1.fnv=e07bc1c409fb2726 job_rt2.n=5 job_rt2.sum=16138.911178 "
     "job_rt2.fnv=f5d4351f2cf169a5 task_rt2.n=93 "
     "task_rt2.sum=246489.58662399996 task_rt2.fnv=7c49423d43a7e315 "
     "job_rt.n=120 job_rt.sum=1175517.2836479999 "
     "job_rt.fnv=400b98718d24fcab preemptions=870 kills=123 "
     "checkpoints=747 incremental=377 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=478 "
     "remote_restores=405 scratch_restarts=5 capacity_kills=0 "
     "dump_time=2182672898 restore_time=3838088807 "
     "io_overhead=0.023201312987000865 peak_ckpt_bytes=139578333711 "
     "ckpt_bytes_written=272824724796 makespan=41679641279 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=4159 "
     "node_failures=2 interrupted=54 images_lost=0 images_survived=35 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"AdaptiveAlwaysLocal",
     "wasted_ch=9.3909721724305495 lost_ch=7.9941643880555544 "
     "overhead_ch=1.3968077843749964 busy_ch=777.80437701361109 "
     "energy_kwh=18.432430940142442 job_rt0.n=63 "
     "job_rt0.sum=1051662.6984480002 job_rt0.fnv=87cfa7c67407a396 "
     "task_rt0.n=1293 task_rt0.sum=23383570.361860007 "
     "task_rt0.fnv=e146d1517a2b5033 job_rt1.n=52 "
     "job_rt1.sum=105446.41965999999 job_rt1.fnv=1570839070738971 "
     "task_rt1.n=979 task_rt1.sum=2472558.9468669994 "
     "task_rt1.fnv=2faf78c2486c7cc0 job_rt2.n=5 job_rt2.sum=15923.352853 "
     "job_rt2.fnv=395346ca44a354ab task_rt2.n=93 "
     "task_rt2.sum=244857.31206400009 task_rt2.fnv=9dec2b4897108457 "
     "job_rt.n=120 job_rt.sum=1173032.4709610001 "
     "job_rt.fnv=ffaf5046ec885f80 preemptions=1439 kills=286 "
     "checkpoints=1153 incremental=735 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=1452 "
     "remote_restores=0 scratch_restarts=6 capacity_kills=0 "
     "dump_time=2556725117 restore_time=5895678444 "
     "io_overhead=0.033949608747969512 peak_ckpt_bytes=144041744314 "
     "ckpt_bytes_written=319576149298 makespan=41494850126 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=5296 "
     "node_failures=2 interrupted=53 images_lost=0 images_survived=43 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"AdaptiveLocalOnly",
     "wasted_ch=11.555489828611092 lost_ch=10.424670222430557 "
     "overhead_ch=1.1308196061805491 busy_ch=786.59475187111116 "
     "energy_kwh=18.604980988333864 job_rt0.n=63 "
     "job_rt0.sum=1072956.3563029999 job_rt0.fnv=e35ef92990051aac "
     "task_rt0.n=1293 task_rt0.sum=23766868.970783029 "
     "task_rt0.fnv=d6954362d9b08546 job_rt1.n=52 "
     "job_rt1.sum=106526.34318000001 job_rt1.fnv=42a45ac35719e739 "
     "task_rt1.n=979 task_rt1.sum=2496162.3023109972 "
     "task_rt1.fnv=659f46d9966d812f job_rt2.n=5 "
     "job_rt2.sum=20678.277914999999 job_rt2.fnv=3f827ff4193d5e59 "
     "task_rt2.n=93 task_rt2.sum=253208.88152199998 "
     "task_rt2.fnv=bf96b8e716e696c7 job_rt.n=120 "
     "job_rt.sum=1200160.977398 job_rt.fnv=a8fba5ab9e318554 "
     "preemptions=1251 kills=303 checkpoints=948 incremental=546 "
     "periodic=0 periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=1212 remote_restores=0 scratch_restarts=11 "
     "capacity_kills=0 dump_time=2260390862 restore_time=4715795844 "
     "io_overhead=0.027808731935380832 peak_ckpt_bytes=137968632268 "
     "ckpt_bytes_written=282536943837 makespan=41810528687 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=4923 "
     "node_failures=2 interrupted=56 images_lost=44 images_survived=0 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"LatencyGuard",
     "wasted_ch=11.22022446145831 lost_ch=10.106011627569444 "
     "overhead_ch=1.1142128338888826 busy_ch=779.91622427361108 "
     "energy_kwh=18.477746449120311 job_rt0.n=63 "
     "job_rt0.sum=1033170.0120779998 job_rt0.fnv=1320f72397fe93ba "
     "task_rt0.n=1293 task_rt0.sum=23295327.077165026 "
     "task_rt0.fnv=072b2a3050e21b48 job_rt1.n=52 "
     "job_rt1.sum=108060.810287 job_rt1.fnv=773e4f3f52c9dd9e "
     "task_rt1.n=979 task_rt1.sum=2439710.4479220011 "
     "task_rt1.fnv=df6eac1f28e6ad2e job_rt2.n=5 job_rt2.sum=15962.93765 "
     "job_rt2.fnv=41955c3f0e41ac7c task_rt2.n=93 "
     "task_rt2.sum=245388.17677100003 task_rt2.fnv=d657f6000a62d2c8 "
     "job_rt.n=120 job_rt.sum=1157193.7600149997 "
     "job_rt.fnv=2b3e804483aeb5e4 preemptions=1041 kills=240 "
     "checkpoints=801 incremental=456 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=514 "
     "remote_restores=538 scratch_restarts=5 capacity_kills=0 "
     "dump_time=2102976574 restore_time=4890857721 "
     "io_overhead=0.026667504435530492 peak_ckpt_bytes=132048584297 "
     "ckpt_bytes_written=262862003202 makespan=41587238244 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=4499 "
     "node_failures=2 interrupted=52 images_lost=0 images_survived=40 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"ResubmitDelay",
     "wasted_ch=10.677485154444334 lost_ch=7.2112889706249996 "
     "overhead_ch=3.4661961838194326 busy_ch=777.02150132527777 "
     "energy_kwh=18.562703133463021 job_rt0.n=63 "
     "job_rt0.sum=1072320.3182180002 job_rt0.fnv=7637117ef56ee41a "
     "task_rt0.n=1293 task_rt0.sum=23900875.416390993 "
     "task_rt0.fnv=64484d1ee6859e80 job_rt1.n=52 "
     "job_rt1.sum=115590.11235699998 job_rt1.fnv=9af5dc1fcad2f338 "
     "task_rt1.n=979 task_rt1.sum=2749680.7378749973 "
     "task_rt1.fnv=7d903a438013d807 job_rt2.n=5 job_rt2.sum=20677.529616 "
     "job_rt2.fnv=4dde89ade9b5db1c task_rt2.n=93 "
     "task_rt2.sum=251474.62852699994 task_rt2.fnv=bceebea2b95f39ff "
     "job_rt.n=120 job_rt.sum=1208587.9601910005 "
     "job_rt.fnv=c681932b35fa828a preemptions=2871 kills=0 "
     "checkpoints=2871 incremental=2300 periodic=0 periodic_failures=0 "
     "dumps_deferred=0 dump_defer_time=0 local_restores=541 "
     "remote_restores=2351 scratch_restarts=0 capacity_kills=0 "
     "dump_time=4565426005 restore_time=15292157769 "
     "io_overhead=0.072756518832495093 peak_ckpt_bytes=207271458316 "
     "ckpt_bytes_written=570642160722 makespan=42090905305 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=8162 "
     "node_failures=2 interrupted=58 images_lost=0 images_survived=63 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    {"ServicesInterferencePeriodic",
     "wasted_ch=90.043707094518211 lost_ch=13.61365095395834 "
     "overhead_ch=76.430056140554584 busy_ch=842.1641855005555 "
     "energy_kwh=20.660691721390577 job_rt0.n=63 "
     "job_rt0.sum=1263433.7575639999 job_rt0.fnv=dc8c98fdbf740a4e "
     "task_rt0.n=1293 task_rt0.sum=28406505.865635015 "
     "task_rt0.fnv=00a458ee661d3c48 job_rt1.n=52 "
     "job_rt1.sum=148884.158983 job_rt1.fnv=26b05ad45ad6c7e9 "
     "task_rt1.n=979 task_rt1.sum=3648736.099545999 "
     "task_rt1.fnv=1723b4bfc3742b70 job_rt2.n=5 "
     "job_rt2.sum=14871.041697000001 job_rt2.fnv=3a1637373ba2fd96 "
     "task_rt2.n=93 task_rt2.sum=250295.33602400008 "
     "task_rt2.fnv=e450178d244e1d97 job_rt.n=120 "
     "job_rt.sum=1427188.9582440001 job_rt.fnv=ed5052a698e8e4a5 "
     "preemptions=715 kills=435 checkpoints=280 incremental=150 "
     "periodic=12942 periodic_failures=0 dumps_deferred=0 "
     "dump_defer_time=0 local_restores=185 remote_restores=385 "
     "scratch_restarts=156 capacity_kills=160 dump_time=329397268980 "
     "restore_time=25841664511 io_overhead=0.34970956652736346 "
     "peak_ckpt_bytes=768034239877 ckpt_bytes_written=11979859488182 "
     "makespan=47941476948 jobs=120 tasks=2365 replicas_retired=5 "
     "service_preemptions=3 cold_starts=4 slo_s=2910 slo_preempt_s=2910 "
     "slo_organic_s=0 decisions=3855 node_failures=2 interrupted=55 "
     "images_lost=29 images_survived=31 dump_failures=0 "
     "restore_failures=0 failure_kills=0 faults=0"},
    {"StorageNodeAlwaysLocal",
     "wasted_ch=4.6294931845833176 lost_ch=3.6240368877083329 "
     "overhead_ch=1.005456296874994 busy_ch=773.43424953361114 "
     "energy_kwh=19.94602590459132 job_rt0.n=63 "
     "job_rt0.sum=1028423.5072720002 job_rt0.fnv=a4cd19913412caa4 "
     "task_rt0.n=1293 task_rt0.sum=22900775.695242997 "
     "task_rt0.fnv=bdc467a86649498d job_rt1.n=52 "
     "job_rt1.sum=114716.51960599999 job_rt1.fnv=3f5ba423adb26238 "
     "task_rt1.n=979 task_rt1.sum=2653757.5107349991 "
     "task_rt1.fnv=ccda1a427f8e5577 job_rt2.n=5 "
     "job_rt2.sum=12647.049149999999 job_rt2.fnv=300f7b7b2d7843db "
     "task_rt2.n=93 task_rt2.sum=239611.2510410001 "
     "task_rt2.fnv=17824fa5237c8311 job_rt.n=120 "
     "job_rt.sum=1155787.0760280001 job_rt.fnv=2217b9532c27b657 "
     "preemptions=898 kills=0 checkpoints=898 incremental=556 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=900 remote_restores=0 scratch_restarts=0 "
     "capacity_kills=0 dump_time=2173973272 restore_time=4221299128 "
     "io_overhead=0.022117159404885466 peak_ckpt_bytes=142992369628 "
     "ckpt_bytes_written=271735376590 makespan=41307761369 jobs=120 "
     "tasks=2365 replicas_retired=0 service_preemptions=0 cold_starts=0 "
     "slo_s=0 slo_preempt_s=0 slo_organic_s=0 decisions=4189 "
     "node_failures=2 interrupted=28 images_lost=0 images_survived=28 "
     "dump_failures=0 restore_failures=0 failure_kills=0 faults=0"},
    // The index-off cells, recorded from the scheduler with the
    // release-epoch stamp.
    {"KillDfsIndexOff",
     "wasted_ch=50.319335857777787 lost_ch=50.319335857777787 "
     "overhead_ch=0 busy_ch=820.12954863361108 "
     "energy_kwh=19.248874703976828 job_rt0.n=63 "
     "job_rt0.sum=1135133.0017150005 job_rt0.fnv=158d927bbb8af4c0 "
     "task_rt0.n=1293 task_rt0.sum=25179998.025924031 "
     "task_rt0.fnv=6a0f6044a28575c9 job_rt1.n=52 "
     "job_rt1.sum=114399.412008 job_rt1.fnv=a265db1626c2a8b4 "
     "task_rt1.n=979 task_rt1.sum=2706458.7702910001 "
     "task_rt1.fnv=12c233f26bdfd8a0 job_rt2.n=5 "
     "job_rt2.sum=20690.088052999999 job_rt2.fnv=95fa62ce7a767104 "
     "task_rt2.n=93 task_rt2.sum=250940.39454200002 "
     "task_rt2.fnv=a25a6c21f8b44b50 job_rt.n=120 "
     "job_rt.sum=1270222.5017760005 job_rt.fnv=9956206457c420b4 "
     "preemptions=373 kills=373 checkpoints=0 incremental=0 periodic=0 "
     "periodic_failures=0 dumps_deferred=0 dump_defer_time=0 "
     "local_restores=0 remote_restores=0 scratch_restarts=373 "
     "capacity_kills=0 dump_time=0 restore_time=0 io_overhead=0 "
     "peak_ckpt_bytes=0 ckpt_bytes_written=0 makespan=42953216918 "
     "jobs=120 tasks=2365 replicas_retired=0 service_preemptions=0 "
     "cold_starts=0 slo_s=0 slo_preempt_s=0 slo_organic_s=0 "
     "decisions=3169 node_failures=2 interrupted=58 images_lost=0 "
     "images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
    {"AdaptiveDfsIndexOff",
     "wasted_ch=12.045734368541625 lost_ch=11.033023747361113 "
     "overhead_ch=1.0127106211805486 busy_ch=780.84323640472223 "
     "energy_kwh=18.509736043634625 job_rt0.n=63 "
     "job_rt0.sum=1052634.4522769998 job_rt0.fnv=3f15d7e0592461ea "
     "task_rt0.n=1293 task_rt0.sum=23421944.653501019 "
     "task_rt0.fnv=65f401437c5b245a job_rt1.n=52 "
     "job_rt1.sum=106743.92019300001 job_rt1.fnv=1792846af9db0e04 "
     "task_rt1.n=979 task_rt1.sum=2459006.5676329993 "
     "task_rt1.fnv=e07bc1c409fb2726 job_rt2.n=5 "
     "job_rt2.sum=16138.911178 job_rt2.fnv=f5d4351f2cf169a5 "
     "task_rt2.n=93 task_rt2.sum=246489.58662399996 "
     "task_rt2.fnv=7c49423d43a7e315 job_rt.n=120 "
     "job_rt.sum=1175517.2836479999 job_rt.fnv=400b98718d24fcab "
     "preemptions=870 kills=123 checkpoints=747 incremental=377 "
     "periodic=0 periodic_failures=0 dumps_deferred=0 "
     "dump_defer_time=0 local_restores=478 remote_restores=405 "
     "scratch_restarts=5 capacity_kills=0 dump_time=2182672898 "
     "restore_time=3838088807 io_overhead=0.023201312987000865 "
     "peak_ckpt_bytes=139578333711 ckpt_bytes_written=272824724796 "
     "makespan=41679641279 jobs=120 tasks=2365 replicas_retired=0 "
     "service_preemptions=0 cold_starts=0 slo_s=0 slo_preempt_s=0 "
     "slo_organic_s=0 decisions=4159 node_failures=2 interrupted=54 "
     "images_lost=0 images_survived=35 dump_failures=0 "
     "restore_failures=0 failure_kills=0 faults=0"},
    // Kill policy with a 30 s resubmit delay, recorded from the scheduler
    // before the preemption side of the index kept releasable sums: killed
    // victims must wait out their backoff.
    {"KillResubmitDelay",
     "wasted_ch=52.011219041041642 lost_ch=52.011219041041642 "
     "overhead_ch=0 busy_ch=821.82143181944446 "
     "energy_kwh=19.281474136388542 job_rt0.n=63 "
     "job_rt0.sum=1136475.789318 job_rt0.fnv=882e4721a60b6bcb "
     "task_rt0.n=1293 task_rt0.sum=25215962.812924016 "
     "task_rt0.fnv=bf85cd7e09397612 job_rt1.n=52 job_rt1.sum=115360.367122 "
     "job_rt1.fnv=4dc20281b1b3a1ec task_rt1.n=979 "
     "task_rt1.sum=2732671.6565789981 task_rt1.fnv=97b84b75b6f34f6b "
     "job_rt2.n=5 job_rt2.sum=20574.618926000003 "
     "job_rt2.fnv=9317ef1e2f65f597 task_rt2.n=93 "
     "task_rt2.sum=250154.28849600005 task_rt2.fnv=ea02542e11c817c6 "
     "job_rt.n=120 job_rt.sum=1272410.7753659997 "
     "job_rt.fnv=cb9931fc21527df4 preemptions=368 kills=368 checkpoints=0 "
     "incremental=0 periodic=0 periodic_failures=0 dumps_deferred=0 "
     "dump_defer_time=0 local_restores=0 remote_restores=0 "
     "scratch_restarts=368 capacity_kills=0 dump_time=0 restore_time=0 "
     "io_overhead=0 peak_ckpt_bytes=0 ckpt_bytes_written=0 "
     "makespan=43011355832 jobs=120 tasks=2365 replicas_retired=0 "
     "service_preemptions=0 cold_starts=0 slo_s=0 slo_preempt_s=0 "
     "slo_organic_s=0 decisions=3162 node_failures=2 interrupted=61 "
     "images_lost=0 images_survived=0 dump_failures=0 restore_failures=0 "
     "failure_kills=0 faults=0"},
};

class SchedulerGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(SchedulerGolden, EveryResultFieldMatchesTheRecording) {
  ExpectGoldenLine(kGolden, GetParam().name,
                   Fields(RunCell(GetParam(), nullptr)));
}

TEST_P(SchedulerGolden, TracedRunMatchesTheRecording) {
  Observability obs;
  ExpectGoldenLine(kGolden, GetParam().name,
                   Fields(RunCell(GetParam(), &obs)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerGolden,
    ::testing::Values(
        GoldenCell{"WaitDfs", PreemptionPolicy::kWait, Images::kDfsAdaptive},
        GoldenCell{"WaitAlwaysLocal", PreemptionPolicy::kWait,
                   Images::kDfsAlwaysLocal},
        GoldenCell{"WaitLocalOnly", PreemptionPolicy::kWait,
                   Images::kLocalOnly},
        GoldenCell{"KillDfs", PreemptionPolicy::kKill, Images::kDfsAdaptive},
        GoldenCell{"KillAlwaysLocal", PreemptionPolicy::kKill,
                   Images::kDfsAlwaysLocal},
        GoldenCell{"KillLocalOnly", PreemptionPolicy::kKill,
                   Images::kLocalOnly},
        GoldenCell{"CheckpointDfs", PreemptionPolicy::kCheckpoint,
                   Images::kDfsAdaptive},
        GoldenCell{"CheckpointAlwaysLocal", PreemptionPolicy::kCheckpoint,
                   Images::kDfsAlwaysLocal},
        GoldenCell{"CheckpointLocalOnly", PreemptionPolicy::kCheckpoint,
                   Images::kLocalOnly},
        GoldenCell{"AdaptiveDfs", PreemptionPolicy::kAdaptive,
                   Images::kDfsAdaptive},
        GoldenCell{"AdaptiveAlwaysLocal", PreemptionPolicy::kAdaptive,
                   Images::kDfsAlwaysLocal},
        GoldenCell{"AdaptiveLocalOnly", PreemptionPolicy::kAdaptive,
                   Images::kLocalOnly},
        GoldenCell{"LatencyGuard", PreemptionPolicy::kAdaptive,
                   Images::kDfsAdaptive, /*latency_guard=*/true},
        GoldenCell{"ResubmitDelay", PreemptionPolicy::kCheckpoint,
                   Images::kDfsAdaptive, false, /*resubmit_delay=*/true},
        GoldenCell{"ServicesInterferencePeriodic", PreemptionPolicy::kAdaptive,
                   Images::kDfsAdaptive, false, false, /*services=*/true},
        GoldenCell{"StorageNodeAlwaysLocal", PreemptionPolicy::kCheckpoint,
                   Images::kDfsAlwaysLocal, false, false, false,
                   /*storage_node=*/true},
        GoldenCell{"KillDfsIndexOff", PreemptionPolicy::kKill,
                   Images::kDfsAdaptive, false, false, false, false,
                   /*index_off=*/true},
        GoldenCell{"AdaptiveDfsIndexOff", PreemptionPolicy::kAdaptive,
                   Images::kDfsAdaptive, false, false, false, false,
                   /*index_off=*/true},
        GoldenCell{"KillResubmitDelay", PreemptionPolicy::kKill,
                   Images::kDfsAdaptive, false, /*resubmit_delay=*/true}),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ckpt
