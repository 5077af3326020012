// ckpt_bench — one benchmark cell per process.
//
// A cell generates one workload from (--workload, --seed, --scale), hands
// the library only the generated inputs (a Workload or WorkloadStream,
// ServiceSpecs, node-crash injections), builds everything else from library
// defaults plus the workload's stated options, and times each call into a
// layer's public entry point from the outside: generation, Cluster::AddNodes
// plus scheduler construction, Submit*, Run/RunWorkload, and — in a traced
// cell — Observability::FinalizeRun, each Write*, and ckpt-report over the
// written artifacts. The spans stay in memory and are printed at exit,
// together with every simulated result field and their digest, as one JSON
// object on the last line of stdout. benchmark/run.py drives the cells.
//
//   ckpt_bench --workload=NAME --seed=N [--scale=F] [--cell=ID]
//              [--traced --out=DIR --report=PATH | --setup-only]
//   ckpt_bench --probes --workload=NAME --seed=N [--scale=F]
//
// --setup-only stops after Submit (more cold set-up samples per run);
// --probes times single layers' public functions on synthetic inputs shaped
// like the workload (see RunProbes) instead of running a simulation.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "checkpoint/dump_scheduler.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "scheduler/feasibility_index.h"
#include "service/service_workload.h"
#include "sim/simulator.h"
#include "storage/bandwidth_domain.h"
#include "storage/storage_device.h"
#include "trace/facebook_workload.h"
#include "trace/google_trace.h"
#include "trace/workload_stream.h"
#include "yarn/yarn_cluster.h"

extern char** environ;

namespace {

using namespace ckpt;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set of `pid`'s current address space (VmHWM), in MB; 0 when
// unreadable. Not ru_maxrss: the kernel carries the spawning process's peak
// across exec into it, so a cell started by run.py, or ckpt-report started
// by a traced cell, would report its parent's footprint.
double PeakRssMb(const std::string& pid = "self") {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Full-precision JSON number.
template <typename T>
std::string Num(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(v));
    return buf;
  }
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// --- Host-time spans ---------------------------------------------------------

// Spans at layer boundaries, kept in memory and printed at exit. Parents are
// the innermost span open when a span begins; AddAggregate attaches a child
// whose duration is a sum measured elsewhere (the scheduler's self-profile),
// laid out from its parent's start.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;
    double dur = 0;
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      id_ = spans_->Begin(std::move(name));
    }
    ~Scope() { spans_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

  int Begin(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = SecondsSince(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.dur = SecondsSince(origin_) - span.start;
    open_.pop_back();
  }

  void AddAggregate(std::string name, const std::string& parent, double dur) {
    const int p = Find(parent);
    if (p < 0) return;
    spans_.push_back(
        {std::move(name), p, spans_[static_cast<size_t>(p)].start, dur});
  }

  // Chrome trace_event objects (ph "X", microseconds); every span carries
  // the cell id and its parent's name.
  std::string ChromeEvents(const std::string& cell) const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"name\":" + Quote(s.name) +
             ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             Num(s.start * 1e6) + ",\"dur\":" + Num(s.dur * 1e6) +
             ",\"args\":{\"cell\":" + Quote(cell) + ",\"parent\":" +
             Quote(s.parent < 0 ? ""
                                : spans_[static_cast<size_t>(s.parent)].name) +
             "}}";
    }
    return out + "]";
  }

 private:
  int Find(const std::string& name) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Workloads ---------------------------------------------------------------

enum class Kind { kTraceDay, kScaleBurst, kColocatedFaults, kYarnFb };

struct WorkloadDef {
  const char* name;
  Kind kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"trace_day", Kind::kTraceDay},
    {"scale_burst", Kind::kScaleBurst},
    {"colocated_faults", Kind::kColocatedFaults},
    {"yarn_fb", Kind::kYarnFb},
};

constexpr double kCoresPerNode = 16.0;
constexpr double kTargetUtil = 0.9;

// Input sizes at --scale=1: a third to a half of the paper-size inputs, so
// one 30-second run holds several fresh-process cells of each kind. --scale=3
// gives the paper's full 15 000-job day for trace_day.
constexpr int kTraceDayJobs = 5000;
constexpr int kBurstNodes = 30000;
constexpr int kBurstTasksPerNode = 8;
constexpr int kColocatedJobs = 2500;
constexpr int kYarnJobs = 100;
constexpr int kYarnTasks = 17500;

int Scaled(double full, double scale) {
  return std::max(1, static_cast<int>(std::lround(full * scale)));
}

// Nodes that run `cores` of average demand at `kTargetUtil` utilization.
int NodesForCores(double cores) {
  return std::max(1, static_cast<int>(
                         cores / (kTargetUtil * kCoresPerNode) + 0.999));
}

// Nodes for a batch workload to run at `kTargetUtil` average utilization
// over its arrival span (at least a day), so peaks force preemption.
int NodesForWorkload(const Workload& workload) {
  double core_seconds = 0;
  SimTime span = kDay;
  for (const JobSpec& job : workload.jobs) {
    for (const TaskSpec& task : job.tasks) {
      core_seconds += ToSeconds(task.duration) * task.demand.cpus;
    }
    span = std::max(span, job.submit_time);
  }
  return NodesForCores(core_seconds / ToSeconds(span));
}

// The ~2x-oversubscribed arrival burst of bench_scale: 8 tasks per node
// arriving within 15 minutes, 70/10/20% free/middle/production jobs of ten
// 5-15 minute tasks. Copyable sequential state, as SnapshotStream requires.
struct BurstGen {
  std::int64_t total_tasks;
  Rng rng;
  std::int64_t next_task = 0;
  std::int64_t j = 0;

  static constexpr int kTasksPerJob = 10;

  std::int64_t TotalJobs() const {
    return (total_tasks + kTasksPerJob - 1) / kTasksPerJob;
  }
  bool Done() const { return j >= TotalJobs(); }

  static Resources Demand(Rng& rng) {
    const double cpus = static_cast<double>(rng.UniformInt(1, 3)) * 2.0;
    return Resources{cpus, static_cast<Bytes>(cpus) * GiB(4)};
  }

  JobSpec Next() {
    JobSpec job;
    job.id = JobId(j);
    job.submit_time = Seconds(rng.Uniform(0.0, 900.0));
    const double band_draw = rng.Uniform();
    if (band_draw < 0.7) {
      job.priority = static_cast<int>(rng.UniformInt(0, 1));
    } else if (band_draw < 0.8) {
      job.priority = static_cast<int>(rng.UniformInt(2, 8));
    } else {
      job.priority = static_cast<int>(rng.UniformInt(9, 11));
    }
    const int count = static_cast<int>(
        std::min<std::int64_t>(kTasksPerJob, total_tasks - next_task));
    job.tasks.reserve(static_cast<size_t>(count));
    for (int t = 0; t < count; ++t) {
      TaskSpec task;
      task.id = TaskId(next_task++);
      task.job = job.id;
      task.duration = Seconds(rng.Uniform(300.0, 900.0));
      task.demand = Demand(rng);
      task.priority = job.priority;
      task.latency_class = static_cast<int>(rng.UniformInt(0, 1));
      task.memory_write_rate = rng.Uniform(0.005, 0.02);
      job.tasks.push_back(task);
    }
    ++j;
    return job;
  }
};

// Everything the library receives from the benchmark for one cell.
struct Inputs {
  Workload workload;
  std::unique_ptr<WorkloadStream> stream;
  std::vector<ServiceSpec> services;
  std::vector<NodeCrashEvent> crashes;
  int nodes = 0;
  std::int64_t batch_tasks = 0;
};

// The trace generators run at their default seeds, which are the paper's
// inputs (the Google day of the figure benches, the Facebook mix of the YARN
// benches); `seed` jitters every job's arrival by up to +-`max_s`. Another
// seed thus replays the same jobs with perturbed timing — a held-out input
// for the same experiment — rather than a fresh heavy-tailed job mix, whose
// simulation cost moves by 10-50% from draw to draw.
Workload JitterArrivals(Workload workload, std::uint64_t seed, double max_s) {
  Rng rng(seed ^ 0x3177ull);
  for (JobSpec& job : workload.jobs) {
    job.submit_time = std::max<SimTime>(
        0, job.submit_time + Seconds(rng.Uniform(-max_s, max_s)));
  }
  workload.SortBySubmitTime();
  return workload;
}

Workload GoogleDay(std::uint64_t seed, int jobs) {
  GoogleTraceConfig config;
  config.sample_jobs = jobs;
  return JitterArrivals(GoogleTraceGenerator(config).GenerateWorkloadSample(),
                        seed, 300);
}

// Production bursts arrive every 500 s with up to 30 s of their own jitter.
Workload YarnFb(std::uint64_t seed, double scale) {
  FacebookWorkloadConfig config;
  config.total_jobs = Scaled(kYarnJobs, scale);
  config.total_tasks = Scaled(kYarnTasks, scale);
  config.cluster_containers = 192;
  return JitterArrivals(GenerateFacebookWorkload(config), seed, 30);
}

Inputs Generate(Kind kind, std::uint64_t seed, double scale) {
  Inputs in;
  switch (kind) {
    case Kind::kTraceDay:
      in.workload = GoogleDay(seed, Scaled(kTraceDayJobs, scale));
      in.nodes = NodesForWorkload(in.workload);
      break;
    case Kind::kScaleBurst: {
      in.nodes = Scaled(kBurstNodes, scale);
      in.stream = std::make_unique<SnapshotStream<BurstGen>>(BurstGen{
          static_cast<std::int64_t>(in.nodes) * kBurstTasksPerNode, Rng(seed)});
      in.batch_tasks = in.stream->TotalTasks();
      return in;
    }
    case Kind::kColocatedFaults: {
      in.workload = GoogleDay(seed, Scaled(kColocatedJobs, scale));
      ServiceFleetConfig fleet;
      fleet.services = 4;
      fleet.seed = seed ^ 0x5e41ce5ull;
      in.services = GenerateServiceFleet(fleet);
      double service_cores = 0;
      for (const ServiceSpec& spec : in.services) {
        service_cores += spec.replicas * spec.demand.cpus;
      }
      in.nodes = NodesForWorkload(in.workload) + NodesForCores(service_cores);
      // One 30-minute crash per hour for 20 hours on seed-drawn nodes.
      Rng rng(seed ^ 0xc7a5ull);
      for (int hour = 1; hour <= 20; ++hour) {
        const NodeId node(rng.UniformInt(0, in.nodes - 1));
        in.crashes.push_back({node, Hours(hour), Minutes(30)});
      }
      break;
    }
    case Kind::kYarnFb:
      in.workload = YarnFb(seed, scale);
      in.nodes = 8;
      break;
  }
  in.batch_tasks = in.workload.TotalTasks();
  return in;
}

// --- Result fields and digest ------------------------------------------------

using Fields = std::vector<std::pair<std::string, double>>;

void AddStats(Fields* f, const std::string& prefix, const SummaryStats& s) {
  f->emplace_back(prefix + ".count", s.count());
  f->emplace_back(prefix + ".sum", s.sum());
  f->emplace_back(prefix + ".min", s.Min());
  f->emplace_back(prefix + ".max", s.Max());
  f->emplace_back(prefix + ".p50", s.Quantile(0.5));
  f->emplace_back(prefix + ".p95", s.Quantile(0.95));
}

Fields ClusterFields(const SimulationResult& r) {
  Fields f;
  auto add = [&f](const char* name, auto v) {
    f.emplace_back(name, static_cast<double>(v));
  };
  add("wasted_core_hours", r.wasted_core_hours);
  add("lost_work_core_hours", r.lost_work_core_hours);
  add("overhead_core_hours", r.overhead_core_hours);
  add("total_busy_core_hours", r.total_busy_core_hours);
  add("energy_kwh", r.energy_kwh);
  for (size_t b = 0; b < 3; ++b) {
    AddStats(&f, "job_response_band" + std::to_string(b),
             r.job_response_by_band[b]);
    AddStats(&f, "task_response_band" + std::to_string(b),
             r.task_response_by_band[b]);
  }
  AddStats(&f, "job_response", r.all_job_responses);
  add("preemptions", r.preemptions);
  add("kills", r.kills);
  add("checkpoints", r.checkpoints);
  add("incremental_checkpoints", r.incremental_checkpoints);
  add("periodic_checkpoints", r.periodic_checkpoints);
  add("periodic_checkpoint_failures", r.periodic_checkpoint_failures);
  add("dumps_deferred", r.dumps_deferred);
  add("dump_defer_time_s", ToSeconds(r.dump_defer_time));
  add("local_restores", r.local_restores);
  add("remote_restores", r.remote_restores);
  add("restarts_from_scratch", r.restarts_from_scratch);
  add("capacity_fallback_kills", r.capacity_fallback_kills);
  add("total_dump_time_s", ToSeconds(r.total_dump_time));
  add("total_restore_time_s", ToSeconds(r.total_restore_time));
  add("io_overhead_fraction", r.io_overhead_fraction);
  add("peak_checkpoint_bytes", r.peak_checkpoint_bytes);
  add("total_checkpoint_bytes_written", r.total_checkpoint_bytes_written);
  add("makespan_s", ToSeconds(r.makespan));
  add("jobs_completed", r.jobs_completed);
  add("tasks_completed", r.tasks_completed);
  add("service_replicas_retired", r.service_replicas_retired);
  add("service_preemptions", r.service_preemptions);
  add("service_cold_starts", r.service_cold_starts);
  add("slo_violation_seconds", r.slo_violation_seconds);
  add("slo_violation_preempt_seconds", r.slo_violation_preempt_seconds);
  add("slo_violation_organic_seconds", r.slo_violation_organic_seconds);
  add("sched_decisions", r.sched_decisions);
  add("node_failures", r.node_failures);
  add("tasks_interrupted_by_failure", r.tasks_interrupted_by_failure);
  add("images_lost_to_failure", r.images_lost_to_failure);
  add("images_survived_failure", r.images_survived_failure);
  add("dump_failures", r.dump_failures);
  add("restore_failures", r.restore_failures);
  add("checkpoint_failure_fallback_kills", r.checkpoint_failure_fallback_kills);
  add("faults_injected", r.faults_injected);
  return f;
}

Fields YarnFields(const YarnResult& r, YarnCluster& yarn) {
  Fields f;
  auto add = [&f](const char* name, auto v) {
    f.emplace_back(name, static_cast<double>(v));
  };
  add("wasted_core_hours", r.wasted_core_hours);
  add("lost_work_core_hours", r.lost_work_core_hours);
  add("overhead_core_hours", r.overhead_core_hours);
  add("total_busy_core_hours", r.total_busy_core_hours);
  add("energy_kwh", r.energy_kwh);
  AddStats(&f, "job_response_low", r.low_priority_job_responses);
  AddStats(&f, "job_response_high", r.high_priority_job_responses);
  AddStats(&f, "job_response", r.all_job_responses);
  double task_sum = 0;
  for (double x : r.all_task_responses) task_sum += x;
  add("task_response.count", r.all_task_responses.size());
  add("task_response.sum", task_sum);
  add("checkpoint_cpu_overhead", r.checkpoint_cpu_overhead);
  add("io_overhead_fraction", r.io_overhead);
  add("storage_used_fraction", r.storage_used_fraction);
  add("preempt_events", r.preempt_events);
  add("kills", r.kills);
  add("checkpoints", r.checkpoints);
  add("incremental_checkpoints", r.incremental_checkpoints);
  add("restores", r.restores);
  add("remote_restores", r.remote_restores);
  add("jobs_completed", r.jobs_completed);
  add("tasks_completed", r.tasks_completed);
  add("makespan_s", ToSeconds(r.makespan));
  add("node_failures", r.node_failures);
  add("containers_lost", r.containers_lost);
  add("dump_failures", r.dump_failures);
  add("restore_failures", r.restore_failures);
  add("fallback_kills", r.fallback_kills);
  add("checkpoint_retries", r.checkpoint_retries);
  add("corrupt_images", r.corrupt_images);
  add("blocks_rereplicated", r.blocks_rereplicated);
  add("dfs_files_lost", r.dfs_files_lost);
  add("faults_injected", r.faults_injected);
  add("goodput_core_hours", r.goodput_core_hours);
  // Engine-side totals: the page-level dump/restore path's own counters.
  const CheckpointEngine& engine = yarn.engine();
  add("engine_dumps", engine.dumps_completed());
  add("engine_incremental_dumps", engine.incremental_dumps());
  add("engine_restores", engine.restores_completed());
  add("engine_dump_retries", engine.dump_retries());
  add("engine_restore_retries", engine.restore_retries());
  add("engine_dump_bytes", engine.total_dump_bytes());
  add("engine_restore_bytes", engine.total_restore_bytes());
  add("engine_dump_time_s", ToSeconds(engine.total_dump_time()));
  add("engine_restore_time_s", ToSeconds(engine.total_restore_time()));
  return f;
}

// FNV-1a over "name=value;" at full precision, in field order.
std::string Digest(const Fields& fields) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : fields) {
    const std::string item = name + "=" + Num(value) + ";";
    for (unsigned char c : item) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- One simulation ----------------------------------------------------------

// Owns a cell's simulation objects so their destruction is timed as its own
// span after the artifacts are written.
struct Simulation {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ClusterScheduler> scheduler;
  std::unique_ptr<YarnCluster> yarn;
  std::int64_t events = 0;
  Fields fields;

  void Build(Kind kind, const Inputs& in, Observability* obs) {
    if (kind == Kind::kYarnFb) {
      YarnConfig config;
      config.num_nodes = in.nodes;
      config.containers_per_node = 24;
      config.policy = PreemptionPolicy::kAdaptive;
      config.medium = StorageMedium::Nvm();
      config.obs = obs;
      yarn = std::make_unique<YarnCluster>(config);
      return;
    }
    const StorageMedium medium = StorageMedium::Ssd();
    sim = std::make_unique<Simulator>();
    cluster = std::make_unique<Cluster>(sim.get());
    cluster->AddNodes(in.nodes, Resources{kCoresPerNode, GiB(64)}, medium);
    SchedulerConfig config;
    config.medium = medium;
    config.obs = obs;
    switch (kind) {
      case Kind::kTraceDay:
        config.policy = PreemptionPolicy::kAdaptive;
        config.resubmit_delay = Seconds(15);
        break;
      case Kind::kScaleBurst:
        config.policy = PreemptionPolicy::kKill;
        break;
      case Kind::kColocatedFaults:
        config.policy = PreemptionPolicy::kAdaptive;
        config.resubmit_delay = Seconds(15);
        config.interference.enabled = true;
        config.interference.shared_bw = MBps(600);
        config.dump_scheduler.policy = DumpPolicy::kInterferenceAware;
        config.dump_scheduler.min_share = MBps(50);
        config.dump_scheduler.max_defer = Minutes(20);
        config.periodic_ckpt_mtbf = Hours(2.0 * in.nodes);
        break;
      case Kind::kYarnFb:
        break;
    }
    scheduler =
        std::make_unique<ClusterScheduler>(sim.get(), cluster.get(), config);
  }

  void Submit(Inputs& in) {
    if (scheduler == nullptr) return;  // RunWorkload submits and runs
    if (in.stream != nullptr) {
      scheduler->SubmitStream(in.stream.get());
    } else {
      scheduler->Submit(in.workload);
    }
    if (!in.services.empty()) scheduler->SubmitServices(in.services);
    for (const NodeCrashEvent& crash : in.crashes) {
      scheduler->InjectNodeFailure(crash.node, crash.at, crash.down_for);
    }
  }

  void Run(const Inputs& in) {
    if (yarn != nullptr) {
      const YarnResult r = yarn->RunWorkload(in.workload);
      events = yarn->sim().EventsProcessed();
      fields = YarnFields(r, *yarn);
      return;
    }
    const SimulationResult r = scheduler->Run();
    events = sim->EventsProcessed();
    fields = ClusterFields(r);
  }

  void Teardown() {
    scheduler.reset();
    cluster.reset();
    sim.reset();
    yarn.reset();
  }
};

// --- ckpt-report -------------------------------------------------------------

struct ReportRun {
  int exit_code = -1;
  bool mismatch = false;
  double peak_rss_mb = 0;
};

// Run `report` over `artifacts` with stdout captured to `out_path`. The
// child's peak RSS is polled from /proc while it runs (VmHWM only grows, so
// the last reading misses at most the final poll interval).
ReportRun RunReport(const std::string& report,
                    const std::vector<std::string>& artifacts,
                    const std::string& out_path) {
  ReportRun run;
  std::vector<std::string> args{report};
  args.insert(args.end(), artifacts.begin(), artifacts.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, report.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    std::fprintf(stderr, "ckpt_bench: cannot start %s: %s\n", report.c_str(),
                 std::strerror(rc));
    return run;
  }
  int status = 0;
  for (;;) {
    run.peak_rss_mb = std::max(run.peak_rss_mb, PeakRssMb(std::to_string(pid)));
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) return run;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  std::ifstream in(out_path);
  std::stringstream text;
  text << in.rdbuf();
  run.mismatch = text.str().find("MISMATCH") != std::string::npos;
  return run;
}

// --- Options -----------------------------------------------------------------

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 2011;
  double scale = 1.0;
  std::string cell;
  bool traced = false;
  bool setup_only = false;
  bool probes = false;
  std::string out_dir;
  std::string report;
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) opt->workload = &w;
      }
      if (opt->workload == nullptr) return false;
    } else if (const char* v = value("--seed=")) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--scale=")) {
      opt->scale = std::strtod(v, nullptr);
      if (!(opt->scale > 0 && opt->scale <= 4)) return false;
    } else if (const char* v = value("--cell=")) {
      opt->cell = v;
    } else if (const char* v = value("--out=")) {
      opt->out_dir = v;
    } else if (const char* v = value("--report=")) {
      opt->report = v;
    } else if (arg == "--traced") {
      opt->traced = true;
    } else if (arg == "--setup-only") {
      opt->setup_only = true;
    } else if (arg == "--probes") {
      opt->probes = true;
    } else {
      return false;
    }
  }
  if (opt->workload == nullptr) return false;
  if (opt->traced && (opt->out_dir.empty() || opt->report.empty())) {
    return false;
  }
  if (opt->traced && opt->setup_only) return false;
  if (opt->cell.empty()) {
    opt->cell =
        std::string(opt->workload->name) + "/" + std::to_string(opt->seed);
  }
  return true;
}

// --- Cell --------------------------------------------------------------------

int RunCell(const Options& opt) {
  const Kind kind = opt.workload->kind;
  Spans spans;
  const int cell_span = spans.Begin("cell");
  auto inputs = std::make_unique<Inputs>();
  {
    Spans::Scope s(&spans, "trace.generate");
    *inputs = Generate(kind, opt.seed, opt.scale);
  }
  // Default capacities: the traced cell pays what a CKPT_OBS=1 run pays.
  std::unique_ptr<Observability> obs;
  if (opt.traced) obs = std::make_unique<Observability>();
  Simulation simulation;
  {
    Spans::Scope s(&spans, "cluster.build");
    simulation.Build(kind, *inputs, obs.get());
  }
  if (kind != Kind::kYarnFb) {
    Spans::Scope s(&spans, "scheduler.submit");
    simulation.Submit(*inputs);
  }
  if (!opt.setup_only) {
    Spans::Scope s(&spans, "scheduler.run");
    simulation.Run(*inputs);
  }

  std::string obs_json = "{}";
  std::string report_json = "{}";
  std::vector<std::string> artifacts;
  if (obs != nullptr) {
    if (kind != Kind::kYarnFb) {
      const double pass_s =
          obs->self_profile().slot("scheduler.pass")->wall_seconds;
      spans.AddAggregate("scheduler.pass", "scheduler.run", pass_s);
    }
    {
      Spans::Scope s(&spans, "obs.finalize");
      obs->FinalizeRun();
    }
    std::filesystem::create_directories(opt.out_dir);
    std::string base = opt.cell;
    std::replace(base.begin(), base.end(), '/', '.');
    base = opt.out_dir + "/" + base;
    const std::string metrics_path = base + ".metrics.json";
    const std::string audit_path = base + ".audit.jsonl";
    const std::string trace_path = base + ".trace.json";
    bool written = true;
    {
      Spans::Scope s(&spans, "obs.export.metrics");
      written &= obs->WriteMetricsJson(metrics_path);
    }
    {
      Spans::Scope s(&spans, "obs.export.audit");
      written &= obs->WriteAuditJsonl(audit_path);
    }
    {
      Spans::Scope s(&spans, "obs.export.trace");
      written &= obs->WriteChromeTrace(trace_path);
    }
    artifacts = {metrics_path, audit_path, trace_path};
    double export_bytes = 0;
    for (const std::string& path : artifacts) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec) export_bytes += static_cast<double>(size);
    }
    ReportRun report;
    {
      Spans::Scope s(&spans, "report.parse");
      report = RunReport(opt.report, artifacts, base + ".report.txt");
    }
    const Tracer& tracer = obs->tracer();
    const AuditLog& audit = obs->audit();
    obs_json = "{\"written\":" + std::string(written ? "true" : "false") +
               ",\"export_bytes\":" + Num(export_bytes) +
               ",\"trace_records\":" + Num(tracer.size()) +
               ",\"trace_dropped\":" + Num(tracer.dropped()) +
               ",\"audit_appended\":" + Num(audit.total_appended()) +
               ",\"audit_dropped\":" + Num(audit.dropped()) +
               ",\"metrics_path\":" + Quote(metrics_path) + "}";
    report_json = "{\"exit_code\":" + std::to_string(report.exit_code) +
                  ",\"mismatch\":" + (report.mismatch ? "true" : "false") +
                  ",\"peak_rss_mb\":" + Num(report.peak_rss_mb) + "}";
  }

  const std::int64_t events = simulation.events;
  const Fields fields = std::move(simulation.fields);
  const std::int64_t batch_tasks = inputs->batch_tasks;
  const int nodes = inputs->nodes;
  {
    Spans::Scope s(&spans, "sim.teardown");
    simulation.Teardown();
    obs.reset();
    inputs.reset();
    // The trace and audit artifacts are large; run.py reads only the
    // metrics snapshot and the report text.
    for (size_t i = 1; i < artifacts.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(artifacts[i], ec);
    }
  }
  spans.End(cell_span);
  const double peak_rss_mb = PeakRssMb();  // a high-water mark: teardown-proof

  std::string result = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) result += ",";
    result += Quote(fields[i].first) + ":" + Num(fields[i].second);
  }
  result += "}";
  std::printf(
      "{\"mode\":%s,\"workload\":%s,\"seed\":%llu,\"scale\":%s,\"cell\":%s,"
      "\"nodes\":%d,\"batch_tasks\":%lld,\"events\":%lld,"
      "\"peak_rss_mb\":%s,\"digest\":%s,\"result\":%s,\"obs\":%s,"
      "\"report\":%s,\"spans\":%s}\n",
      Quote(opt.traced ? "traced" : opt.setup_only ? "setup" : "plain").c_str(),
      Quote(opt.workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed), Num(opt.scale).c_str(),
      Quote(opt.cell).c_str(), nodes, static_cast<long long>(batch_tasks),
      static_cast<long long>(events),
      Num(peak_rss_mb).c_str(), Quote(Digest(fields)).c_str(), result.c_str(),
      obs_json.c_str(), report_json.c_str(),
      spans.ChromeEvents(opt.cell).c_str());
  return 0;
}

// --- Layer probes ------------------------------------------------------------

// Probe results feed this so the timed loops cannot be optimized away.
volatile std::size_t g_sink = 0;

// Probe operation counts shrink with --scale (smoke runs) down to a floor.
int Ops(int full, double scale) {
  return std::max(full / 20, static_cast<int>(full * scale));
}

template <typename F>
double MedianSeconds(int reps, F&& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    samples.push_back(SecondsSince(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Self-rescheduling event with a 48-byte capture: the event core's
// steady state (a standing queue of pending timers, each firing scheduling
// its successor a short random delay later).
struct Rearm {
  Simulator* sim;
  std::int64_t* fired;
  std::int64_t limit;
  std::uint64_t state;
  std::uint64_t pad0;
  std::uint64_t pad1;

  void operator()() {
    if (++*fired >= limit) return;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    Rearm next = *this;
    sim->ScheduleAfter(1 + static_cast<SimDuration>(state >> 54), next);
  }
};
static_assert(sizeof(Rearm) == 48);

double ProbeSimulatorNsPerEvent(std::uint64_t seed, double scale) {
  const std::int64_t total_events = Ops(2'000'000, scale);
  constexpr int kStanding = 10'000;
  double events = 0;
  const double secs = MedianSeconds(3, [&] {
    Simulator sim;
    std::int64_t fired = 0;
    Rng rng(seed);
    for (int i = 0; i < kStanding; ++i) {
      sim.ScheduleAt(rng.UniformInt(0, 1000),
                     Rearm{&sim, &fired, total_events, rng.engine()(), 0, 0});
    }
    sim.Run();
    events = static_cast<double>(sim.EventsProcessed());
  });
  return secs * 1e9 / events;
}

using DemandSampler = std::function<std::pair<Resources, int>(Rng&)>;

DemandSampler SamplerFor(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::kScaleBurst:
      return [](Rng& rng) {
        return std::make_pair(BurstGen::Demand(rng),
                              static_cast<int>(rng.UniformInt(0, 11)));
      };
    case Kind::kYarnFb:
      return [](Rng& rng) {
        return std::make_pair(Resources{1.0, GiB(2)},
                              rng.Bernoulli(0.5) ? 9 : 1);
      };
    default: {
      GoogleTraceConfig config;
      config.seed = seed;
      auto gen = std::make_shared<GoogleTraceGenerator>(config);
      return [gen](Rng& rng) {
        const int priority = gen->SamplePriority(rng);
        return std::make_pair(gen->SampleDemand(rng, priority), priority);
      };
    }
  }
}

// FeasibilityIndex at the workload's leaf count: random per-leaf free and
// releasable vectors, queried with demands drawn like the workload's tasks.
std::pair<double, double> ProbeIndexNs(Kind kind, int leaves,
                                       std::uint64_t seed, double scale) {
  const Resources capacity = kind == Kind::kYarnFb
                                 ? Resources{24.0, GiB(48)}
                                 : Resources{kCoresPerNode, GiB(64)};
  Rng rng(seed ^ 0x1de7ull);
  auto memory = [&capacity](double share) {
    return static_cast<Bytes>(static_cast<double>(capacity.memory) * share);
  };
  auto random_leaf = [&rng, &capacity, &memory] {
    FeasibilityAgg agg;
    const double used = rng.Uniform();
    agg.place = Resources{capacity.cpus * (1 - used),
                          memory((1 - used) * rng.Uniform())};
    // More of the running work is releasable to a higher-priority demand.
    for (size_t p = 0; p < FeasibilityAgg::kPriorities; ++p) {
      const double share = used * static_cast<double>(p) / 11.0;
      agg.preempt[p] = Resources{agg.place.cpus + capacity.cpus * share,
                                 agg.place.memory + memory(share)};
    }
    return agg;
  };
  FeasibilityIndex index;
  index.Reset(static_cast<size_t>(leaves));
  for (size_t i = 0; i < static_cast<size_t>(leaves); ++i) {
    index.Update(i, random_leaf());
  }

  const int ops = Ops(200'000, scale);
  std::vector<FeasibilityAgg> updates;
  std::vector<size_t> slots;
  for (int i = 0; i < 4096; ++i) {
    updates.push_back(random_leaf());
    slots.push_back(static_cast<size_t>(rng.UniformInt(0, leaves - 1)));
  }
  const double update_s = MedianSeconds(3, [&] {
    for (int i = 0; i < ops; ++i) {
      index.Update(slots[static_cast<size_t>(i) % slots.size()],
                   updates[static_cast<size_t>(i) % updates.size()]);
    }
  });

  const DemandSampler sample = SamplerFor(kind, seed);
  std::vector<std::pair<Resources, int>> demands;
  for (int i = 0; i < 4096; ++i) demands.push_back(sample(rng));
  const double query_s = MedianSeconds(3, [&] {
    size_t cursor = 0;
    for (int i = 0; i < ops; ++i) {
      const auto& [demand, priority] =
          demands[static_cast<size_t>(i) % demands.size()];
      const size_t hit = (i & 1) == 0
          ? index.FindPlace(cursor, demand, [](size_t) { return true; })
          : index.FindPreempt(cursor, static_cast<size_t>(priority), demand,
                              [](size_t) { return true; });
      g_sink = g_sink + hit;
      cursor = (cursor + 7919) % static_cast<size_t>(leaves);
    }
  });
  return {query_s * 1e9 / ops, update_s * 1e9 / ops};
}

// BandwidthDomain churn: `concurrent` flows in flight, each completion
// starting a replacement, until `total` flows have drained.
double ProbeBandwidthNs(int concurrent, std::uint64_t seed, double scale) {
  const int total = Ops(concurrent >= 256 ? 20'000 : 100'000, scale);
  const double secs = MedianSeconds(3, [&] {
    Simulator sim;
    BandwidthDomain domain(&sim, "probe", GBps(1));
    Rng rng(seed ^ 0xb4ull);
    int started = 0;
    std::function<void()> start = [&] {
      if (started >= total) return;
      ++started;
      domain.StartFlow(static_cast<Bytes>(rng.Uniform(64.0, 1024.0) * kMiB),
                       [&start] { start(); });
    };
    for (int i = 0; i < concurrent; ++i) start();
    sim.Run();
  });
  return secs * 1e9 / total;
}

// DumpScheduler admission under colocated_faults' config: Poisson arrivals,
// Pareto-tailed image sizes, each admitted dump draining at the per-dump
// floor rate before Complete() releases its slot.
double ProbeDumpSchedulerNs(std::uint64_t seed, double scale) {
  const int requests = Ops(100'000, scale);
  const double secs = MedianSeconds(3, [&] {
    Simulator sim;
    DumpSchedulerConfig config;
    config.policy = DumpPolicy::kInterferenceAware;
    config.shared_bw = MBps(600);
    config.min_share = MBps(50);
    config.max_defer = Minutes(20);
    DumpScheduler scheduler(&sim, config);
    Rng rng(seed ^ 0xd5ull);
    std::vector<DumpScheduler::Ticket> tickets(requests, 0);
    SimTime at = 0;
    for (int i = 0; i < requests; ++i) {
      at += Seconds(rng.Exponential(2.0));
      const Bytes bytes = static_cast<Bytes>(
          std::min(rng.Pareto(64.0, 1.2), 16384.0) * static_cast<double>(kMiB));
      sim.ScheduleAt(at, [&sim, &scheduler, &tickets, i, bytes] {
        tickets[static_cast<size_t>(i)] =
            scheduler.Request(i % 64, i, bytes, [&sim, &scheduler, &tickets, i,
                                                 bytes] {
              sim.ScheduleAfter(TransferTime(bytes, MBps(50)),
                                [&scheduler, &tickets, i] {
                                  scheduler.Complete(
                                      tickets[static_cast<size_t>(i)]);
                                });
            });
      });
    }
    sim.Run();
  });
  return secs * 1e9 / requests;
}

// CheckpointEngine on NVM-backed DFS: full dump of a 1.8 GiB ProcessState,
// incremental dump after 10% of its pages are dirtied, then a remote
// restore. Host microseconds for the three operations.
double ProbeEngineUs(std::uint64_t seed) {
  Simulator sim;
  NetworkModel net(&sim, NetworkConfig{});
  std::vector<std::unique_ptr<StorageDevice>> devices;
  DfsConfig dfs_config;
  dfs_config.replication = 2;
  DfsCluster dfs(&sim, &net, dfs_config);
  for (int i = 0; i < 4; ++i) {
    net.AddNode(NodeId(i));
    devices.push_back(
        std::make_unique<StorageDevice>(&sim, StorageMedium::Nvm(), "dn"));
    dfs.AddDataNode(NodeId(i), devices.back().get());
  }
  DfsStore store(&dfs);
  CheckpointEngine engine(&sim, &store);
  Rng rng(seed ^ 0xe9ull);
  int next_task = 0;
  bool ok = true;
  auto dumped = [&ok](DumpResult r) { ok &= r.ok; };
  const double secs = MedianSeconds(5, [&] {
    ProcessState proc(TaskId(next_task++), GiB(1.8));
    engine.Dump(proc, NodeId(0), DumpOptions{}, dumped);
    sim.Run();
    proc.memory.TouchRandomFraction(0.1, rng);
    engine.Dump(proc, NodeId(0), DumpOptions{}, dumped);
    sim.Run();
    engine.Restore(proc, NodeId(1), [&ok](RestoreResult r) { ok &= r.ok; });
    sim.Run();
    engine.Discard(proc);
    sim.Run();
  });
  if (!ok) std::fprintf(stderr, "ckpt_bench: engine probe operation failed\n");
  return ok ? secs * 1e6 : -1;
}

// AuditLog::AppendSwap of 8-candidate preempt_scan records rebuilt in place
// (the scheduler's pattern), past the ring's wrap; then ToJsonl of the ring.
std::pair<double, double> ProbeAuditNs(double scale) {
  const int appends = Ops(300'000, scale);
  AuditLog log;
  AuditRecord record;
  const double append_s = MedianSeconds(1, [&] {
    for (int i = 0; i < appends; ++i) {
      record.kind = "preempt_scan";
      record.track = "node/17";
      record.t = static_cast<SimTime>(i) * 1000;
      record.args.clear();
      record.args.push_back(TraceArg::Num("task", i));
      record.args.push_back(TraceArg::Num("priority", 9));
      record.args.push_back(TraceArg::Num("cpus", 2.5));
      record.args.push_back(TraceArg::Num("index_leaves", 328));
      record.args.push_back(TraceArg::Str("outcome", "preempted"));
      record.candidates.resize(8);
      for (int c = 0; c < 8; ++c) {
        TraceArgs& cand = record.candidates[static_cast<size_t>(c)];
        cand.clear();
        cand.push_back(TraceArg::Num("task", i * 8 + c));
        cand.push_back(TraceArg::Num("unsaved_s", 120.5 + c));
        cand.push_back(TraceArg::Num("dump_s", 3.25 * c));
        cand.push_back(TraceArg::Num("restore_s", 1.5 * c));
        cand.push_back(TraceArg::Str("action", c < 2 ? "checkpoint" : "skip"));
        cand.push_back(TraceArg::Str("reason", "cost_order"));
      }
      log.AppendSwap(&record);
    }
  });
  std::size_t bytes = 0;
  const double jsonl_s =
      MedianSeconds(1, [&] { bytes = log.ToJsonl().size(); });
  if (bytes == 0) std::fprintf(stderr, "ckpt_bench: empty audit export\n");
  return {append_s * 1e9 / appends,
          jsonl_s * 1e9 / static_cast<double>(log.size())};
}

int LeavesFor(Kind kind, std::uint64_t seed, double scale) {
  switch (kind) {
    case Kind::kScaleBurst:
      return Scaled(kBurstNodes, scale);
    case Kind::kYarnFb:
      return 8;
    default:
      return Generate(kind, seed, scale).nodes;
  }
}

int RunProbes(const Options& opt) {
  const Kind kind = opt.workload->kind;
  const int leaves = LeavesFor(kind, opt.seed, opt.scale);
  const auto [query_ns, update_ns] =
      ProbeIndexNs(kind, leaves, opt.seed, opt.scale);
  const auto [append_ns, jsonl_ns] = ProbeAuditNs(opt.scale);
  std::printf(
      "{\"mode\":\"probes\",\"workload\":%s,\"seed\":%llu,\"probes\":{"
      "\"sim.probe_ns_per_event\":%s,"
      "\"scheduler.index_probe_query_ns\":%s,"
      "\"scheduler.index_probe_update_ns\":%s,"
      "\"storage.bw_probe_replan_ns_1\":%s,"
      "\"storage.bw_probe_replan_ns_16\":%s,"
      "\"storage.bw_probe_replan_ns_256\":%s,"
      "\"checkpoint.dump_sched_probe_ns\":%s,"
      "\"checkpoint.engine_probe_us\":%s,"
      "\"obs.audit_probe_append_ns\":%s,"
      "\"obs.audit_probe_jsonl_ns\":%s}}\n",
      Quote(opt.workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed),
      Num(ProbeSimulatorNsPerEvent(opt.seed, opt.scale)).c_str(),
      Num(query_ns).c_str(), Num(update_ns).c_str(),
      Num(ProbeBandwidthNs(1, opt.seed, opt.scale)).c_str(),
      Num(ProbeBandwidthNs(16, opt.seed, opt.scale)).c_str(),
      Num(ProbeBandwidthNs(256, opt.seed, opt.scale)).c_str(),
      Num(ProbeDumpSchedulerNs(opt.seed, opt.scale)).c_str(),
      Num(ProbeEngineUs(opt.seed)).c_str(), Num(append_ns).c_str(),
      Num(jsonl_ns).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload=trace_day|scale_burst|colocated_faults|"
                 "yarn_fb --seed=N [--scale=F] [--cell=ID]\n"
                 "          [--traced --out=DIR --report=PATH | --setup-only |"
                 " --probes]\n",
                 argv[0]);
    return 2;
  }
  return opt.probes ? RunProbes(opt) : RunCell(opt);
}
