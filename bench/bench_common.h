// Shared harness pieces for the figure/table reproduction binaries.
//
// Every bench prints the same rows/series the paper reports, plus the
// paper's published values where applicable, so EXPERIMENTS.md can record
// paper-vs-measured side by side. Absolute numbers differ from the paper's
// testbed; the *shape* (who wins, by what factor, where crossovers sit) is
// the reproduction target.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/file.h"
#include "common/thread_pool.h"
#include "metrics/report.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"
#include "trace/google_trace.h"
#include "trace/workload.h"

namespace ckpt::bench {

// Observability export is opt-in via CKPT_OBS=1 (ObsEnabled) and lands in
// CKPT_OBS_DIR (ObsPath); see obs/observability.h.

// Writes an obs artifact to ObsPath(filename). A failure warns on stderr;
// stdout and the exit status stay as they are.
inline void WriteObsFile(const std::string& filename,
                         const std::string& content) {
  const std::string path = ObsPath(filename);
  if (!WriteFile(path, content)) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
  }
}

// Peak resident set size of this process, in bytes (ru_maxrss is KiB on
// Linux). The sim runners export it as the process.peak_rss_bytes gauge
// under CKPT_OBS=1 so memory can be tracked alongside throughput at scale.
inline long long PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long long>(usage.ru_maxrss) * 1024;
}

// Record the process-level gauges into `obs` (call at the end of a run;
// ru_maxrss is monotone, so the last cell to export sees the true peak).
inline void RecordProcessGauges(Observability* obs) {
  if (obs == nullptr) return;
  obs->metrics()
      .GetGauge("process.peak_rss_bytes")
      ->Max(static_cast<double>(PeakRssBytes()));
}

// Scaled stand-in for the paper's one-day Google slice. The paper simulates
// ~15k jobs / 600k tasks needing >22k cores; the default here is a 1/4-scale
// sample so every figure regenerates in seconds. Pass jobs=15000 for the
// full-size run.
inline Workload GoogleDayWorkload(int jobs = 4000,
                                  std::uint64_t seed = 2011) {
  GoogleTraceConfig config;
  config.sample_jobs = jobs;
  config.seed = seed;
  return GoogleTraceGenerator(config).GenerateWorkloadSample();
}

// Size a cluster so the workload's average demand runs at ~`target_util`
// utilization — peaks then exceed capacity and force preemption, as in the
// paper's trace.
inline int NodesForWorkload(const Workload& workload, double cores_per_node,
                            double target_util = 0.85) {
  double core_seconds = 0;
  SimTime span = kDay;
  for (const JobSpec& job : workload.jobs) {
    for (const TaskSpec& task : job.tasks) {
      core_seconds += ToSeconds(task.duration) * task.demand.cpus;
    }
    span = std::max(span, job.submit_time);
  }
  const double avg_cores = core_seconds / ToSeconds(span);
  const int nodes = static_cast<int>(
      avg_cores / (target_util * cores_per_node) + 0.999);
  return std::max(nodes, 1);
}

struct TraceSimOptions {
  SimDuration resubmit_delay = Seconds(15);
  PreemptionPolicy policy = PreemptionPolicy::kKill;
  StorageMedium medium = StorageMedium::Hdd();
  bool incremental = true;
  double adaptive_threshold = 1.0;
  VictimOrder victim_order = VictimOrder::kCostAware;
  RestorePolicy restore_policy = RestorePolicy::kAdaptive;
  bool checkpoint_to_dfs = true;
  int protect_latency_class_at_least = kNumLatencyClasses;
  double cores_per_node = 16.0;
  Bytes memory_per_node = GiB(64);
  // Average demand vs capacity: >=1.0 reproduces the paper's congested
  // cluster, where peaks routinely exceed capacity and force preemption.
  double target_util = 0.9;

  // Optional metrics/trace sink for this run; not owned, null disables all
  // recording. Parallel sweeps must give each cell its own instance.
  Observability* obs = nullptr;
};

inline SimulationResult RunTraceSim(const Workload& workload,
                                    const TraceSimOptions& options) {
  Simulator sim;
  Cluster cluster(&sim);
  const int nodes =
      NodesForWorkload(workload, options.cores_per_node, options.target_util);
  cluster.AddNodes(nodes, Resources{options.cores_per_node,
                                    options.memory_per_node},
                   options.medium);
  SchedulerConfig config;
  config.policy = options.policy;
  config.medium = options.medium;
  config.incremental_checkpoints = options.incremental;
  config.adaptive_threshold = options.adaptive_threshold;
  config.victim_order = options.victim_order;
  config.restore_policy = options.restore_policy;
  config.checkpoint_to_dfs = options.checkpoint_to_dfs;
  config.resubmit_delay = options.resubmit_delay;
  config.protect_latency_class_at_least = options.protect_latency_class_at_least;
  config.obs = options.obs;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  SimulationResult result = scheduler.Run();
  RecordProcessGauges(options.obs);
  return result;
}

inline const char* BandLabel(PriorityBand band) {
  switch (band) {
    case PriorityBand::kFree: return "Low";
    case PriorityBand::kMiddle: return "Medium";
    case PriorityBand::kProduction: return "High";
  }
  return "?";
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Strip "--jobs=N" / "--jobs N" from argv (so positional arguments keep
// their meaning) and return the worker count, defaulting to 1. Benches use
// it to run independent sweep cells concurrently; N=1 runs every cell
// inline, which is the reference execution the determinism tests compare
// against. The result is clamped to the machine's core count (see
// ClampSweepWorkers) so an over-asked --jobs cannot silently slow a
// CPU-bound sweep down; CKPT_SWEEP_NO_CLAMP lifts the clamp.
inline int ExtractJobsFlag(int* argc, char** argv) {
  int workers = 1;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      workers = std::atoi(arg.c_str() + 7);
      continue;
    }
    if (arg == "--jobs" && i + 1 < *argc) {
      workers = std::atoi(argv[++i]);
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return ClampSweepWorkers(workers);
}

// Run `cells` independent sweep cells on up to `workers` threads and return
// the results indexed by cell. Each cell must be self-contained (private
// Simulator/Cluster/scheduler, no shared RNG); the caller formats output
// from the returned vector in cell order, so stdout is byte-identical for
// any worker count.
template <typename T>
std::vector<T> RunSweep(int workers, int cells,
                        const std::function<T(int)>& cell_fn) {
  std::vector<T> out(static_cast<size_t>(cells));
  ParallelForIndexed(workers, cells, [&](std::int64_t i) {
    out[static_cast<size_t>(i)] = cell_fn(static_cast<int>(i));
  });
  return out;
}

}  // namespace ckpt::bench
