// Scaling sweep for the scheduler hot path: cluster sizes x preemption
// policies, reporting deterministic simulation results on stdout and
// wall-clock throughput (events/s, scheduling decisions/s, peak RSS) on
// stderr so byte-diffing stdout stays meaningful.
//
// The synthetic workload oversubscribes the cluster ~2x so placements
// routinely fail and preemption scans dominate — the regime where the
// O(log n) feasibility index pays off. `--index=off` runs the linear-scan
// reference; scripts/check_determinism.sh byte-diffs the two.
#include <charconv>
#include <chrono>

#include "bench_common.h"

using namespace ckpt;
using namespace ckpt::bench;

namespace {

// Dense arrival burst sized to the cluster: `tasks_per_node * nodes` tasks,
// ~2x the cluster's capacity over the arrival horizon, with the paper's
// three priority bands represented so every policy both kills and
// checkpoints.
Workload ScaleWorkload(int nodes, int tasks_per_node, std::uint64_t seed) {
  constexpr int kTasksPerJob = 10;
  const std::int64_t total_tasks = std::int64_t{nodes} * tasks_per_node;
  const std::int64_t total_jobs =
      (total_tasks + kTasksPerJob - 1) / kTasksPerJob;
  Rng rng(seed);
  std::int64_t next_task = 0;
  Workload workload;
  workload.jobs.reserve(static_cast<size_t>(total_jobs));
  for (std::int64_t j = 0; j < total_jobs; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.submit_time = Seconds(rng.Uniform(0.0, 900.0));
    const double band_draw = rng.Uniform();
    // 70% free band, 10% middle, 20% production: enough production work to
    // keep preemption constant, enough free work to supply victims.
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
      const double cpus = static_cast<double>(rng.UniformInt(1, 3)) * 2.0;
      task.demand = Resources{cpus, static_cast<Bytes>(cpus) * GiB(4)};
      task.priority = job.priority;
      task.latency_class = static_cast<int>(rng.UniformInt(0, 1));
      task.memory_write_rate = rng.Uniform(0.005, 0.02);
      job.tasks.push_back(task);
    }
    workload.jobs.push_back(std::move(job));
  }
  workload.SortBySubmitTime();
  return workload;
}

struct CellResult {
  SimulationResult result;
  std::int64_t events = 0;
  double seconds = 0;
};

CellResult RunCell(int nodes, PreemptionPolicy policy, bool use_index,
                   Observability* obs) {
  CellResult cell;
  const Workload workload = ScaleWorkload(nodes, /*tasks_per_node=*/8,
                                          /*seed=*/2011);
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(nodes, Resources{16.0, GiB(64)}, StorageMedium::Ssd());
  SchedulerConfig config;
  config.policy = policy;
  config.medium = StorageMedium::Ssd();
  config.use_feasibility_index = use_index;
  config.obs = obs;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);

  const auto t0 = std::chrono::steady_clock::now();
  cell.result = scheduler.Run();
  const auto t1 = std::chrono::steady_clock::now();
  cell.seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.events = sim.EventsProcessed();
  RecordProcessGauges(obs);
  return cell;
}

// "N,M,..." of whole positive node counts; false on anything else
// (empty list, empty entry, sign, trailing text, overflow).
bool ParseSizes(const std::string& csv, std::vector<int>* sizes) {
  sizes->clear();
  const char* p = csv.data();
  const char* const end = p + csv.size();
  while (true) {
    int nodes = 0;
    const auto [next, ec] = std::from_chars(p, end, nodes);
    if (ec != std::errc() || nodes <= 0) return false;
    sizes->push_back(nodes);
    if (next == end) return true;
    if (*next != ',') return false;
    p = next + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Scheduling decisions vs sweep workers are orthogonal here: cells run
  // serially so the stderr wall-clock numbers are honest.
  bool use_index = true;
  std::vector<int> sizes{1000, 4000, 10000};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--index=off") {
      use_index = false;
    } else if (arg == "--index=on") {
      use_index = true;
    } else if (arg.rfind("--sizes=", 0) != 0 ||
               !ParseSizes(arg.substr(8), &sizes)) {
      std::fprintf(stderr, "usage: %s [--index=on|off] [--sizes=N,M,...]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Scale sweep | 16-core/64-GiB nodes, 8 tasks/node, index=%s\n",
              use_index ? "on" : "off");
  PrintHeader("Deterministic results per cell");
  std::vector<std::vector<std::string>> table{
      {"nodes", "policy", "tasks done", "preemptions", "kills", "checkpoints",
       "decisions", "makespan [h]"}};

  const bool obs_enabled = ObsEnabled();
  std::string metrics_json = "{\"runs\":[";
  bool first_cell = true;
  struct PolicyRow {
    const char* name;
    PreemptionPolicy policy;
  };
  const PolicyRow policies[] = {
      {"kill", PreemptionPolicy::kKill},
      {"checkpoint", PreemptionPolicy::kCheckpoint},
      {"adaptive", PreemptionPolicy::kAdaptive},
  };
  for (int nodes : sizes) {
    for (const PolicyRow& row : policies) {
      Observability obs;
      CellResult cell =
          RunCell(nodes, row.policy, use_index, obs_enabled ? &obs : nullptr);
      table.push_back(
          {std::to_string(nodes), row.name,
           std::to_string(cell.result.tasks_completed),
           std::to_string(cell.result.preemptions),
           std::to_string(cell.result.kills),
           std::to_string(cell.result.checkpoints),
           std::to_string(cell.result.sched_decisions),
           Fmt(ToHours(cell.result.makespan), 2)});
      // Timing is machine-dependent: keep it off stdout.
      std::fprintf(
          stderr,
          "bench_scale: nodes=%d policy=%s index=%s seconds=%.3f "
          "events=%lld events_per_sec=%.0f decisions=%lld "
          "decisions_per_sec=%.0f peak_rss_bytes=%lld\n",
          nodes, row.name, use_index ? "on" : "off", cell.seconds,
          static_cast<long long>(cell.events),
          cell.seconds > 0 ? static_cast<double>(cell.events) / cell.seconds
                           : 0.0,
          static_cast<long long>(cell.result.sched_decisions),
          cell.seconds > 0
              ? static_cast<double>(cell.result.sched_decisions) / cell.seconds
              : 0.0,
          PeakRssBytes());
      if (obs_enabled) {
        if (!first_cell) metrics_json += ",";
        first_cell = false;
        metrics_json += "{\"name\":\"" + std::string(row.name) + "-" +
                        std::to_string(nodes) +
                        "\",\"metrics\":" + obs.metrics().ToJson() + "}";
      }
    }
  }
  std::fputs(RenderTable(table).c_str(), stdout);

  if (obs_enabled) {
    metrics_json += "]}\n";
    WriteObsFile("bench_scale.metrics.json", metrics_json);
  }
  return 0;
}
