// ckpt_sim — command-line driver for the trace-driven cluster simulator.
//
// Runs one simulation with every knob exposed as a flag and prints a
// machine-friendly key=value report, so parameter sweeps can be scripted
// without writing C++. Sweep flags run the cartesian product of
// policies x media x seeds as independent cells — optionally in parallel
// (each cell owns a private Simulator) — and print the reports in cell
// order, so output is byte-identical for any --parallel value.
//
//   $ ckpt_sim --policy=adaptive --medium=nvm --jobs=2000 --util=0.9
//   $ ckpt_sim --policy=checkpoint --medium=hdd --no-incremental
//              --restore=always-local --seed=42
//   $ ckpt_sim --sweep-policies=kill,checkpoint --sweep-media=hdd,ssd,nvm
//              --sweep-seeds=1,2 --parallel=4
//   $ ckpt_sim --help
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"
#include "trace/google_trace.h"

using namespace ckpt;

namespace {

struct Flags {
  std::string policy = "adaptive";
  std::string medium = "ssd";
  std::string restore = "adaptive";
  std::string victims = "cost-aware";
  int jobs = 1000;
  double util = 0.9;
  double threshold = 1.0;
  bool incremental = true;
  bool dfs = true;
  bool shadow = false;
  bool lazy = false;
  double resubmit_sec = 15.0;
  std::uint64_t seed = 2011;
  // A crash needs both node and time; RunCell checks the node against the
  // cell's cluster. The downtime defaults to 5 minutes.
  std::optional<int> fail_node;
  std::optional<double> fail_at_min;
  std::optional<double> fail_down_min;

  // Shared-bandwidth interference model + cooperative dump scheduling +
  // periodic Young/Daly checkpointing (all off by default; outputs are
  // byte-identical to a build without the feature when off).
  bool interference = false;
  std::string dump_policy = "naive";
  double periodic_mtbf_min = 0;

  // Sweep mode: cartesian product of the comma-separated lists (empty list
  // means "just the single-run flag above").
  std::string sweep_policies;
  std::string sweep_media;
  std::string sweep_seeds;
  int parallel = 1;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --policy=wait|kill|checkpoint|adaptive   preemption policy\n"
      "  --medium=hdd|ssd|nvm|nvram               checkpoint storage\n"
      "  --restore=adaptive|local|remote          resumption policy\n"
      "  --victims=cost-aware|lowest-priority|random\n"
      "  --jobs=N          workload size (Google-like day)\n"
      "  --util=F          average demand vs capacity (cluster sizing)\n"
      "  --threshold=K     Algorithm 1 scaling knob\n"
      "  --no-incremental  full dumps only\n"
      "  --no-dfs          local-only images (stock CRIU)\n"
      "  --shadow          NVRAM shadow buffering\n"
      "  --lazy            NVRAM lazy restore\n"
      "  --resubmit=SECS   preempted-task backoff (default 15)\n"
      "  --seed=N          workload seed\n"
      "  --fail-node=I --fail-at=MIN [--fail-down=MIN]  inject a crash\n"
      "  --interference    shared-bandwidth checkpoint interference model\n"
      "  --dump-policy=naive|staggered|aware  cooperative dump admission\n"
      "                    (consulted only with --interference)\n"
      "  --periodic-mtbf-min=M  Young/Daly periodic checkpointing against\n"
      "                    a node MTBF of M minutes (0 = off)\n"
      "  --sweep-policies=A,B,..  run every combination of the sweep lists\n"
      "  --sweep-media=X,Y,..     (a missing list reuses the single-run\n"
      "  --sweep-seeds=N,M,..      flag); reports print in cell order\n"
      "  --parallel=N      worker threads for sweep cells (default 1),\n"
      "                    clamped to the core count unless\n"
      "                    CKPT_SWEEP_NO_CLAMP is set\n",
      argv0);
}

bool Parse(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "--policy", &flags->policy) ||
        ParseFlag(arg, "--medium", &flags->medium) ||
        ParseFlag(arg, "--restore", &flags->restore) ||
        ParseFlag(arg, "--victims", &flags->victims) ||
        ParseFlag(arg, "--dump-policy", &flags->dump_policy) ||
        ParseFlag(arg, "--sweep-policies", &flags->sweep_policies) ||
        ParseFlag(arg, "--sweep-media", &flags->sweep_media) ||
        ParseFlag(arg, "--sweep-seeds", &flags->sweep_seeds)) {
      continue;
    }
    bool ok = true;
    if (ParseFlag(arg, "--jobs", &value)) {
      ok = ParsePositiveInt(value, &flags->jobs);
    } else if (ParseFlag(arg, "--util", &value)) {
      ok = ParseFinite(value, &flags->util) && flags->util > 0;
    } else if (ParseFlag(arg, "--threshold", &value)) {
      ok = ParseFinite(value, &flags->threshold) && flags->threshold > 0;
    } else if (ParseFlag(arg, "--resubmit", &value)) {
      ok = ParseFinite(value, &flags->resubmit_sec) &&
           flags->resubmit_sec >= 0;
    } else if (ParseFlag(arg, "--seed", &value)) {
      ok = ParseNumber(value, &flags->seed);
    } else if (ParseFlag(arg, "--parallel", &value)) {
      ok = ParsePositiveInt(value, &flags->parallel);
    } else if (ParseFlag(arg, "--fail-node", &value)) {
      ok = ParseNumber(value, &flags->fail_node.emplace()) &&
           *flags->fail_node >= 0;
    } else if (ParseFlag(arg, "--fail-at", &value)) {
      ok = ParseFinite(value, &flags->fail_at_min.emplace()) &&
           *flags->fail_at_min >= 0;
    } else if (ParseFlag(arg, "--fail-down", &value)) {
      ok = ParseFinite(value, &flags->fail_down_min.emplace());
    } else if (ParseFlag(arg, "--periodic-mtbf-min", &value)) {
      ok = ParseFinite(value, &flags->periodic_mtbf_min) &&
           flags->periodic_mtbf_min >= 0;
    } else if (std::strcmp(arg, "--interference") == 0) {
      flags->interference = true;
    } else if (std::strcmp(arg, "--no-incremental") == 0) {
      flags->incremental = false;
    } else if (std::strcmp(arg, "--no-dfs") == 0) {
      flags->dfs = false;
    } else if (std::strcmp(arg, "--shadow") == 0) {
      flags->shadow = true;
    } else if (std::strcmp(arg, "--lazy") == 0) {
      flags->lazy = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag value: %s\n", arg);
      return false;
    }
  }
  if (flags->fail_node.has_value() != flags->fail_at_min.has_value() ||
      (flags->fail_down_min.has_value() && !flags->fail_node.has_value())) {
    std::fprintf(stderr,
                 "--fail-node and --fail-at go together; --fail-down needs "
                 "both\n");
    return false;
  }
  return true;
}

bool ToPolicy(const std::string& name, PreemptionPolicy* out) {
  if (name == "wait") *out = PreemptionPolicy::kWait;
  else if (name == "kill") *out = PreemptionPolicy::kKill;
  else if (name == "checkpoint") *out = PreemptionPolicy::kCheckpoint;
  else if (name == "adaptive") *out = PreemptionPolicy::kAdaptive;
  else return false;
  return true;
}

bool ToMedium(const std::string& name, StorageMedium* out) {
  if (name == "hdd") *out = StorageMedium::Hdd();
  else if (name == "ssd") *out = StorageMedium::Ssd();
  else if (name == "nvm") *out = StorageMedium::Nvm();
  else if (name == "nvram") *out = StorageMedium::NvramMemory();
  else return false;
  return true;
}

// Translate the string flags into a SchedulerConfig; false on a bad value.
bool BuildConfig(const Flags& flags, SchedulerConfig* config) {
  if (!ToPolicy(flags.policy, &config->policy) ||
      !ToMedium(flags.medium, &config->medium)) {
    return false;
  }
  if (flags.restore == "local") {
    config->restore_policy = RestorePolicy::kAlwaysLocal;
  } else if (flags.restore == "remote") {
    config->restore_policy = RestorePolicy::kAlwaysRemote;
  } else if (flags.restore != "adaptive") {
    return false;
  }
  if (flags.victims == "lowest-priority") {
    config->victim_order = VictimOrder::kLowestPriority;
  } else if (flags.victims == "random") {
    config->victim_order = VictimOrder::kRandom;
  } else if (flags.victims != "cost-aware") {
    return false;
  }
  config->incremental_checkpoints = flags.incremental;
  config->checkpoint_to_dfs = flags.dfs;
  config->adaptive_threshold = flags.threshold;
  config->shadow_buffering = flags.shadow;
  config->lazy_restore = flags.lazy;
  config->resubmit_delay = Seconds(flags.resubmit_sec);
  config->interference.enabled = flags.interference;
  if (!ParseDumpPolicy(flags.dump_policy, &config->dump_scheduler.policy)) {
    return false;
  }
  if (flags.periodic_mtbf_min > 0) {
    config->periodic_ckpt_mtbf = Minutes(flags.periodic_mtbf_min);
  }
  return true;
}

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// Run one fully-specified simulation cell and return its key=value report.
// Self-contained (private Simulator/Cluster/workload), so cells may run on
// worker threads. The cluster is sized from the workload, so only here can
// a --fail-node outside it be found: then *error says so and the report is
// empty.
std::string RunCell(const Flags& flags, SchedulerConfig config,
                    std::string* error, Observability* obs = nullptr) {
  config.obs = obs;
  GoogleTraceConfig trace_config;
  trace_config.sample_jobs = flags.jobs;
  trace_config.seed = flags.seed;
  const Workload workload =
      GoogleTraceGenerator(trace_config).GenerateWorkloadSample();

  double core_seconds = 0;
  for (const JobSpec& job : workload.jobs) {
    for (const TaskSpec& task : job.tasks) {
      core_seconds += ToSeconds(task.duration) * task.demand.cpus;
    }
  }
  const double cores_per_node = 16.0;
  const int nodes = std::max(
      1, static_cast<int>(core_seconds / ToSeconds(kDay) /
                          (flags.util * cores_per_node) + 0.999));
  if (flags.fail_node.has_value() && *flags.fail_node >= nodes) {
    *error = "--fail-node=" + std::to_string(*flags.fail_node) +
             " is outside the cluster of " + std::to_string(nodes) +
             " nodes (seed " + std::to_string(flags.seed) + ")";
    return "";
  }

  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(nodes, Resources{cores_per_node, GiB(64)}, config.medium);
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  if (flags.fail_node.has_value()) {
    const double down_min = flags.fail_down_min.value_or(5);
    scheduler.InjectNodeFailure(NodeId(*flags.fail_node),
                                Minutes(*flags.fail_at_min),
                                down_min < 0 ? -1 : Minutes(down_min));
  }
  const SimulationResult result = scheduler.Run();

  std::string report;
  Append(&report,
         "policy=%s medium=%s jobs=%zu tasks=%lld nodes=%d seed=%llu\n",
         flags.policy.c_str(), flags.medium.c_str(), workload.jobs.size(),
         static_cast<long long>(workload.TotalTasks()), nodes,
         static_cast<unsigned long long>(flags.seed));
  Append(&report,
         "wasted_core_hours=%.2f wasted_fraction=%.4f "
         "lost_work_core_hours=%.2f overhead_core_hours=%.2f\n",
         result.wasted_core_hours, result.WastedFraction(),
         result.lost_work_core_hours, result.overhead_core_hours);
  Append(&report, "energy_kwh=%.2f makespan_h=%.2f\n", result.energy_kwh,
         ToHours(result.makespan));
  Append(&report, "rt_low_s=%.0f rt_medium_s=%.0f rt_high_s=%.0f\n",
         result.job_response_by_band[0].Mean(),
         result.job_response_by_band[1].Mean(),
         result.job_response_by_band[2].Mean());
  Append(&report,
         "preemptions=%lld kills=%lld checkpoints=%lld incremental=%lld "
         "restores_local=%lld restores_remote=%lld\n",
         static_cast<long long>(result.preemptions),
         static_cast<long long>(result.kills),
         static_cast<long long>(result.checkpoints),
         static_cast<long long>(result.incremental_checkpoints),
         static_cast<long long>(result.local_restores),
         static_cast<long long>(result.remote_restores));
  Append(&report,
         "failures=%lld interrupted=%lld images_lost=%lld "
         "images_survived=%lld\n",
         static_cast<long long>(result.node_failures),
         static_cast<long long>(result.tasks_interrupted_by_failure),
         static_cast<long long>(result.images_lost_to_failure),
         static_cast<long long>(result.images_survived_failure));
  if (flags.interference || flags.periodic_mtbf_min > 0) {
    // Gated so feature-off output stays byte-identical to the seed.
    Append(&report,
           "dump_policy=%s periodic_checkpoints=%lld periodic_failures=%lld "
           "dumps_deferred=%lld defer_h=%.2f\n",
           flags.dump_policy.c_str(),
           static_cast<long long>(result.periodic_checkpoints),
           static_cast<long long>(result.periodic_checkpoint_failures),
           static_cast<long long>(result.dumps_deferred),
           ToHours(result.dump_defer_time));
  }
  return report;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!Parse(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  const bool sweep = !flags.sweep_policies.empty() ||
                     !flags.sweep_media.empty() ||
                     !flags.sweep_seeds.empty();
  if (!sweep) {
    SchedulerConfig config;
    if (!BuildConfig(flags, &config)) {
      Usage(argv[0]);
      return 2;
    }
    // CKPT_OBS export covers single runs only; sweeps stay recording-free.
    Observability obs;
    Observability* obs_ptr = ObsEnabled() ? &obs : nullptr;
    std::string error;
    const std::string report = RunCell(flags, config, &error, obs_ptr);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      Usage(argv[0]);
      return 2;
    }
    std::fputs(report.c_str(), stdout);
    if (obs_ptr != nullptr) {
      const std::string base = "ckpt_sim." + flags.policy;
      const std::string metrics_path = ObsPath(base + ".metrics.json");
      const std::string audit_path = ObsPath(base + ".audit.jsonl");
      if (!obs.WriteMetricsJson(metrics_path)) {
        std::fprintf(stderr, "obs: cannot write %s\n", metrics_path.c_str());
      }
      if (!obs.WriteAuditJsonl(audit_path)) {
        std::fprintf(stderr, "obs: cannot write %s\n", audit_path.c_str());
      }
    }
    return 0;
  }

  // Cartesian product in policy-major, then medium, then seed order; an
  // empty list falls back to the corresponding single-run flag.
  std::vector<std::string> policies = SplitCsv(flags.sweep_policies);
  if (policies.empty()) policies.push_back(flags.policy);
  std::vector<std::string> media = SplitCsv(flags.sweep_media);
  if (media.empty()) media.push_back(flags.medium);
  std::vector<std::string> seeds = SplitCsv(flags.sweep_seeds);
  if (seeds.empty()) seeds.push_back(std::to_string(flags.seed));

  struct Cell {
    Flags flags;
    SchedulerConfig config;
  };
  std::vector<Cell> cells;
  for (const std::string& policy : policies) {
    for (const std::string& medium : media) {
      for (const std::string& seed : seeds) {
        Cell cell;
        cell.flags = flags;
        cell.flags.policy = policy;
        cell.flags.medium = medium;
        if (!ParseNumber(seed, &cell.flags.seed) ||
            !BuildConfig(cell.flags, &cell.config)) {
          std::fprintf(stderr,
                       "bad sweep value: policy=%s medium=%s seed=%s\n",
                       policy.c_str(), medium.c_str(), seed.c_str());
          Usage(argv[0]);
          return 2;
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  std::vector<std::string> reports(cells.size());
  std::vector<std::string> errors(cells.size());
  ParallelForIndexed(ClampSweepWorkers(flags.parallel),
                     static_cast<std::int64_t>(cells.size()),
                     [&](std::int64_t i) {
                       const auto c = static_cast<size_t>(i);
                       reports[c] = RunCell(cells[c].flags, cells[c].config,
                                            &errors[c]);
                     });
  for (const std::string& error : errors) {
    if (error.empty()) continue;
    std::fprintf(stderr, "%s\n", error.c_str());
    Usage(argv[0]);
    return 2;
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) std::fputs("\n", stdout);
    std::fputs(reports[i].c_str(), stdout);
  }
  return 0;
}
