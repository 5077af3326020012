// yarn-sim — command-line driver for the YARN-layer experiments.
//
//   $ yarn-sim --policy=adaptive --medium=nvm --tasks=7000
//   $ yarn-sim --policy=checkpoint --medium=hdd --scheduling=capacity
//              --guarantee=0.4
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_flags.h"
#include "trace/facebook_workload.h"
#include "yarn/yarn_cluster.h"

using namespace ckpt;

namespace {

struct Flags {
  std::string policy = "adaptive";
  std::string medium = "nvm";
  std::string scheduling = "priority";
  int jobs = 40;
  int tasks = 7000;
  int nodes = 8;
  int containers = 24;
  double guarantee = 0.5;
  double threshold = 1.0;
  bool incremental = true;
  // Shared-bandwidth network contention (off by default; when off, output
  // is byte-identical to a build without the feature).
  double net_aggregate_gbps = 0;
  double rack_uplink_gbps = 0;
  int rack_size = 0;
  bool charge_receiver = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --policy=wait|kill|checkpoint|adaptive\n"
      "  --medium=hdd|ssd|nvm|nvram\n"
      "  --scheduling=priority|capacity   RM discipline\n"
      "  --guarantee=F                    production queue share (capacity)\n"
      "  --jobs=N --tasks=N               Facebook-derived workload size\n"
      "  --nodes=N --containers=N         cluster shape\n"
      "  --threshold=K                    Algorithm 1 knob\n"
      "  --no-incremental                 full dumps only\n"
      "  --net-aggregate-gbps=F  fair-shared network backbone pool (0=off)\n"
      "  --rack-size=N --rack-uplink-gbps=F  per-rack uplink domains\n"
      "  --net-charge-receiver   serialize transfers at the receiver NIC\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "--policy", &flags.policy) ||
        ParseFlag(arg, "--medium", &flags.medium) ||
        ParseFlag(arg, "--scheduling", &flags.scheduling)) {
      continue;
    }
    bool ok = true;
    if (ParseFlag(arg, "--jobs", &value)) {
      // The Facebook workload generator needs at least 4 jobs.
      ok = ParseNumber(value, &flags.jobs) && flags.jobs >= 4;
    } else if (ParseFlag(arg, "--tasks", &value)) {
      ok = ParsePositiveInt(value, &flags.tasks);
    } else if (ParseFlag(arg, "--nodes", &value)) {
      ok = ParsePositiveInt(value, &flags.nodes);
    } else if (ParseFlag(arg, "--containers", &value)) {
      ok = ParsePositiveInt(value, &flags.containers);
    } else if (ParseFlag(arg, "--guarantee", &value)) {
      ok = ParseFinite(value, &flags.guarantee) && flags.guarantee >= 0 &&
           flags.guarantee <= 1;
    } else if (ParseFlag(arg, "--threshold", &value)) {
      ok = ParseFinite(value, &flags.threshold) && flags.threshold > 0;
    } else if (ParseFlag(arg, "--net-aggregate-gbps", &value)) {
      ok = ParseFinite(value, &flags.net_aggregate_gbps) &&
           flags.net_aggregate_gbps >= 0;
    } else if (ParseFlag(arg, "--rack-uplink-gbps", &value)) {
      ok = ParseFinite(value, &flags.rack_uplink_gbps) &&
           flags.rack_uplink_gbps >= 0;
    } else if (ParseFlag(arg, "--rack-size", &value)) {
      ok = ParseNumber(value, &flags.rack_size) && flags.rack_size >= 0;
    } else if (std::strcmp(arg, "--net-charge-receiver") == 0) {
      flags.charge_receiver = true;
    } else if (std::strcmp(arg, "--no-incremental") == 0) {
      flags.incremental = false;
    } else {
      Usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag value: %s\n", arg);
      Usage(argv[0]);
      return 2;
    }
  }

  YarnConfig config;
  if (flags.policy == "wait") config.policy = PreemptionPolicy::kWait;
  else if (flags.policy == "kill") config.policy = PreemptionPolicy::kKill;
  else if (flags.policy == "checkpoint") config.policy = PreemptionPolicy::kCheckpoint;
  else if (flags.policy == "adaptive") config.policy = PreemptionPolicy::kAdaptive;
  else { Usage(argv[0]); return 2; }

  if (flags.medium == "hdd") config.medium = StorageMedium::Hdd();
  else if (flags.medium == "ssd") config.medium = StorageMedium::Ssd();
  else if (flags.medium == "nvm") config.medium = StorageMedium::Nvm();
  else if (flags.medium == "nvram") config.medium = StorageMedium::NvramMemory();
  else { Usage(argv[0]); return 2; }

  if (flags.scheduling == "capacity") {
    config.scheduling_mode = SchedulingMode::kCapacity;
  } else if (flags.scheduling != "priority") {
    Usage(argv[0]);
    return 2;
  }
  config.production_guarantee = flags.guarantee;
  config.num_nodes = flags.nodes;
  config.containers_per_node = flags.containers;
  config.adaptive_threshold = flags.threshold;
  config.incremental_checkpoints = flags.incremental;
  if (flags.net_aggregate_gbps > 0) {
    config.network.aggregate_bw = GBps(flags.net_aggregate_gbps);
  }
  if (flags.rack_size > 0 && flags.rack_uplink_gbps > 0) {
    config.network.rack_size = flags.rack_size;
    config.network.rack_uplink_bw = GBps(flags.rack_uplink_gbps);
  }
  config.network.charge_receiver = flags.charge_receiver;

  FacebookWorkloadConfig fb;
  fb.total_jobs = flags.jobs;
  fb.total_tasks = flags.tasks;
  fb.cluster_containers = flags.nodes * flags.containers;
  const Workload workload = GenerateFacebookWorkload(fb);

  YarnCluster yarn(config);
  const YarnResult result = yarn.RunWorkload(workload);

  std::printf("policy=%s medium=%s scheduling=%s jobs=%zu tasks=%lld\n",
              flags.policy.c_str(), flags.medium.c_str(),
              flags.scheduling.c_str(), workload.jobs.size(),
              static_cast<long long>(workload.TotalTasks()));
  std::printf("wasted_core_hours=%.2f energy_kwh=%.2f makespan_h=%.2f\n",
              result.wasted_core_hours, result.energy_kwh,
              ToHours(result.makespan));
  std::printf("rt_low_min=%.1f rt_high_min=%.1f\n",
              result.low_priority_job_responses.Mean() / 60.0,
              result.high_priority_job_responses.Mean() / 60.0);
  std::printf(
      "preempt_events=%lld kills=%lld checkpoints=%lld incremental=%lld "
      "restores=%lld remote=%lld\n",
      static_cast<long long>(result.preempt_events),
      static_cast<long long>(result.kills),
      static_cast<long long>(result.checkpoints),
      static_cast<long long>(result.incremental_checkpoints),
      static_cast<long long>(result.restores),
      static_cast<long long>(result.remote_restores));
  std::printf("cpu_overhead=%.4f io_overhead=%.4f storage_peak=%.4f\n",
              result.checkpoint_cpu_overhead, result.io_overhead,
              result.storage_used_fraction);
  return 0;
}
