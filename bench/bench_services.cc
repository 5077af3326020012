// Service colocation sweep: goodput vs p99 SLO violations across the
// kill / checkpoint / adaptive preemption policies at several batch:service
// mixes (the service workload subsystem's headline experiment).
//
// Each mix colocates the scaled Google-day batch workload with a diurnal
// service fleet whose peaks are spread across the day. Near a peak a
// service runs ~80% utilized, so losing one replica pushes it past
// saturation; in a trough it has slack. The policies then differ in what a
// preempted replica costs:
//
//   kill        the replica restarts cold — down until rescheduled, then a
//               warmup at reduced capacity; peak-time kills buy long SLO
//               violation stretches (and batch victims lose their work)
//   checkpoint  every victim is dumped and resumes warm — the freeze is
//               short, but trough-time dumps burn frozen-core overhead that
//               a kill would have gotten for free
//   adaptive    Algorithm 1 per victim class: batch compares unsaved work
//               to checkpoint overhead; services compare the kill's
//               violation seconds (downtime + cold warmup at the current
//               load) to the checkpoint's (freeze at the current load plus
//               frozen cores) — troughs kill, peaks checkpoint
//
// Accepts --jobs N (sweep-cell worker threads; output byte-identical for
// any value).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "service/service_workload.h"

using namespace ckpt;
using namespace ckpt::bench;

namespace {

struct MixVariant {
  const char* name;
  int services;
};

struct PolicyVariant {
  const char* name;
  PreemptionPolicy policy;
};

ServiceFleetConfig FleetFor(int services) {
  ServiceFleetConfig config;
  config.services = services;
  return config;
}

double ServiceCores(const std::vector<ServiceSpec>& fleet) {
  double cores = 0;
  for (const ServiceSpec& spec : fleet) {
    cores += spec.replicas * spec.demand.cpus;
  }
  return cores;
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = ExtractJobsFlag(&argc, argv);
  const int jobs = argc > 1 ? std::atoi(argv[1]) : 300;
  const Workload workload = GoogleDayWorkload(jobs);

  const double cores_per_node = 16.0;
  const int batch_nodes = NodesForWorkload(workload, cores_per_node, 0.9);

  const MixVariant mixes[] = {
      {"light", 2},
      {"medium", 4},
      {"heavy", 7},
  };
  const PolicyVariant policies[] = {
      {"kill", PreemptionPolicy::kKill},
      {"checkpoint", PreemptionPolicy::kCheckpoint},
      {"adaptive", PreemptionPolicy::kAdaptive},
  };
  constexpr int kMixes = 3;
  constexpr int kPolicies = 3;

  std::printf(
      "Service colocation sweep | %zu batch jobs, %lld tasks, %d batch "
      "nodes |\ndiurnal service fleets (SSD checkpoints, cost-aware victim "
      "order)\n",
      workload.jobs.size(), static_cast<long long>(workload.TotalTasks()),
      batch_nodes);

  // With CKPT_OBS=1 each cell records into a private Observability (the
  // per-service gauges/histograms and the service_preempt audit records)
  // and snapshots combine in cell order, identical at any --jobs; the
  // ckpt-report "services" section consumes this file.
  const bool obs_enabled = ObsEnabled();
  struct CellOutput {
    SimulationResult result;
    std::string metrics_entry;
  };
  const std::vector<CellOutput> outputs = RunSweep<CellOutput>(
      workers, kMixes * kPolicies, [&](int i) {
        const MixVariant& mix = mixes[i / kPolicies];
        const PolicyVariant& policy = policies[i % kPolicies];
        const std::vector<ServiceSpec> fleet =
            GenerateServiceFleet(FleetFor(mix.services));
        // Size the cluster for batch plus the service fleet at the same
        // target utilization, so every mix runs equally congested and
        // preemption pressure lands on the colocated services.
        const int nodes =
            batch_nodes + static_cast<int>(ServiceCores(fleet) /
                                               (0.9 * cores_per_node) +
                                           0.999);

        Simulator sim;
        Cluster cluster(&sim);
        cluster.AddNodes(nodes, Resources{cores_per_node, GiB(64)},
                         StorageMedium::Ssd());

        Observability obs;
        SchedulerConfig config;
        config.policy = policy.policy;
        config.medium = StorageMedium::Ssd();
        config.resubmit_delay = Seconds(15);
        if (obs_enabled) config.obs = &obs;
        ClusterScheduler scheduler(&sim, &cluster, config);
        scheduler.Submit(workload);
        scheduler.SubmitServices(fleet);
        CellOutput out;
        out.result = scheduler.Run();
        if (obs_enabled) {
          RecordProcessGauges(&obs);
          const std::string cell =
              std::string(mix.name) + "-" + policy.name;
          out.metrics_entry = "{\"name\":\"" + cell +
                              "\",\"metrics\":" + obs.metrics().ToJson() + "}";
          const std::string audit_path =
              ObsPath("bench_services." + cell + ".audit.jsonl");
          if (!obs.WriteAuditJsonl(audit_path)) {
            std::fprintf(stderr, "obs: cannot write %s\n", audit_path.c_str());
          }
        }
        return out;
      });
  if (obs_enabled) {
    std::string metrics_json = "{\"runs\":[";
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) metrics_json += ",";
      metrics_json += outputs[i].metrics_entry;
    }
    metrics_json += "]}\n";
    const std::string path = ObsPath("bench_services.metrics.json");
    std::ofstream out(path);
    out << metrics_json;
    if (!out) std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
  }

  std::vector<std::vector<std::string>> table{
      {"mix", "policy", "goodput [ch]", "waste [ch]", "slo viol [s]",
       "preempt [s]", "organic [s]", "cold", "svc preempt", "kills",
       "ckpts"}};
  for (int m = 0; m < kMixes; ++m) {
    for (int p = 0; p < kPolicies; ++p) {
      const SimulationResult& r =
          outputs[static_cast<size_t>(m * kPolicies + p)].result;
      table.push_back(
          {mixes[m].name, policies[p].name,
           Fmt(r.total_busy_core_hours - r.wasted_core_hours, 2),
           Fmt(r.wasted_core_hours, 2), Fmt(r.slo_violation_seconds, 1),
           Fmt(r.slo_violation_preempt_seconds, 1),
           Fmt(r.slo_violation_organic_seconds, 1),
           std::to_string(r.service_cold_starts),
           std::to_string(r.service_preemptions), std::to_string(r.kills),
           std::to_string(r.checkpoints)});
    }
  }
  std::fputs(RenderTable(table).c_str(), stdout);

  // Goodput-vs-violation frontier per mix: adaptive "beats" a baseline when
  // it wastes no more cores AND accrues no more preempt-caused violation
  // seconds (small slack absorbs formatting-scale noise).
  std::printf("\n");
  int frontier_wins = 0;
  for (int m = 0; m < kMixes; ++m) {
    const SimulationResult& kill =
        outputs[static_cast<size_t>(m * kPolicies + 0)].result;
    const SimulationResult& ckpt =
        outputs[static_cast<size_t>(m * kPolicies + 1)].result;
    const SimulationResult& adpt =
        outputs[static_cast<size_t>(m * kPolicies + 2)].result;
    auto beats = [&](const SimulationResult& base) {
      const double waste_slack = 0.005 * base.wasted_core_hours;
      const double viol_slack =
          1.0 + 0.005 * base.slo_violation_preempt_seconds;
      return adpt.wasted_core_hours <= base.wasted_core_hours + waste_slack &&
             adpt.slo_violation_preempt_seconds <=
                 base.slo_violation_preempt_seconds + viol_slack;
    };
    const bool wins = beats(kill) && beats(ckpt);
    frontier_wins += wins ? 1 : 0;
    std::printf(
        "frontier mix=%s adaptive{waste=%.2fch viol=%.1fs} "
        "kill{%.2fch %.1fs} checkpoint{%.2fch %.1fs} %s\n",
        mixes[m].name, adpt.wasted_core_hours,
        adpt.slo_violation_preempt_seconds, kill.wasted_core_hours,
        kill.slo_violation_preempt_seconds, ckpt.wasted_core_hours,
        ckpt.slo_violation_preempt_seconds,
        wins ? "(adaptive on frontier)" : "(adaptive dominated)");
  }
  std::printf("frontier_wins=%d/%d\n", frontier_wins, kMixes);

  std::printf(
      "\nReading: killing a replica serving a traffic peak buys minutes of\n"
      "violated SLO (cold restart at reduced capacity); checkpointing one in\n"
      "a trough burns frozen cores a kill would have shed for free. The\n"
      "service-aware adaptive policy takes each branch where it is cheap, so\n"
      "it should sit on the goodput-vs-violation frontier at every mix.\n");
  return 0;
}
