// Interference study: shared-bandwidth checkpoint contention and the
// cooperative dump scheduler (ROADMAP item: interfering checkpoints).
//
// All cells run with the interference model ON: checkpoint writes drain a
// cluster-wide DFS-ingest pool fair-shared across concurrent dumps, network
// transfers contend at the receiver and rack uplinks, and dump/restore
// overhead is charged from actual elapsed freeze time. The sweep crosses
// node-failure rate with the dump-admission policy:
//
//   naive      admit every dump immediately (processor-sharing collapse:
//              N concurrent dumps each freeze ~N times longer)
//   staggered  at most `max_concurrent` dumps in flight, FIFO
//   aware      in-flight cap derived from the shared capacity so every
//              admitted dump keeps at least `min_share` of bandwidth;
//              small incrementals bypass admission, queued full images
//              drain smallest-first
//
// Every row runs periodic Young/Daly checkpoints (cadence provisioned for
// the same assumed MTBF), under the wait-for-resources preemption policy so
// the only dump traffic is the checkpoint stream itself. The rows then
// differ purely in the crashes actually injected, and `aware` should
// strictly reduce waste vs `naive` whether or not the crashes materialize.
//
// Accepts --jobs N (sweep-cell worker threads; output byte-identical for
// any value).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"

using namespace ckpt;
using namespace ckpt::bench;

namespace {

struct PolicyVariant {
  const char* name;
  DumpPolicy policy;
};

struct RateVariant {
  const char* name;
  int crash_every_h;  // 0 = no failures
};

}  // namespace

int main(int argc, char** argv) {
  const int workers = ExtractJobsFlag(&argc, argv);
  const int jobs = argc > 1 ? std::atoi(argv[1]) : 300;
  const Workload workload = GoogleDayWorkload(jobs);

  // Crash-vs-checkpoint timing is chaotic: a single trajectory's lost work
  // depends on which tasks happen to sit on the crashed node. Each cell
  // averages over phase-shifted crash schedules so the table reflects the
  // admission policy, not one run's luck. (Offsets are fixed constants —
  // output stays deterministic.)
  constexpr int kReplicas = 5;
  constexpr int kPhaseShiftMin[kReplicas] = {0, 3, 7, 11, 16};

  const double cores_per_node = 16.0;
  const int nodes = NodesForWorkload(workload, cores_per_node, 0.9);
  std::printf(
      "Interference sweep | %zu jobs, %lld tasks, %d nodes | shared ingest "
      "150 MB/s,\nperiodic Young/Daly dumps on NVM, wait policy, mean of %d "
      "crash phases\n",
      workload.jobs.size(),
      static_cast<long long>(workload.TotalTasks()), nodes,
      kReplicas);

  const RateVariant rates[] = {
      {"none", 0},
      {"crash/2h", 2},
      {"crash/1h", 1},
  };
  const PolicyVariant policies[] = {
      {"naive", DumpPolicy::kNaive},
      {"staggered", DumpPolicy::kStaggered},
      {"aware", DumpPolicy::kInterferenceAware},
  };
  constexpr int kRates = 3;
  constexpr int kPolicies = 3;

  const std::vector<SimulationResult> raw = RunSweep<SimulationResult>(
      workers, kRates * kPolicies * kReplicas, [&](int i) {
        const int cell = i / kReplicas;
        const int replica = i % kReplicas;
        const RateVariant& rate = rates[cell / kPolicies];
        const PolicyVariant& policy = policies[cell % kPolicies];

        Simulator sim;
        Cluster cluster(&sim);
        cluster.AddNodes(nodes, Resources{cores_per_node, GiB(64)},
                         StorageMedium::Nvm());

        SchedulerConfig config;
        // kWait isolates the dump-admission mechanism: no preemption churn,
        // so every cell's trajectory is identical until the first crash and
        // the only dump traffic is the periodic checkpoint stream.
        config.policy = PreemptionPolicy::kWait;
        config.medium = StorageMedium::Nvm();
        config.interference.enabled = true;
        config.interference.shared_bw = MBps(150);
        config.dump_scheduler.policy = policy.policy;
        config.dump_scheduler.max_concurrent = 2;
        config.dump_scheduler.min_share = MBps(50);
        config.dump_scheduler.max_defer = Minutes(20);
        // Fixed assumed MTBF in every row (operators provision checkpoint
        // cadence for the expected failure rate, not the realized one) —
        // the rows then differ only in the crashes actually injected.
        config.periodic_ckpt_mtbf = Hours(2 * nodes);
        ClusterScheduler scheduler(&sim, &cluster, config);
        scheduler.Submit(workload);
        if (rate.crash_every_h > 0) {
          for (int hour = rate.crash_every_h; hour <= 20;
               hour += rate.crash_every_h) {
            scheduler.InjectNodeFailure(
                NodeId(hour % nodes),
                Hours(hour) + Minutes(kPhaseShiftMin[replica]), Minutes(30));
          }
        }
        return scheduler.Run();
      });

  // Mean over replicas per (rate, policy) cell.
  std::vector<SimulationResult> results(kRates * kPolicies);
  for (int cell = 0; cell < kRates * kPolicies; ++cell) {
    SimulationResult mean;
    for (int rep = 0; rep < kReplicas; ++rep) {
      const SimulationResult& r =
          raw[static_cast<size_t>(cell * kReplicas + rep)];
      mean.wasted_core_hours += r.wasted_core_hours / kReplicas;
      mean.lost_work_core_hours += r.lost_work_core_hours / kReplicas;
      mean.overhead_core_hours += r.overhead_core_hours / kReplicas;
      mean.periodic_checkpoints += r.periodic_checkpoints / kReplicas;
      mean.dumps_deferred += r.dumps_deferred / kReplicas;
      mean.dump_defer_time += r.dump_defer_time / kReplicas;
      mean.makespan += r.makespan / kReplicas;
    }
    results[static_cast<size_t>(cell)] = mean;
  }

  std::vector<std::vector<std::string>> table{
      {"failures", "dump policy", "waste [ch]", "lost work [ch]",
       "overhead [ch]", "periodic", "deferred", "defer [h]", "makespan [h]"}};
  for (int r = 0; r < kRates; ++r) {
    for (int p = 0; p < kPolicies; ++p) {
      const SimulationResult& res =
          results[static_cast<size_t>(r * kPolicies + p)];
      table.push_back({rates[r].name, policies[p].name,
                       Fmt(res.wasted_core_hours, 2),
                       Fmt(res.lost_work_core_hours, 2),
                       Fmt(res.overhead_core_hours, 2),
                       std::to_string(res.periodic_checkpoints),
                       std::to_string(res.dumps_deferred),
                       Fmt(ToHours(res.dump_defer_time), 2),
                       Fmt(ToHours(res.makespan), 2)});
    }
  }
  std::fputs(RenderTable(table).c_str(), stdout);

  std::printf("\n");
  for (int r = 0; r < kRates; ++r) {
    const SimulationResult& naive = results[static_cast<size_t>(r * kPolicies)];
    const SimulationResult& aware =
        results[static_cast<size_t>(r * kPolicies + 2)];
    const double delta = naive.wasted_core_hours - aware.wasted_core_hours;
    std::printf("aware_vs_naive failures=%s waste_delta_ch=%.2f %s\n",
                rates[r].name, delta,
                delta > 0 ? "(aware wins)" : "(naive wins)");
  }
  std::printf(
      "\nReading: admitting every dump at once fair-shares the ingest pool,\n"
      "so every frozen task stays frozen longer. Capping admissions so each\n"
      "dump keeps a usable share, letting small incrementals through, and\n"
      "draining queued full images smallest-first moves the same bytes with\n"
      "less aggregate freeze time — with or without realized crashes.\n");
  return 0;
}
