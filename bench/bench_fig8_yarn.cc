// Figure 8: YARN implementation, kill-based vs checkpoint-based preemption
// on HDD / SSD / NVM.
//  (a) CPU wastage [core-hours]   (b) energy [kWh]
//  (c) average response time [min] for low- and high-priority jobs.
//
// Paper: the stock scheduler wastes ~28% of CPU time; checkpointing cuts
// wastage 50/65/67% on HDD/SSD/NVM and energy 21/29/34%; low-priority
// response drops 18/53/61% while high-priority is worse on HDD/SSD and
// comparable on NVM.
#include <cstdio>

#include "bench_yarn_common.h"

using namespace ckpt;
using namespace ckpt::bench;

int main(int argc, char** argv) {
  const int workers = ExtractJobsFlag(&argc, argv);
  const int tasks = argc > 1 ? std::atoi(argv[1]) : 7000;
  const Workload workload = FacebookYarnWorkload(40, tasks);
  std::printf("Fig 8 | Facebook-derived workload: %zu jobs, %lld tasks, "
              "8 nodes x 24 containers\n",
              workload.jobs.size(),
              static_cast<long long>(workload.TotalTasks()));

  // With CKPT_OBS=1 each policy row gets its own Observability (the rows are
  // independent sim timelines, so they get separate trace and decision
  // audit files); metric snapshots are combined into one
  // bench_fig8_yarn.metrics.json. Rows are independent cells: each run
  // holds a private Observability and its own files, and per-row metrics
  // JSON is assembled after the sweep so the file is identical for any
  // --jobs value.
  const bool obs_enabled = ObsEnabled();
  struct Cell {
    std::string name;
    YarnBenchOptions options;
  };
  std::vector<Cell> cells;
  {
    YarnBenchOptions kill;
    kill.policy = PreemptionPolicy::kKill;
    kill.victim_order = VictimOrder::kRandom;  // stock YARN victim choice
    kill.media = MediaKind::kHdd;
    cells.push_back({"Kill", kill});
  }
  for (MediaKind kind : {MediaKind::kHdd, MediaKind::kSsd, MediaKind::kNvm}) {
    YarnBenchOptions chk;
    chk.policy = PreemptionPolicy::kCheckpoint;
    chk.media = kind;
    cells.push_back({std::string("Chk-") + MediaName(kind), chk});
  }

  struct CellOutput {
    YarnResult result;
    std::string metrics_entry;
  };
  const std::vector<CellOutput> outputs = RunSweep<CellOutput>(
      workers, static_cast<int>(cells.size()), [&](int i) {
        CellOutput out;
        Observability obs;
        YarnBenchOptions options = cells[i].options;
        if (obs_enabled) options.obs = &obs;
        out.result = RunYarn(workload, options);
        if (obs_enabled) {
          const std::string base = ObsPath("bench_fig8_yarn." + cells[i].name);
          if (!obs.WriteChromeTrace(base + ".trace.json")) {
            std::fprintf(stderr, "obs: cannot write %s.trace.json\n",
                         base.c_str());
          }
          if (!obs.WriteAuditJsonl(base + ".audit.jsonl")) {
            std::fprintf(stderr, "obs: cannot write %s.audit.jsonl\n",
                         base.c_str());
          }
          out.metrics_entry = "{\"name\":\"" + cells[i].name +
                              "\",\"metrics\":" + obs.metrics().ToJson() + "}";
        }
        return out;
      });

  struct Row {
    std::string name;
    YarnResult result;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < cells.size(); ++i) {
    rows.push_back({cells[i].name, outputs[i].result});
  }
  if (obs_enabled) {
    std::string metrics_json = "{\"runs\":[";
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) metrics_json += ",";
      metrics_json += outputs[i].metrics_entry;
    }
    metrics_json += "]}\n";
    WriteObsFile("bench_fig8_yarn.metrics.json", metrics_json);
  }

  const YarnResult& kill = rows.front().result;

  PrintHeader("Fig 8a: Resource wastage");
  std::vector<std::vector<std::string>> wastage{
      {"policy", "wasted core-hours", "vs Kill"}};
  for (const Row& row : rows) {
    wastage.push_back(
        {row.name, Fmt(row.result.wasted_core_hours, 2),
         Fmt(100.0 * (1.0 - row.result.wasted_core_hours /
                                kill.wasted_core_hours), 0) + "% less"});
  }
  std::fputs(RenderTable(wastage).c_str(), stdout);

  PrintHeader("Fig 8b: Energy consumption");
  std::vector<std::vector<std::string>> energy{{"policy", "kWh", "vs Kill"}};
  for (const Row& row : rows) {
    energy.push_back({row.name, Fmt(row.result.energy_kwh, 2),
                      Fmt(100.0 * (1.0 - row.result.energy_kwh /
                                             kill.energy_kwh), 0) + "% less"});
  }
  std::fputs(RenderTable(energy).c_str(), stdout);

  PrintHeader("Fig 8c: Average job response time [min]");
  std::vector<std::vector<std::string>> response{
      {"policy", "low priority", "high priority"}};
  for (const Row& row : rows) {
    response.push_back(
        {row.name, Fmt(row.result.low_priority_job_responses.Mean() / 60, 2),
         Fmt(row.result.high_priority_job_responses.Mean() / 60, 2)});
  }
  std::fputs(RenderTable(response).c_str(), stdout);

  PrintHeader("Bookkeeping");
  for (const Row& row : rows) {
    std::printf(
        "  %-8s preempt-events=%lld kills=%lld checkpoints=%lld (incr=%lld) "
        "restores=%lld (remote=%lld) storage-peak=%.1f%%\n",
        row.name.c_str(), static_cast<long long>(row.result.preempt_events),
        static_cast<long long>(row.result.kills),
        static_cast<long long>(row.result.checkpoints),
        static_cast<long long>(row.result.incremental_checkpoints),
        static_cast<long long>(row.result.restores),
        static_cast<long long>(row.result.remote_restores),
        100.0 * row.result.storage_used_fraction);
  }
  std::printf(
      "\nPaper: wastage -50/-65/-67%% and energy -21/-29/-34%% on "
      "HDD/SSD/NVM vs Kill; low-pri RT -18/-53/-61%%; high-pri worse on "
      "HDD/SSD, comparable on NVM.\n");
  return 0;
}
