// Figure 3: Google trace-driven simulation, four preemption policies.
//  (a) wasted CPU capacity [core-hours]
//  (b) energy consumption [kWh]
//  (c) job response time per priority band, normalized to Kill.
//
// Paper shapes: Kill wastes ~35% of capacity (~3,400 core-hours at paper
// scale); checkpointing cuts wastage to ~14.6/11.1/8.5% on HDD/SSD/NVM; NVM
// trims energy ~5%; low/medium-priority response improves with faster media
// (NVM: -74%/-23%) while high priority suffers on slow media.
#include <array>
#include <cstdio>

#include "bench_common.h"

using namespace ckpt;
using namespace ckpt::bench;

int main(int argc, char** argv) {
  const int workers = ExtractJobsFlag(&argc, argv);
  const int jobs = argc > 1 ? std::atoi(argv[1]) : 2000;
  const Workload workload = GoogleDayWorkload(jobs);
  std::printf("Fig 3 | one-day Google-like trace: %zu jobs, %lld tasks\n",
              workload.jobs.size(),
              static_cast<long long>(workload.TotalTasks()));

  // One cell per policy row; cells run on private simulators (the workload
  // is shared read-only), so --jobs N changes wall time, never output.
  struct Cell {
    std::string name;
    TraceSimOptions options;
  };
  std::vector<Cell> cells;
  {
    TraceSimOptions kill;
    kill.policy = PreemptionPolicy::kKill;
    // The stock scheduler does not pick victims by checkpoint cost; it
    // kills whatever occupies the slots the high-priority task wants.
    kill.victim_order = VictimOrder::kRandom;
    cells.push_back({"Kill", kill});
  }
  for (MediaKind kind : {MediaKind::kHdd, MediaKind::kSsd, MediaKind::kNvm}) {
    TraceSimOptions chk;
    chk.policy = PreemptionPolicy::kCheckpoint;
    chk.medium = MediumFor(kind);
    cells.push_back({std::string("Chk-") + MediaName(kind), chk});
  }

  // With CKPT_OBS=1 each cell records into a private Observability and the
  // metric snapshots are combined in cell order (identical for any --jobs),
  // mirroring bench_fig8_yarn.
  const bool obs_enabled = ObsEnabled();
  struct CellOutput {
    SimulationResult result;
    std::string metrics_entry;
  };
  const std::vector<CellOutput> outputs = RunSweep<CellOutput>(
      workers, static_cast<int>(cells.size()), [&](int i) {
        CellOutput out;
        Observability obs;
        TraceSimOptions options = cells[i].options;
        if (obs_enabled) options.obs = &obs;
        out.result = RunTraceSim(workload, options);
        if (obs_enabled) {
          out.metrics_entry = "{\"name\":\"" + cells[i].name +
                              "\",\"metrics\":" + obs.metrics().ToJson() + "}";
          // Per-cell decision audit stream; cells write distinct files, so
          // this is safe under --jobs N and deterministic per cell.
          const std::string audit_path = ObsPath(
              "bench_fig3_trace_sim." + cells[i].name + ".audit.jsonl");
          if (!obs.WriteAuditJsonl(audit_path)) {
            std::fprintf(stderr, "obs: cannot write %s\n", audit_path.c_str());
          }
        }
        return out;
      });

  struct Row {
    std::string name;
    SimulationResult result;
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
    WriteObsFile("bench_fig3_trace_sim.metrics.json", metrics_json);
  }

  PrintHeader("Fig 3a: Resource wastage");
  std::vector<std::vector<std::string>> wastage{
      {"policy", "wasted core-hours", "% of busy capacity"}};
  for (const Row& row : rows) {
    wastage.push_back({row.name, Fmt(row.result.wasted_core_hours, 1),
                       Fmt(100.0 * row.result.WastedFraction(), 1)});
  }
  std::fputs(RenderTable(wastage).c_str(), stdout);

  PrintHeader("Fig 3b: Energy consumption");
  std::vector<std::vector<std::string>> energy{{"policy", "kWh"}};
  for (const Row& row : rows) {
    energy.push_back({row.name, Fmt(row.result.energy_kwh, 1)});
  }
  std::fputs(RenderTable(energy).c_str(), stdout);

  PrintHeader("Fig 3c: Job response time normalized to Kill");
  std::vector<std::vector<std::string>> response{
      {"policy", "Low", "Medium", "High"}};
  const SimulationResult& kill = rows.front().result;
  for (const Row& row : rows) {
    std::vector<std::string> line{row.name};
    for (size_t band = 0; band < 3; ++band) {
      const double base = kill.job_response_by_band[band].Mean();
      const double mean = row.result.job_response_by_band[band].Mean();
      line.push_back(Fmt(base > 0 ? mean / base : 0.0, 3));
    }
    response.push_back(std::move(line));
  }
  std::fputs(RenderTable(response).c_str(), stdout);

  PrintHeader("Bookkeeping");
  for (const Row& row : rows) {
    std::printf(
        "  %-8s preemptions=%lld kills=%lld checkpoints=%lld (incr=%lld) "
        "restores=%lld/%lld (local/remote)\n",
        row.name.c_str(), static_cast<long long>(row.result.preemptions),
        static_cast<long long>(row.result.kills),
        static_cast<long long>(row.result.checkpoints),
        static_cast<long long>(row.result.incremental_checkpoints),
        static_cast<long long>(row.result.local_restores),
        static_cast<long long>(row.result.remote_restores));
  }
  std::printf(
      "\nPaper: Kill wastes ~35%% of capacity; Chk-HDD/SSD/NVM -> "
      "14.6/11.1/8.5%%; NVM cuts energy ~5%%; low/medium RT drop 74%%/23%% "
      "on NVM with high-priority comparable.\n");
  return 0;
}
