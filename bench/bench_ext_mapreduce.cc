// Extension study (paper future work): checkpoint-based preemption for
// MapReduce. A batch MapReduce job's reduce phase is hit by periodic
// production bursts; killing a reduce forfeits both its merge progress and
// its fetched shuffle partition, while checkpointing preserves both
// (cf. the application-specific systems Natjam [6] and Amoeba [1] that the
// paper generalizes).
#include <cstdio>

#include "bench_common.h"
#include "mapreduce/mapreduce.h"
#include "metrics/report.h"

using namespace ckpt;
using namespace ckpt::bench;

namespace {

std::vector<MapReduceJobSpec> MrWorkload() {
  std::vector<MapReduceJobSpec> jobs;
  // The batch job: wide map phase, long shuffle-heavy reduce phase.
  MapReduceJobSpec batch;
  batch.id = JobId(0);
  batch.priority = 1;
  batch.num_maps = 48;
  batch.num_reduces = 24;
  batch.map_duration = Seconds(40);
  batch.reduce_duration = Minutes(8);
  batch.map_output_bytes = MiB(256);
  batch.reduce_demand = Resources{1.0, GiB(2)};
  jobs.push_back(batch);

  // Production bursts every 500 s during the reduce phase.
  for (int burst = 0; burst < 4; ++burst) {
    MapReduceJobSpec prod;
    prod.id = JobId(1 + burst);
    prod.priority = 9;
    prod.submit_time = Seconds(180 + 500 * burst);
    prod.num_maps = 36;
    prod.num_reduces = 0;
    prod.map_duration = Seconds(60);
    prod.map_output_bytes = 0;
    jobs.push_back(prod);
  }
  return jobs;
}

}  // namespace

int main() {
  std::printf("MapReduce extension | 48 maps + 24 reduces vs production "
              "bursts, 2 nodes x 24 containers\n");

  std::vector<std::vector<std::string>> table{
      {"policy", "medium", "batch RT [min]", "kills", "checkpoints",
       "shuffle fetches", "shuffle moved", "lost work [min]"}};

  for (auto [policy, media] :
       {std::pair{PreemptionPolicy::kKill, MediaKind::kHdd},
        std::pair{PreemptionPolicy::kCheckpoint, MediaKind::kHdd},
        std::pair{PreemptionPolicy::kAdaptive, MediaKind::kHdd},
        std::pair{PreemptionPolicy::kCheckpoint, MediaKind::kNvm},
        std::pair{PreemptionPolicy::kAdaptive, MediaKind::kNvm}}) {
    YarnConfig config;
    config.num_nodes = 2;
    config.containers_per_node = 24;
    config.policy = policy;
    config.medium = MediumFor(media);
    const YarnResult result = RunMapReduceWorkload(MrWorkload(), config);
    // The batch job has the largest response; containers are one core, so
    // lost core-hours are lost hours.
    table.push_back({PolicyName(policy), MediaName(media),
                     Fmt(result.all_job_responses.Max() / 60.0, 1),
                     std::to_string(result.kills),
                     std::to_string(result.checkpoints),
                     std::to_string(result.input_fetches),
                     FormatBytes(result.input_bytes_moved),
                     Fmt(result.lost_work_core_hours * 60.0, 1)});
  }
  std::fputs(RenderTable(table).c_str(), stdout);
  std::printf(
      "\nReading: kill-based preemption repeats shuffle fetches and merge\n"
      "work; checkpointing keeps both, and the adaptive policy only pays\n"
      "for dumps that cost less than what they save.\n");
  return 0;
}
