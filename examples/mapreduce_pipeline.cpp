// Run a MapReduce analytics pipeline on the YARN-like substrate while a
// production burst preempts it, using adaptive checkpoint-based preemption.
//
//   $ ./build/examples/mapreduce_pipeline
#include <cstdio>

#include "mapreduce/mapreduce.h"

using namespace ckpt;

int main() {
  // A three-stage nightly pipeline (think: sessionize -> join -> aggregate)
  // expressed as three MapReduce jobs submitted back to back.
  std::vector<MapReduceJobSpec> jobs;
  const int maps[] = {32, 24, 12};
  const int reduces[] = {16, 8, 4};
  for (int stage = 0; stage < 3; ++stage) {
    MapReduceJobSpec job;
    job.id = JobId(stage);
    job.submit_time = Minutes(2 * stage);
    job.priority = 1;
    job.num_maps = maps[stage];
    job.num_reduces = reduces[stage];
    job.map_duration = Seconds(45);
    job.reduce_duration = Minutes(3);
    job.map_output_bytes = MiB(192);
    jobs.push_back(job);
  }
  // A production job barges in while the pipeline is mid-flight.
  MapReduceJobSpec production;
  production.id = JobId(10);
  production.submit_time = Minutes(3);
  production.priority = 10;
  production.num_maps = 40;
  production.num_reduces = 0;
  production.map_duration = Seconds(90);
  production.map_output_bytes = 0;
  jobs.push_back(production);

  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 24;
  config.policy = PreemptionPolicy::kAdaptive;
  config.medium = StorageMedium::Nvm();

  const YarnResult result = RunMapReduceWorkload(jobs, config);
  // The run checks that every job finished, so each ran all of its tasks.
  long long maps_done = 0;
  long long reduces_done = 0;
  for (const MapReduceJobSpec& job : jobs) {
    maps_done += job.num_maps;
    reduces_done += job.num_reduces;
  }

  std::printf("mapreduce_pipeline | 3-stage pipeline + production burst\n\n");
  std::printf("  jobs completed:     %lld of %zu\n",
              static_cast<long long>(result.jobs_completed), jobs.size());
  std::printf("  maps/reduces done:  %lld / %lld\n", maps_done,
              reduces_done);
  std::printf("  preempt events:     %lld (kills %lld, checkpoints %lld)\n",
              static_cast<long long>(result.preempt_events),
              static_cast<long long>(result.kills),
              static_cast<long long>(result.checkpoints));
  std::printf("  shuffle fetches:    %lld (%s moved)\n",
              static_cast<long long>(result.input_fetches),
              FormatBytes(result.input_bytes_moved).c_str());
  // Containers are one core, so lost core-hours are lost hours.
  std::printf("  lost work:          %s\n",
              FormatDuration(Hours(result.lost_work_core_hours)).c_str());
  std::printf("  per-job responses:  ");
  for (double r : result.all_job_responses.samples()) {
    std::printf("%.1fmin ", r / 60);
  }
  std::printf("\n  makespan:           %s\n",
              FormatDuration(result.makespan).c_str());
  return 0;
}
