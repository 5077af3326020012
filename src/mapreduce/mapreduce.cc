#include "mapreduce/mapreduce.h"

#include "common/logging.h"

namespace ckpt {

namespace {
constexpr int kMapStage = 0;
constexpr int kReduceStage = 1;
}  // namespace

DagJobSpec ToDagJob(const MapReduceJobSpec& job) {
  CKPT_CHECK_GE(job.num_maps, 0);
  CKPT_CHECK_GE(job.num_reduces, 0);
  DagJobSpec dag;
  dag.id = job.id;
  dag.submit_time = job.submit_time;
  dag.priority = job.priority;
  dag.memory_write_rate = job.memory_write_rate;

  DagStageSpec maps;
  maps.id = kMapStage;
  maps.num_tasks = job.num_maps;
  maps.task_duration = job.map_duration;
  maps.demand = job.map_demand;
  maps.output_bytes = job.map_output_bytes;
  dag.stages.push_back(maps);

  DagStageSpec reduces;
  reduces.id = kReduceStage;
  reduces.depends_on = {kMapStage};
  reduces.num_tasks = job.num_reduces;
  reduces.task_duration = job.reduce_duration;
  reduces.demand = job.reduce_demand;
  dag.stages.push_back(reduces);
  return dag;
}

YarnResult RunMapReduceWorkload(const std::vector<MapReduceJobSpec>& jobs,
                                const YarnConfig& config) {
  std::vector<DagJobSpec> dag_jobs;
  dag_jobs.reserve(jobs.size());
  for (const MapReduceJobSpec& job : jobs) {
    dag_jobs.push_back(ToDagJob(job));
  }
  return RunDagWorkload(dag_jobs, config);
}

}  // namespace ckpt
