#include "dag/dag.h"

#include <unordered_map>

#include "common/logging.h"

namespace ckpt {

bool DagJobSpec::Validate() const {
  std::unordered_map<int, int> index;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (!index.emplace(stages[i].id, static_cast<int>(i)).second) {
      return false;  // duplicate stage id
    }
  }
  for (const DagStageSpec& stage : stages) {
    if (stage.num_tasks < 0) return false;
    for (int dep : stage.depends_on) {
      if (dep == stage.id || index.count(dep) == 0) return false;
    }
  }
  // Cycle check via Kahn's algorithm.
  std::unordered_map<int, int> in_degree;
  for (const DagStageSpec& stage : stages) in_degree[stage.id] = 0;
  for (const DagStageSpec& stage : stages) {
    in_degree[stage.id] += static_cast<int>(stage.depends_on.size());
  }
  std::vector<int> ready;
  for (const auto& [id, degree] : in_degree) {
    if (degree == 0) ready.push_back(id);
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    ++visited;
    for (const DagStageSpec& stage : stages) {
      for (int dep : stage.depends_on) {
        if (dep == id && --in_degree[stage.id] == 0) {
          ready.push_back(stage.id);
        }
      }
    }
  }
  return visited == stages.size();
}

// --- Workload driver ----------------------------------------------------------

YarnResult RunDagWorkload(const std::vector<DagJobSpec>& jobs,
                          const YarnConfig& config) {
  YarnCluster yarn(config);
  for (const DagJobSpec& dag : jobs) {
    CKPT_CHECK(dag.Validate()) << "invalid DAG for job " << dag.id.value();
    // Lower to a staged job: stages in spec order, each owning the next
    // num_tasks tasks, with dependencies as stage indices.
    std::unordered_map<int, int> index;
    for (size_t s = 0; s < dag.stages.size(); ++s) {
      index[dag.stages[s].id] = static_cast<int>(s);
    }
    JobSpec job;
    job.id = dag.id;
    job.submit_time = dag.submit_time;
    job.priority = dag.priority;
    std::vector<JobStage> stages;
    for (const DagStageSpec& spec : dag.stages) {
      JobStage& stage = stages.emplace_back();
      stage.num_tasks = spec.num_tasks;
      stage.output_bytes = spec.output_bytes;
      for (int dep : spec.depends_on) stage.inputs.push_back(index.at(dep));
      for (int i = 0; i < spec.num_tasks; ++i) {
        TaskSpec& task = job.tasks.emplace_back();
        task.id = TaskId(dag.id.value() * 1000000 + spec.id * 10000 + i);
        task.job = dag.id;
        task.duration = spec.task_duration;
        task.demand = spec.demand;
        task.priority = dag.priority;
        task.memory_write_rate = dag.memory_write_rate;
      }
    }
    const std::uint64_t seed =
        config.seed ^ static_cast<std::uint64_t>(dag.id.value() * 52711);
    yarn.Submit(job, std::move(stages), seed);
  }
  return yarn.Run();
}

}  // namespace ckpt
