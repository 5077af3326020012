// Parameterized DAG shape sweeps: chains, fan-outs, fan-ins and layered
// meshes must all complete under every preemption policy, with every task
// of every job done.
#include <gtest/gtest.h>

#include <tuple>

#include "dag/dag.h"

namespace ckpt {
namespace {

enum class Shape { kChain, kFanOut, kFanIn, kLayeredMesh };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kChain: return "chain";
    case Shape::kFanOut: return "fan-out";
    case Shape::kFanIn: return "fan-in";
    case Shape::kLayeredMesh: return "mesh";
  }
  return "?";
}

DagJobSpec BuildShape(Shape shape, JobId id) {
  DagJobSpec job;
  job.id = id;
  job.priority = 1;
  auto stage = [](int sid, std::vector<int> deps, int tasks) {
    DagStageSpec s;
    s.id = sid;
    s.depends_on = std::move(deps);
    s.num_tasks = tasks;
    s.task_duration = Seconds(20);
    s.output_bytes = MiB(32);
    s.demand = Resources{1.0, GiB(1)};
    return s;
  };
  switch (shape) {
    case Shape::kChain:
      for (int i = 0; i < 5; ++i) {
        job.stages.push_back(
            stage(i, i == 0 ? std::vector<int>{} : std::vector<int>{i - 1}, 2));
      }
      break;
    case Shape::kFanOut:
      job.stages.push_back(stage(0, {}, 2));
      for (int i = 1; i <= 4; ++i) {
        job.stages.push_back(stage(i, {0}, 2));
      }
      break;
    case Shape::kFanIn:
      for (int i = 0; i < 4; ++i) {
        job.stages.push_back(stage(i, {}, 2));
      }
      job.stages.push_back(stage(4, {0, 1, 2, 3}, 2));
      break;
    case Shape::kLayeredMesh:
      // Two layers of two stages each, fully connected between layers, plus
      // a sink.
      job.stages.push_back(stage(0, {}, 2));
      job.stages.push_back(stage(1, {}, 2));
      job.stages.push_back(stage(2, {0, 1}, 2));
      job.stages.push_back(stage(3, {0, 1}, 2));
      job.stages.push_back(stage(4, {2, 3}, 1));
      break;
  }
  return job;
}

int TotalTasks(const DagJobSpec& job) {
  int total = 0;
  for (const DagStageSpec& stage : job.stages) total += stage.num_tasks;
  return total;
}

class DagShapeSweep
    : public ::testing::TestWithParam<std::tuple<Shape, PreemptionPolicy>> {};

TEST_P(DagShapeSweep, CompletesWithConservation) {
  const auto [shape, policy] = GetParam();
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 3;  // force multiple waves
  config.policy = policy;
  config.medium = StorageMedium::Nvm();

  std::vector<DagJobSpec> jobs;
  jobs.push_back(BuildShape(shape, JobId(0)));
  // A competing burst stresses preemption for the non-wait policies.
  DagJobSpec burst;
  burst.id = JobId(1);
  burst.submit_time = Seconds(15);
  burst.priority = 9;
  DagStageSpec s;
  s.id = 100;
  s.num_tasks = 6;
  s.task_duration = Seconds(25);
  s.demand = Resources{1.0, GiB(1)};
  burst.stages.push_back(s);
  jobs.push_back(burst);

  const YarnResult result = RunDagWorkload(jobs, config);
  EXPECT_EQ(result.jobs_completed, 2) << ShapeName(shape);
  EXPECT_EQ(result.tasks_completed, TotalTasks(jobs[0]) + 6)
      << ShapeName(shape);
  if (policy == PreemptionPolicy::kCheckpoint) {
    EXPECT_EQ(result.lost_work_core_hours, 0) << ShapeName(shape);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DagShapeSweep,
    ::testing::Combine(::testing::Values(Shape::kChain, Shape::kFanOut,
                                         Shape::kFanIn, Shape::kLayeredMesh),
                       ::testing::Values(PreemptionPolicy::kKill,
                                         PreemptionPolicy::kCheckpoint,
                                         PreemptionPolicy::kAdaptive)));

}  // namespace
}  // namespace ckpt
