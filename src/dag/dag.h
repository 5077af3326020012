// General DAG execution framework on the YARN substrate — the Spark-like
// engine the paper's introduction motivates YARN with ("interactive SQL,
// real-time streaming, and batch processing" sharing one cluster).
//
// A job is a DAG of stages; each stage runs `num_tasks` parallel tasks and
// becomes ready when every upstream stage has finished. A downstream task
// first *fetches* its input slice from each upstream task's output node
// (Spark's shuffle / Dryad's channels), then computes. RunDagWorkload lowers
// each job to a staged job of the YARN ApplicationMaster
// (yarn/app_master.h), which carries the paper's Preemption Manager:
// Algorithm 1 decides kill vs (incremental) checkpoint per victim, with the
// input-refetch cost folded into the at-stake side for tasks that already
// hold their inputs — checkpointing preserves both progress and fetched
// inputs, killing forfeits both. The run reports through the YarnResult of
// every YARN run; its input_fetches and input_bytes_moved count the
// fetches.
//
// MapReduce (src/mapreduce) is the two-stage special case of this engine.
#pragma once

#include <vector>

#include "cluster/resources.h"
#include "common/ids.h"
#include "common/units.h"
#include "yarn/yarn_cluster.h"
#include "yarn/yarn_config.h"

namespace ckpt {

struct DagStageSpec {
  int id = 0;
  std::vector<int> depends_on;  // upstream stage ids
  int num_tasks = 1;
  SimDuration task_duration = Seconds(60);
  Resources demand{1.0, GiB(1)};
  // Bytes each task of this stage emits; a downstream stage's task fetches
  // (output_bytes / downstream.num_tasks) from every task of this stage.
  Bytes output_bytes = 0;
};

struct DagJobSpec {
  JobId id;
  SimTime submit_time = 0;
  int priority = 1;
  double memory_write_rate = 0.02;
  std::vector<DagStageSpec> stages;

  // Validation helper: ids unique, dependencies resolvable and acyclic.
  bool Validate() const;
};

// Run a set of DAG jobs on a fresh YarnCluster built from `config`, faults
// and observability included; every job must finish.
YarnResult RunDagWorkload(const std::vector<DagJobSpec>& jobs,
                          const YarnConfig& config);

}  // namespace ckpt
