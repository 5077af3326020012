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
// inputs, killing forfeits both.
//
// MapReduce (src/mapreduce) is the two-stage special case of this engine.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/resources.h"
#include "common/ids.h"
#include "common/units.h"
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

struct DagStats {
  std::int64_t tasks_done = 0;
  std::unordered_map<int, std::int64_t> done_by_stage;
  std::int64_t preempt_events = 0;
  std::int64_t kills = 0;
  std::int64_t checkpoints = 0;
  std::int64_t incremental_checkpoints = 0;
  std::int64_t restores = 0;
  std::int64_t input_fetches = 0;  // including refetches after kills
  Bytes input_bytes_moved = 0;
  SimDuration lost_work = 0;
  SimDuration dump_time = 0;
  SimDuration restore_time = 0;
};

// Run a set of DAG jobs on a fresh YarnCluster built from `config`, faults
// and observability included.
struct DagRunResult {
  std::int64_t jobs_completed = 0;
  DagStats totals;
  std::vector<double> job_response_seconds;
  SimDuration makespan = 0;
};

DagRunResult RunDagWorkload(const std::vector<DagJobSpec>& jobs,
                            const YarnConfig& config);

}  // namespace ckpt
