// MapReduce on the YARN substrate (the paper's future work: "apply the
// proposed approach to a wider range of applications, including MapReduce").
//
// MapReduce is the two-stage special case of the general DAG engine
// (src/dag): a map stage with no dependencies feeding a reduce stage whose
// tasks fetch their shuffle partitions from the map output nodes. All
// preemption behaviour — Algorithm 1 with the shuffle-refetch cost on the
// at-stake side, incremental dumps, Algorithm-2 resumption — comes from the
// YARN ApplicationMaster the DAG engine runs on; this header provides the
// MapReduce-shaped job spec and its lowering. Runs report through the
// YarnResult of every YARN run.
#pragma once

#include <vector>

#include "common/units.h"
#include "dag/dag.h"

namespace ckpt {

struct MapReduceJobSpec {
  JobId id;
  SimTime submit_time = 0;
  int priority = 1;

  int num_maps = 0;
  int num_reduces = 0;
  SimDuration map_duration = Seconds(30);
  SimDuration reduce_duration = Seconds(60);
  // Shuffle bytes each map emits (split evenly across reduces).
  Bytes map_output_bytes = MiB(128);
  Resources map_demand{1.0, GiB(1)};
  Resources reduce_demand{1.0, GiB(2)};
  double memory_write_rate = 0.02;
};

// Lower a MapReduce job to its two-stage DAG (stage 0 = maps, stage 1 =
// reduces).
DagJobSpec ToDagJob(const MapReduceJobSpec& job);

// Run a set of MapReduce jobs on a fresh YARN-like cluster: the DAG run of
// their lowered jobs, whose input fetches are the shuffle fetches.
YarnResult RunMapReduceWorkload(const std::vector<MapReduceJobSpec>& jobs,
                                const YarnConfig& config);

}  // namespace ckpt
