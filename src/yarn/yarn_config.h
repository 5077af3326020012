// Configuration for the YARN-like layer (paper S5 testbed shape).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "cluster/resources.h"
#include "dfs/network.h"
#include "fault/fault.h"
#include "scheduler/policy.h"
#include "storage/medium.h"

namespace ckpt {

class Observability;

// Scheduling discipline of the ResourceManager (paper S3.1: "multiple
// scheduling policies — such as priority, fair-sharing and capacity
// scheduling — can be employed").
//  kPriority — strict priority: higher-priority asks always allocate (and
//              preempt) first.
//  kCapacity — two queues (production = priority >= 9, batch = the rest)
//              with guaranteed capacity shares. Idle capacity may be
//              borrowed; a queue under its guarantee reclaims borrowed
//              containers through preemption, but never digs into the other
//              queue's guaranteed share — so batch work cannot be starved.
enum class SchedulingMode { kPriority, kCapacity };

// Every container is 1 core / 2 GB, as on the paper's testbed.
inline constexpr Resources kContainerSize{1.0, GiB(2)};

// Sequential checkpoint/restore limit (paper S5.2.2): at most this many
// containers per node may be vacating (dumping) at a time; the remaining
// candidates keep running until the monitor's next round reaches them.
inline constexpr int kMaxVacatingPerNode = 2;

struct YarnConfig {
  // Cluster shape: the paper's 8-node testbed, 24 containers per node.
  int num_nodes = 8;
  int containers_per_node = 24;

  StorageMedium medium = StorageMedium::Hdd();
  NetworkConfig network;

  // Scheduling discipline.
  SchedulingMode scheduling_mode = SchedulingMode::kPriority;
  // Capacity mode: share of the cluster guaranteed to the production queue;
  // the batch queue is guaranteed the remainder.
  double production_guarantee = 0.5;

  // Preemption behaviour.
  PreemptionPolicy policy = PreemptionPolicy::kKill;
  bool incremental_checkpoints = true;
  double adaptive_threshold = 1.0;
  VictimOrder victim_order = VictimOrder::kCostAware;

  // Fault injection (docs/FAULTS.md). An empty plan (the default) attaches
  // no injector: no RNG draws, no behavior change.
  FaultPlan fault;
  // Engine-level retry budget for transient dump/restore I/O failures;
  // inert unless faults make I/O fail. Retries back off by RetryPolicy's
  // defaults.
  int checkpoint_retry_attempts = 3;

  // Optional metrics/trace context shared by every component of the
  // cluster; null (the default) disables observability entirely.
  Observability* obs = nullptr;

  std::uint64_t seed = 77;
};

}  // namespace ckpt
