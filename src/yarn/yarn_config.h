// Configuration for the YARN-like layer (paper S5 testbed shape).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "cluster/resources.h"
#include "dfs/dfs.h"
#include "dfs/network.h"
#include "fault/fault.h"
#include "power/energy.h"
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

struct YarnConfig {
  // Cluster shape: the paper's 8-node testbed, 24 containers per node, each
  // 1 core / 2 GB.
  int num_nodes = 8;
  int containers_per_node = 24;
  Resources container_size{1.0, GiB(2)};

  StorageMedium medium = StorageMedium::Hdd();
  NetworkConfig network;
  DfsConfig dfs;
  PowerModel power;

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

  // Sequential checkpoint/restore limit (paper S5.2.2): at most this many
  // containers per node may be vacating (dumping) at a time; the remaining
  // candidates keep running until the monitor's next round reaches them.
  int max_vacating_per_node = 2;

  // Fault injection (docs/FAULTS.md). An empty plan (the default) attaches
  // no injector: no RNG draws, no behavior change.
  FaultPlan fault;
  // Engine-level retry budget for transient dump/restore I/O failures;
  // inert unless faults make I/O fail.
  int checkpoint_retry_attempts = 3;
  SimDuration checkpoint_retry_backoff = Millis(500);
  double checkpoint_retry_multiplier = 2.0;
  // Algorithm-1-aware fallback: after this many consecutive dump failures
  // a task stops checkpointing and is killed on preemption instead.
  int max_checkpoint_failures = 3;

  // Optional metrics/trace context shared by every component of the
  // cluster; null (the default) disables observability entirely.
  Observability* obs = nullptr;

  // Plumbing.
  SimDuration rpc_latency = Millis(1);
  Bytes image_page_size = kMiB;  // coarse pages keep big runs cheap

  std::uint64_t seed = 77;
};

}  // namespace ckpt
