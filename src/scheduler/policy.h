// Preemption policy vocabulary and the paper's Algorithms 1 and 2 as pure,
// independently testable decision functions.
//
// Algorithm 1 (adaptive preemption): estimate the total checkpoint overhead
//   overhead = size/bw_write + size/bw_read + queue_time_dump
// and checkpoint the victim only when its (unsaved) progress exceeds the
// overhead; otherwise kill it. Victims with an earlier image are dumped
// incrementally.
//
// Algorithm 2 (adaptive resumption): tasks without an image restart from
// scratch; otherwise restore locally or remotely, whichever overhead is
// smaller:
//   overhead_local  = size/bw_read + queue_time_local
//   overhead_remote = size/bw_net + size/bw_read + queue_time_remote
//
// Both scheduler front-ends (ClusterScheduler and the YARN AM) keep their
// tasks' progress in a TaskProgress and map a policy to an action with
// ActionForPolicy; each supplies its own cost terms.
#pragma once

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace ckpt {

enum class PreemptionPolicy {
  kWait,        // never preempt: arrivals queue behind running work
  kKill,        // stock YARN/Google behaviour: kill victims
  kCheckpoint,  // "basic": always checkpoint victims
  kAdaptive,    // Algorithm 1
};

const char* PolicyName(PreemptionPolicy policy);

enum class RestorePolicy {
  kAlwaysLocal,   // ablation: resume only on the checkpointing node
  kAlwaysRemote,  // ablation: always move the image
  kAdaptive,      // Algorithm 2
};

enum class VictimOrder {
  kCostAware,       // lowest checkpoint cost first (paper S5.2.2)
  kLowestPriority,  // priority, then most recently started
  kRandom,          // ablation baseline
};

// --- Task progress ---------------------------------------------------------
// One task's work ledger: validated work, the part of it an image holds, and
// the run time since the last committed dump. A kill loses Unsaved(); an
// incremental dump writes the DirtyFraction() of the footprint that the
// exposure rewrote (soft-dirty tracking, S3.2 and Table 3).
struct TaskProgress {
  SimTime run_start = -1;      // start of the current run; -1 while stopped
  SimDuration work_done = 0;   // validated work up to the last Stop
  SimDuration saved_work = 0;  // captured in the image
  SimDuration unsynced = 0;    // stopped run time since the last Commit

  bool running() const { return run_start >= 0; }
  void Start(SimTime now) { run_start = now; }
  // End the current run: its span joins work_done and unsynced.
  void Stop(SimTime now) {
    const SimDuration span = now - run_start;
    work_done += span;
    unsynced += span;
    run_start = -1;
  }
  // Work a kill at `now` would lose.
  SimDuration Unsaved(SimTime now) const {
    return work_done - saved_work + (running() ? now - run_start : 0);
  }
  // Run time since the last committed dump.
  SimDuration Exposure(SimTime now) const {
    return unsynced + (running() ? now - run_start : 0);
  }
  // Share of the footprint rewritten over Exposure(now) by a task that
  // rewrites `write_rate` of it per second.
  double DirtyFraction(SimTime now, double write_rate) const {
    return std::min(1.0, write_rate * ToSeconds(Exposure(now)));
  }
  // A dump committed: the image holds all work done so far.
  void Commit() {
    saved_work = work_done;
    unsynced = 0;
  }
  // Back to the image: work since it is gone.
  void RollBack() {
    run_start = -1;
    work_done = saved_work;
    unsynced = 0;
  }
};

// --- Algorithm 1 -----------------------------------------------------------

// After this many consecutive failed dumps of one task, Algorithm 1 kills it
// instead of checkpointing again: its dumps cost overhead and save nothing.
// ClusterScheduler likewise gives up on an image after this many failed
// restores.
inline constexpr int kMaxCheckpointFailures = 3;

struct CheckpointCost {
  Bytes dump_bytes = 0;     // what the next dump would write
  Bytes restore_bytes = 0;  // what a later restore would read
  Bandwidth write_bw = 0;
  Bandwidth read_bw = 0;
  SimDuration dump_queue_time = 0;  // wait behind other checkpoint ops
  // Interference-aware terms (defaults are neutral / byte-identical).
  // Fair-share slowdown the dump would see on the shared ingest domain
  // (>= 1; stretches the write term).
  double write_contention = 1.0;
  // Expected wait for a cooperative dump-scheduler admission slot.
  SimDuration admit_delay = 0;
};

// Total suspend-resume overhead as Algorithm 1 estimates it.
SimDuration EstimateCheckpointOverhead(const CheckpointCost& cost);

enum class PreemptAction { kKill, kCheckpointFull, kCheckpointIncremental };

// "kill", "checkpoint_full" or "checkpoint_incremental": the action's
// spelling in audit records and the policy.decisions counter.
const char* ActionName(PreemptAction action);

// Decide kill vs (incremental) checkpoint for one victim.
//  `unsaved_progress` — work that dies with the task if killed;
//  `overhead`         — EstimateCheckpointOverhead result;
//  `has_prior_image`  — enables the incremental path;
//  `threshold`        — scaling knob on the progress>overhead comparison
//                       (1.0 reproduces the paper; swept by the ablation).
PreemptAction DecidePreemption(SimDuration unsaved_progress,
                               SimDuration overhead, bool has_prior_image,
                               double threshold = 1.0);

// The action `policy` takes for one victim: kill kills, checkpoint always
// checkpoints (incrementally when `can_increment`), and adaptive returns
// `algorithm1()`, the front-end's Algorithm 1 over its own cost terms. The
// wait policy never preempts.
template <typename Algorithm1>
PreemptAction ActionForPolicy(PreemptionPolicy policy, bool can_increment,
                              const Algorithm1& algorithm1) {
  switch (policy) {
    case PreemptionPolicy::kWait:
      CKPT_CHECK(false) << "wait policy never preempts";
      break;
    case PreemptionPolicy::kKill:
      break;
    case PreemptionPolicy::kCheckpoint:
      return can_increment ? PreemptAction::kCheckpointIncremental
                           : PreemptAction::kCheckpointFull;
    case PreemptionPolicy::kAdaptive:
      return algorithm1();
  }
  return PreemptAction::kKill;
}

// --- Service extension of Algorithm 1 --------------------------------------
// For a long-running service replica, killing loses no batch work — the
// costs are SLO-violation seconds (capacity missing while the replica is
// down or frozen) plus the cores a checkpoint burns. Kill restarts the
// replica cold (warmup at reduced capacity); checkpoint freezes it for the
// dump but resumes it warm.

struct ServicePreemptCost {
  // Estimated SLO damage of a kill: replica down until rescheduled, then a
  // cold warmup at reduced capacity.
  double kill_violation_s = 0;
  // Estimated SLO damage of a checkpoint: replica frozen for the dump (and
  // the later restore read-back).
  double ckpt_violation_s = 0;
  // Frozen-core time the checkpoint burns (EstimateCheckpointOverhead).
  SimDuration ckpt_overhead = 0;
};

// Kill iff the kill's violation cost is no worse than `threshold` times the
// checkpoint's total cost (violation seconds plus frozen-core seconds). In
// a traffic trough both violation terms are ~0 and the checkpoint still
// pays its overhead, so troughs kill; near a peak the cold-restart damage
// dominates the short freeze, so peaks checkpoint.
PreemptAction DecideServicePreemption(const ServicePreemptCost& cost,
                                      bool has_prior_image,
                                      double threshold = 1.0);

// --- Algorithm 2 -----------------------------------------------------------

struct RestoreCost {
  Bytes image_bytes = 0;
  Bandwidth read_bw = 0;
  Bandwidth net_bw = 0;
  SimDuration local_queue_time = 0;
  SimDuration remote_queue_time = 0;
};

SimDuration EstimateLocalRestore(const RestoreCost& cost);
SimDuration EstimateRemoteRestore(const RestoreCost& cost);

enum class RestoreChoice { kRestart, kLocal, kRemote };

RestoreChoice DecideRestore(bool has_image, SimDuration local_overhead,
                            SimDuration remote_overhead);

}  // namespace ckpt
