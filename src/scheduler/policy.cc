#include "scheduler/policy.h"

#include "common/logging.h"

namespace ckpt {

const char* PolicyName(PreemptionPolicy policy) {
  switch (policy) {
    case PreemptionPolicy::kWait: return "Wait";
    case PreemptionPolicy::kKill: return "Kill";
    case PreemptionPolicy::kCheckpoint: return "Checkpoint";
    case PreemptionPolicy::kAdaptive: return "Adaptive";
  }
  return "?";
}

const char* ActionName(PreemptAction action) {
  switch (action) {
    case PreemptAction::kKill: return "kill";
    case PreemptAction::kCheckpointFull: return "checkpoint_full";
    case PreemptAction::kCheckpointIncremental:
      return "checkpoint_incremental";
  }
  return "unknown";
}

SimDuration EstimateCheckpointOverhead(const CheckpointCost& cost) {
  CKPT_CHECK_GE(cost.dump_bytes, 0);
  CKPT_CHECK_GE(cost.restore_bytes, 0);
  CKPT_CHECK_GE(cost.write_contention, 1.0);
  // The write term stretches by the shared-domain fair-share factor; the
  // defaults (contention 1.0, no admit delay) reproduce the paper's
  // Algorithm 1 term exactly.
  const SimDuration write_term = static_cast<SimDuration>(
      static_cast<double>(TransferTime(cost.dump_bytes, cost.write_bw)) *
      cost.write_contention);
  return write_term + TransferTime(cost.restore_bytes, cost.read_bw) +
         cost.dump_queue_time + cost.admit_delay;
}

PreemptAction DecidePreemption(SimDuration unsaved_progress,
                               SimDuration overhead, bool has_prior_image,
                               double threshold) {
  CKPT_CHECK_GT(threshold, 0.0);
  const auto scaled =
      static_cast<SimDuration>(static_cast<double>(overhead) * threshold);
  if (unsaved_progress <= scaled) return PreemptAction::kKill;
  return has_prior_image ? PreemptAction::kCheckpointIncremental
                         : PreemptAction::kCheckpointFull;
}

PreemptAction DecideServicePreemption(const ServicePreemptCost& cost,
                                      bool has_prior_image,
                                      double threshold) {
  CKPT_CHECK_GT(threshold, 0.0);
  const double kill_cost = cost.kill_violation_s;
  const double ckpt_cost =
      cost.ckpt_violation_s + ToSeconds(cost.ckpt_overhead);
  if (kill_cost <= threshold * ckpt_cost) return PreemptAction::kKill;
  return has_prior_image ? PreemptAction::kCheckpointIncremental
                         : PreemptAction::kCheckpointFull;
}

SimDuration EstimateLocalRestore(const RestoreCost& cost) {
  return TransferTime(cost.image_bytes, cost.read_bw) + cost.local_queue_time;
}

SimDuration EstimateRemoteRestore(const RestoreCost& cost) {
  return TransferTime(cost.image_bytes, cost.net_bw) +
         TransferTime(cost.image_bytes, cost.read_bw) +
         cost.remote_queue_time;
}

RestoreChoice DecideRestore(bool has_image, SimDuration local_overhead,
                            SimDuration remote_overhead) {
  if (!has_image) return RestoreChoice::kRestart;
  return local_overhead <= remote_overhead ? RestoreChoice::kLocal
                                           : RestoreChoice::kRemote;
}

}  // namespace ckpt
