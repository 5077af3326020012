// CRIU-like checkpoint/restore engine.
//
// Dumping collects a process's state (process tree, fds, registers —
// modelled as a small metadata blob — plus memory content) and streams it to
// a CheckpointStore; restoring streams it back. Incremental dumps use the
// MemoryImage soft-dirty bits to write only pages modified since the
// previous dump, reproducing the paper's Table 3 behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "checkpoint/memory_image.h"
#include "checkpoint/checkpoint_store.h"
#include "sim/simulator.h"

namespace ckpt {

class Counter;
class FaultInjector;
class Histogram;
class Observability;

// Kernel-object metadata CRIU dumps besides memory (proc tree, fds,
// netlinks, register sets); small and roughly constant per process. Every
// image carries it, whichever scheduler front-end took the dump.
inline constexpr Bytes kCheckpointMetadataBytes = 512 * kKiB;

// The checkpointable view of one running task's process tree.
struct ProcessState {
  TaskId task;
  MemoryImage memory;
  Bytes metadata_bytes = kCheckpointMetadataBytes;

  // Image bookkeeping, maintained by the engine.
  bool has_image = false;
  std::string image_path;
  ImageId image_id;       // interned form of image_path (store hot-path key)
  NodeId image_node;      // node that produced the latest dump
  Bytes image_bytes = 0;  // logical restore size (base + layers)
  int dump_count = 0;
  // Cancellation epoch: CheckpointEngine::CancelInflight bumps it, and any
  // dump/restore completion whose captured epoch no longer matches skips
  // its state commit (so a late I/O completion cannot resurrect an image
  // unwound by a node failure).
  std::int64_t io_epoch = 0;

  ProcessState(TaskId id, Bytes memory_size, Bytes page_size = 4 * kKiB)
      : task(id), memory(memory_size, page_size) {}
};

struct DumpOptions {
  // Write only the pages dirtied since the last image when one exists; a
  // full dump replaces the previous image once it is stored.
  bool incremental = true;
};

struct DumpResult {
  bool ok = false;
  bool was_incremental = false;
  Bytes bytes_written = 0;
  SimDuration duration = 0;
};

struct RestoreResult {
  bool ok = false;
  bool was_remote = false;
  // The image read fine but failed integrity verification; the engine has
  // already discarded it, so the caller must restart from scratch rather
  // than retry.
  bool corrupt = false;
  Bytes bytes_read = 0;
  SimDuration duration = 0;
};

// Transient-failure retry budget for dump/restore I/O. Attempt n waits
// backoff * multiplier^(n-1), clamped to max_backoff, before re-issuing;
// max_attempts = 1 disables retries (the default, preserving pre-fault
// behavior). The clamp keeps long fault windows from growing the delay
// geometrically past simulation end.
struct RetryPolicy {
  int max_attempts = 1;
  SimDuration backoff = Millis(500);
  double multiplier = 2.0;
  SimDuration max_backoff = Minutes(5);
};

class CheckpointEngine {
 public:
  CheckpointEngine(Simulator* sim, CheckpointStore* store,
                   Observability* obs = nullptr);

  CheckpointEngine(const CheckpointEngine&) = delete;
  CheckpointEngine& operator=(const CheckpointEngine&) = delete;

  // Suspend `proc` on `node`, persist its state, and invoke `done`. The
  // process's soft-dirty tracking restarts on success.
  void Dump(ProcessState& proc, NodeId node, const DumpOptions& opts,
            std::function<void(DumpResult)> done);

  // Restore `proc` on `node` from its latest image.
  void Restore(ProcessState& proc, NodeId node,
               std::function<void(RestoreResult)> done);

  // Drop the stored image (e.g. after the task finishes).
  void Discard(ProcessState& proc);

  // Abandon any in-flight dump/restore for `proc`: pending completions and
  // queued retries see a stale epoch and neither commit state nor invoke
  // further retries. Call when the initiator dies (node failure, kill).
  void CancelInflight(ProcessState& proc) { ++proc.io_epoch; }

  // Retry budget for transient dump/restore failures.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Optional fault injector (null disables image-corruption draws).
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  // Bytes the next dump would write (dirty pages + metadata, or the full
  // image when incremental dumping is unavailable).
  Bytes DumpBytes(const ProcessState& proc, bool incremental) const;

  // Algorithm 1 inputs. The dump estimate is service time only: callers
  // holding an explicit checkpoint-queue slot add the wait term themselves.
  // The restore estimate includes the store's current queue backlog.
  SimDuration EstimateDumpService(const ProcessState& proc, NodeId node,
                                  bool incremental) const;
  SimDuration EstimateRestore(const ProcessState& proc, NodeId node,
                              bool local) const;
  SimDuration EstimateRestoreService(const ProcessState& proc, NodeId node,
                                     bool local) const;

  CheckpointStore& store() { return *store_; }

  // Cumulative engine statistics (Fig. 12 overhead accounting).
  std::int64_t dumps_completed() const { return dumps_; }
  std::int64_t incremental_dumps() const { return incremental_dumps_; }
  std::int64_t restores_completed() const { return restores_; }
  std::int64_t dump_retries() const { return dump_retries_; }
  std::int64_t restore_retries() const { return restore_retries_; }
  std::int64_t corrupt_images_detected() const { return corrupt_images_; }
  Bytes total_dump_bytes() const { return dump_bytes_; }
  Bytes total_restore_bytes() const { return restore_bytes_; }
  SimDuration total_dump_time() const { return dump_time_; }
  SimDuration total_restore_time() const { return restore_time_; }

 private:
  std::string ImagePath(const ProcessState& proc) const;
  void DumpAttempt(ProcessState& proc, NodeId node, DumpOptions opts,
                   int attempt, std::function<void(DumpResult)> done);
  void RestoreAttempt(ProcessState& proc, NodeId node, int attempt,
                      std::function<void(RestoreResult)> done);
  SimDuration BackoffDelay(int attempt) const;
  // Record a retry: counter + trace instant, plus the backoff delay
  // charged to the waste ledger's fault_retry cause against `node`.
  void CountRetry(const char* op, SimDuration backoff, NodeId node);

  // Per-node observability handles, resolved lazily one series at a time so
  // the emitted series set stays exactly what the run actually touched, but
  // each dump/restore completion stops re-building label maps and series
  // keys.
  struct NodeObs {
    Counter* dump_count_full = nullptr;
    Counter* dump_count_incremental = nullptr;
    Histogram* dump_seconds = nullptr;
    Counter* dump_bytes = nullptr;
    Counter* restore_count_local = nullptr;
    Counter* restore_count_remote = nullptr;
    Histogram* restore_seconds = nullptr;
    Counter* restore_bytes = nullptr;
  };
  NodeObs& ObsFor(NodeId node);

  Simulator* sim_;
  CheckpointStore* store_;
  Observability* obs_;
  FaultInjector* fault_ = nullptr;
  RetryPolicy retry_;
  std::int64_t next_image_ = 0;
  std::int64_t dumps_ = 0;
  std::int64_t incremental_dumps_ = 0;
  std::int64_t restores_ = 0;
  std::int64_t dump_retries_ = 0;
  std::int64_t restore_retries_ = 0;
  std::int64_t corrupt_images_ = 0;
  std::vector<NodeObs> node_obs_;  // indexed by node id (dense)
  Bytes dump_bytes_ = 0;
  Bytes restore_bytes_ = 0;
  SimDuration dump_time_ = 0;
  SimDuration restore_time_ = 0;
};

}  // namespace ckpt
