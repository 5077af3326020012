// A storage device attached to one node.
//
// Operations are serialized FIFO per device, mirroring the paper's
// sequential checkpoint/restore queues (S5.2.2): "Our implementation uses
// sequential checkpoint/restore to limit the number of concurrent
// checkpoints on each node". QueueDelay() exposes the pending backlog, which
// Algorithm 1 folds into the checkpoint-overhead estimate.
//
// Completions carry a `bool ok`. Without a fault injector every op
// succeeds; with one attached (set_fault_injector), transient failures
// consume the op's full service time and then complete ok=false, and
// degraded-bandwidth windows stretch the service time. CancelOp()
// abandons a pending op: if the device already started servicing it the
// completion is merely suppressed (the hardware finishes the request and
// discards the result), but an op still waiting in the queue is removed
// outright — its service time is reclaimed and every op queued behind it
// shifts earlier, so canceled work no longer inflates QueueDelay() or
// total_busy_time().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/medium.h"

namespace ckpt {

class BandwidthDomain;
class FaultInjector;

using StorageOpId = std::uint64_t;

class StorageDevice {
 public:
  StorageDevice(Simulator* sim, StorageMedium medium, std::string label)
      : sim_(sim), medium_(std::move(medium)), label_(std::move(label)) {
    CKPT_CHECK(sim != nullptr);
  }

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  const StorageMedium& medium() const { return medium_; }
  const std::string& label() const { return label_; }

  // Attach a fault injector (null detaches). `node` locates this device
  // for degraded-bandwidth windows; an invalid id matches no window.
  void set_fault_injector(FaultInjector* injector, NodeId node = NodeId()) {
    fault_ = injector;
    node_ = node;
  }

  // Attach a shared bandwidth pool (null detaches). Successful ops then
  // drain their bytes through the pool after the device stage, fair-shared
  // with every concurrent flow from other devices, before `done(ok)` fires
  // — the DFS-ingest interference model. Failed ops skip the pool (nothing
  // reached the shared medium).
  void set_bandwidth_domain(BandwidthDomain* domain) { domain_ = domain; }
  BandwidthDomain* bandwidth_domain() const { return domain_; }

  // Enqueue a sequential write of `size` bytes; `done(ok)` fires at
  // completion. Returns the simulated completion time.
  SimTime SubmitWrite(Bytes size, std::function<void(bool)> done);
  SimTime SubmitRead(Bytes size, std::function<void(bool)> done);

  // Id of the op most recently submitted, for CancelOp().
  StorageOpId last_op_id() const { return next_op_id_ - 1; }

  // Abandon a still-pending op: `done` is never invoked and the caller
  // owns any cleanup. An op already in service keeps its timing (the
  // hardware finishes the request; only the completion is suppressed). An
  // op still queued is removed: its service time, byte counters, and
  // busy-time charge are rolled back and every later op's start/completion
  // shifts earlier deterministically. Returns false when the op already
  // completed, was already canceled, or never existed.
  bool CancelOp(StorageOpId id);

  // Pure service time (no queueing, no degradation).
  SimDuration EstimateWrite(Bytes size) const { return medium_.WriteTime(size); }
  SimDuration EstimateRead(Bytes size) const { return medium_.ReadTime(size); }

  // Time until the device drains its current backlog (Algorithm 1's
  // queue_time term).
  SimDuration QueueDelay() const {
    return busy_until_ > sim_->Now() ? busy_until_ - sim_->Now() : 0;
  }
  int PendingOps() const { return pending_ops_; }

  // Capacity accounting for stored checkpoint images.
  bool Reserve(Bytes size);
  void Release(Bytes size);
  Bytes used() const { return used_; }
  Bytes capacity() const { return medium_.capacity; }

  // Cumulative statistics (Fig. 12b's I/O-overhead accounting).
  Bytes total_bytes_written() const { return bytes_written_; }
  Bytes total_bytes_read() const { return bytes_read_; }
  SimDuration total_busy_time() const { return busy_time_; }
  std::int64_t ops_completed() const { return ops_completed_; }
  std::int64_t ops_failed() const { return ops_failed_; }
  Bytes peak_used() const { return peak_used_; }

 private:
  // One in-flight op. Kept in a map ordered by id, which is also FIFO
  // service order: later ids never start before earlier ones.
  struct PendingOp {
    SimDuration service = 0;
    Bytes bytes = 0;
    bool is_write = false;
    bool ok = true;
    SimTime start = 0;
    SimTime completion = 0;
    // Bumped when a cancellation shifts this op earlier; the completion
    // event captures the generation it was scheduled under and goes stale
    // on mismatch, so the superseded timer fires as a no-op.
    int generation = 0;
    bool canceled = false;  // started-then-canceled: suppress `done` only
    std::function<void(bool)> done;
  };

  SimTime Enqueue(SimDuration service, Bytes bytes, bool is_write, bool ok,
                  std::function<void(bool)> done);
  void ScheduleCompletion(StorageOpId id);
  void OnOpComplete(StorageOpId id, int generation);

  Simulator* sim_;
  StorageMedium medium_;
  std::string label_;
  FaultInjector* fault_ = nullptr;
  BandwidthDomain* domain_ = nullptr;
  NodeId node_;

  SimTime busy_until_ = 0;
  int pending_ops_ = 0;
  StorageOpId next_op_id_ = 1;
  std::map<StorageOpId, PendingOp> ops_;

  Bytes used_ = 0;
  Bytes peak_used_ = 0;
  Bytes bytes_written_ = 0;
  Bytes bytes_read_ = 0;
  SimDuration busy_time_ = 0;
  std::int64_t ops_completed_ = 0;
  std::int64_t ops_failed_ = 0;
};

}  // namespace ckpt
