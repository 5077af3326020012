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
// degraded-bandwidth windows stretch the service time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/medium.h"

namespace ckpt {

class BandwidthDomain;
class FaultInjector;

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
  // Queue an op behind the backlog; its completion event carries the op.
  SimTime Enqueue(SimDuration service, Bytes bytes, bool ok,
                  std::function<void(bool)> done);
  void OnOpComplete(Bytes bytes, bool ok, std::function<void(bool)> done);

  Simulator* sim_;
  StorageMedium medium_;
  std::string label_;
  FaultInjector* fault_ = nullptr;
  BandwidthDomain* domain_ = nullptr;
  NodeId node_;

  SimTime busy_until_ = 0;
  int pending_ops_ = 0;

  Bytes used_ = 0;
  Bytes peak_used_ = 0;
  Bytes bytes_written_ = 0;
  Bytes bytes_read_ = 0;
  SimDuration busy_time_ = 0;
  std::int64_t ops_completed_ = 0;
  std::int64_t ops_failed_ = 0;
};

}  // namespace ckpt
