#include "storage/storage_device.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "storage/bandwidth_domain.h"

namespace ckpt {

SimTime StorageDevice::Enqueue(SimDuration service, Bytes bytes, bool is_write,
                               bool ok, std::function<void(bool)> done) {
  if (fault_ != nullptr) {
    const double factor = fault_->ServiceTimeFactor(node_, sim_->Now());
    if (factor > 1.0) {
      service = static_cast<SimDuration>(static_cast<double>(service) * factor);
    }
  }
  const SimTime start = std::max(busy_until_, sim_->Now());
  busy_until_ = start + service;
  busy_time_ += service;
  ++pending_ops_;
  const StorageOpId op = next_op_id_++;
  PendingOp& record = ops_[op];
  record.service = service;
  record.bytes = bytes;
  record.is_write = is_write;
  record.ok = ok;
  record.start = start;
  record.completion = busy_until_;
  record.done = std::move(done);
  ScheduleCompletion(op);
  return record.completion;
}

void StorageDevice::ScheduleCompletion(StorageOpId id) {
  const PendingOp& op = ops_.at(id);
  const int generation = op.generation;
  sim_->ScheduleAt(op.completion,
                   [this, id, generation] { OnOpComplete(id, generation); });
}

void StorageDevice::OnOpComplete(StorageOpId id, int generation) {
  auto it = ops_.find(id);
  if (it == ops_.end() || it->second.generation != generation) {
    return;  // stale timer: the op was reclaimed or rescheduled earlier
  }
  PendingOp op = std::move(it->second);
  ops_.erase(it);
  --pending_ops_;
  ++ops_completed_;
  if (!op.ok) ++ops_failed_;
  if (op.canceled || !op.done) return;
  if (domain_ != nullptr && op.ok) {
    domain_->StartFlow(op.bytes,
                       [done = std::move(op.done)] { done(true); });
  } else {
    op.done(op.ok);
  }
}

SimTime StorageDevice::SubmitWrite(Bytes size, std::function<void(bool)> done) {
  CKPT_CHECK_GE(size, 0);
  bytes_written_ += size;
  const bool ok = fault_ == nullptr || !fault_->ShouldFailWrite(label_);
  return Enqueue(medium_.WriteTime(size), size, /*is_write=*/true, ok,
                 std::move(done));
}

SimTime StorageDevice::SubmitRead(Bytes size, std::function<void(bool)> done) {
  CKPT_CHECK_GE(size, 0);
  bytes_read_ += size;
  const bool ok = fault_ == nullptr || !fault_->ShouldFailRead(label_);
  return Enqueue(medium_.ReadTime(size), size, /*is_write=*/false, ok,
                 std::move(done));
}

bool StorageDevice::CancelOp(StorageOpId id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return false;
  PendingOp& op = it->second;
  if (op.canceled) return false;
  if (op.start <= sim_->Now()) {
    // Already in service: the hardware finishes the request; drop only the
    // completion callback so queue timing for later ops is untouched.
    op.canceled = true;
    op.done = nullptr;
    return true;
  }
  // Still queued: remove it and reclaim its service time. Every later op
  // (strictly later id — FIFO order) was going to start at or after this
  // op's completion, so shifting them all earlier by `service` keeps their
  // relative order and stays in the future (their new start is no earlier
  // than this op's start, which is > now).
  const SimDuration service = op.service;
  if (op.is_write) {
    bytes_written_ -= op.bytes;
  } else {
    bytes_read_ -= op.bytes;
  }
  ops_.erase(it);
  --pending_ops_;
  busy_until_ -= service;
  busy_time_ -= service;
  for (auto later = ops_.upper_bound(id); later != ops_.end(); ++later) {
    PendingOp& shifted = later->second;
    shifted.start -= service;
    shifted.completion -= service;
    ++shifted.generation;
    ScheduleCompletion(later->first);
  }
  return true;
}

bool StorageDevice::Reserve(Bytes size) {
  CKPT_CHECK_GE(size, 0);
  if (used_ + size > medium_.capacity) return false;
  used_ += size;
  peak_used_ = std::max(peak_used_, used_);
  return true;
}

void StorageDevice::Release(Bytes size) {
  CKPT_CHECK_GE(size, 0);
  CKPT_CHECK_GE(used_, size);
  used_ -= size;
}

}  // namespace ckpt
