#include "storage/storage_device.h"

#include <algorithm>
#include <utility>

#include "fault/fault.h"
#include "storage/bandwidth_domain.h"

namespace ckpt {

SimTime StorageDevice::Enqueue(SimDuration service, Bytes bytes, bool ok,
                               std::function<void(bool)> done) {
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
  sim_->ScheduleAt(busy_until_,
                   [this, bytes, ok, done = std::move(done)]() mutable {
                     OnOpComplete(bytes, ok, std::move(done));
                   });
  return busy_until_;
}

void StorageDevice::OnOpComplete(Bytes bytes, bool ok,
                                 std::function<void(bool)> done) {
  --pending_ops_;
  ++ops_completed_;
  if (!ok) ++ops_failed_;
  if (!done) return;
  if (domain_ != nullptr && ok) {
    domain_->StartFlow(bytes, [done = std::move(done)] { done(true); });
  } else {
    done(ok);
  }
}

SimTime StorageDevice::SubmitWrite(Bytes size, std::function<void(bool)> done) {
  CKPT_CHECK_GE(size, 0);
  bytes_written_ += size;
  const bool ok = fault_ == nullptr || !fault_->ShouldFailWrite(label_);
  return Enqueue(medium_.WriteTime(size), size, ok, std::move(done));
}

SimTime StorageDevice::SubmitRead(Bytes size, std::function<void(bool)> done) {
  CKPT_CHECK_GE(size, 0);
  bytes_read_ += size;
  const bool ok = fault_ == nullptr || !fault_->ShouldFailRead(label_);
  return Enqueue(medium_.ReadTime(size), size, ok, std::move(done));
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
