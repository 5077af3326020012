#include "storage/bandwidth_domain.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ckpt {
namespace {
// A flow is done once its residue drops below half a byte. Completion
// events are rounded up to whole microseconds, so at the scheduled time the
// leading flow has drained past its final byte (modulo ~1e-6-byte floating
// rounding), while no still-active flow legitimately carries less than one
// byte across a full microsecond at the bandwidths we model.
constexpr double kResidueBytes = 0.5;
}  // namespace

BandwidthDomain::BandwidthDomain(Simulator* sim, std::string name,
                                 Bandwidth capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  CKPT_CHECK_GT(capacity_, 0.0) << "bandwidth domain " << name_;
}

double BandwidthDomain::PerFlowRate() const {
  // Bytes per microsecond at the current population.
  return capacity_ / 1e6 / static_cast<double>(flows_.size());
}

void BandwidthDomain::Advance() {
  const SimTime now = sim_->Now();
  if (now <= last_advance_) return;
  const SimDuration dt = now - last_advance_;
  last_advance_ = now;
  if (flows_.empty()) return;
  busy_time_ += dt;
  const double drained = static_cast<double>(dt) * PerFlowRate();
  for (auto& [id, flow] : flows_) {
    flow.remaining = std::max(0.0, flow.remaining - drained);
  }
}

BandwidthDomain::FlowId BandwidthDomain::StartFlow(Bytes bytes,
                                                   std::function<void()> done) {
  CKPT_CHECK_GE(bytes, 0);
  Advance();
  const FlowId id = next_flow_++;
  Flow& flow = flows_[id];
  flow.remaining = static_cast<double>(bytes);
  flow.done = std::move(done);
  total_bytes_ += bytes;
  peak_flows_ = std::max(peak_flows_, static_cast<int>(flows_.size()));
  Reschedule();
  return id;
}

void BandwidthDomain::Reschedule() {
  if (event_armed_) {
    sim_->Cancel(next_event_);
    event_armed_ = false;
  }
  if (flows_.empty()) return;
  double min_remaining = flows_.begin()->second.remaining;
  for (const auto& [id, flow] : flows_) {
    min_remaining = std::min(min_remaining, flow.remaining);
  }
  const SimDuration delay = static_cast<SimDuration>(
      std::ceil(min_remaining / PerFlowRate()));
  // Advance() ran in the caller, so last_advance_ == Now().
  next_event_ = sim_->ScheduleAt(last_advance_ + delay, [this] { OnCompletion(); });
  event_armed_ = true;
}

void BandwidthDomain::OnCompletion() {
  event_armed_ = false;
  Advance();
  // Collect finished flows in id order, re-arm, then deliver: callbacks may
  // start new flows reentrantly and must see a consistent pool.
  std::vector<std::function<void()>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining <= kResidueBytes) {
      done.push_back(std::move(it->second.done));
      it = flows_.erase(it);
      ++flows_completed_;
    } else {
      ++it;
    }
  }
  Reschedule();
  for (auto& cb : done) {
    if (cb) cb();
  }
}

}  // namespace ckpt
