// A shared bandwidth pool drained fair-share by concurrent flows.
//
// Models the aggregate stages checkpoint traffic contends on — a rack's
// uplink, the DFS ingest backbone — in the spirit of Herault et al.'s
// interfering-checkpoints work: N simultaneous flows each see capacity/N,
// with the per-flow rate recomputed whenever a flow starts or finishes
// (processor sharing). All arithmetic is deterministic: flows live in a
// monotonically-keyed map, progress is advanced at the old rate before
// every membership change, and a single next-completion event is
// rescheduled through Simulator::Cancel, so runs are bit-for-bit
// reproducible regardless of how many flows interleave.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/units.h"
#include "sim/simulator.h"

namespace ckpt {

class BandwidthDomain {
 public:
  using FlowId = std::int64_t;

  BandwidthDomain(Simulator* sim, std::string name, Bandwidth capacity);

  BandwidthDomain(const BandwidthDomain&) = delete;
  BandwidthDomain& operator=(const BandwidthDomain&) = delete;

  // Start draining `bytes` through the pool; `done` fires when the flow's
  // bytes have fully drained at whatever fair-share rates prevailed.
  // Every other active flow slows down immediately.
  FlowId StartFlow(Bytes bytes, std::function<void()> done);

  // Slowdown factor a new flow would see vs an idle pool: active()+1.
  double ContentionFactor() const {
    return static_cast<double>(flows_.size() + 1);
  }

  const std::string& name() const { return name_; }
  Bandwidth capacity() const { return capacity_; }
  int active_flows() const { return static_cast<int>(flows_.size()); }
  int peak_flows() const { return peak_flows_; }
  std::int64_t flows_completed() const { return flows_completed_; }
  Bytes total_bytes() const { return total_bytes_; }
  // Total sim time with at least one active flow.
  SimDuration busy_time() const { return busy_time_; }

 private:
  struct Flow {
    double remaining = 0;  // bytes left; fractional across rate changes
    std::function<void()> done;
  };

  // Accrue progress to Now() at the current per-flow rate.
  void Advance();
  // Cancel and re-arm the single next-completion event.
  void Reschedule();
  void OnCompletion();
  double PerFlowRate() const;  // bytes per microsecond

  Simulator* sim_;
  std::string name_;
  Bandwidth capacity_;

  std::map<FlowId, Flow> flows_;
  FlowId next_flow_ = 1;
  SimTime last_advance_ = 0;
  EventHandle next_event_;
  bool event_armed_ = false;

  int peak_flows_ = 0;
  std::int64_t flows_completed_ = 0;
  Bytes total_bytes_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace ckpt
