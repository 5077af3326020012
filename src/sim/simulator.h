// Deterministic discrete-event simulator.
//
// All substrates (storage, DFS, checkpoint engine, schedulers, YARN layer)
// run on one Simulator. Events scheduled for the same instant fire in
// schedule order (a monotone sequence number breaks ties), which makes every
// run reproducible regardless of container iteration order.
//
// The event core is the allocation-light queue in event_queue.h: pooled
// event nodes, a small-buffer-optimized callback type, and a 4-ary implicit
// heap over (when, seq) — the same strict total order the seed binary heap
// used, so event order is bit-identical to it. ScheduleAt returns an
// EventHandle that Cancel() can retire without waiting for the timer to
// surface.
//
// A Simulator is single-threaded by design. Parallel sweeps (bench --jobs,
// tools/ckpt-sim --parallel) run one private Simulator per cell; see
// docs/PERFORMANCE.md.
#pragma once

#include <cstdint>

#include "common/logging.h"
#include "common/units.h"
#include "sim/event_queue.h"

namespace ckpt {

class Simulator {
 public:
  using Callback = SimCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedule `cb` to run at absolute time `when` (>= Now()). The returned
  // handle may be ignored, or kept to Cancel() the event later.
  EventHandle ScheduleAt(SimTime when, Callback cb) {
    CKPT_CHECK_GE(when, now_) << "cannot schedule into the past";
    return queue_.Push(when, std::move(cb));
  }

  // Schedule `cb` to run `delay` after the current time.
  EventHandle ScheduleAfter(SimDuration delay, Callback cb) {
    CKPT_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Retire a pending event; its callback is destroyed without running.
  // Returns false when the event already fired, was already canceled, or
  // the handle is empty.
  bool Cancel(const EventHandle& handle) { return queue_.Cancel(handle); }

  // Run until the event queue drains or `until` is reached (whichever is
  // first). Returns the number of events processed.
  std::int64_t Run(SimTime until = kMaxTime);

  // Process exactly one event if any is pending; returns false when idle.
  bool Step();

  bool Empty() const { return queue_.empty(); }
  std::int64_t PendingEvents() const { return queue_.size(); }
  std::int64_t EventsProcessed() const { return events_processed_; }

  static constexpr SimTime kMaxTime = INT64_MAX / 4;

 private:
  SimTime now_ = 0;
  std::int64_t events_processed_ = 0;
  EventQueue queue_;
};

}  // namespace ckpt
