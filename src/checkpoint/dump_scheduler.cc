#include "checkpoint/dump_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/observability.h"

namespace ckpt {

SimDuration YoungDalyInterval(SimDuration dump_cost, SimDuration mtbf,
                              SimDuration min_interval) {
  if (dump_cost <= 0 || mtbf <= 0) return min_interval;
  const double w = std::sqrt(2.0 * static_cast<double>(dump_cost) *
                             static_cast<double>(mtbf));
  const auto interval = static_cast<SimDuration>(w);
  return std::max(interval, min_interval);
}

const char* DumpPolicyName(DumpPolicy policy) {
  switch (policy) {
    case DumpPolicy::kNaive:
      return "naive";
    case DumpPolicy::kStaggered:
      return "staggered";
    case DumpPolicy::kInterferenceAware:
      return "aware";
  }
  return "unknown";
}

bool ParseDumpPolicy(const std::string& name, DumpPolicy* out) {
  if (name == "naive") {
    *out = DumpPolicy::kNaive;
  } else if (name == "staggered") {
    *out = DumpPolicy::kStaggered;
  } else if (name == "aware" || name == "interference-aware") {
    *out = DumpPolicy::kInterferenceAware;
  } else {
    return false;
  }
  return true;
}

DumpScheduler::DumpScheduler(Simulator* sim, DumpSchedulerConfig config,
                             Observability* obs)
    : sim_(sim), config_(config), obs_(obs) {
  CKPT_CHECK(sim != nullptr);
}

int DumpScheduler::AdmissionLimit() const {
  switch (config_.policy) {
    case DumpPolicy::kNaive:
      return std::numeric_limits<int>::max();
    case DumpPolicy::kStaggered:
      return std::max(config_.max_concurrent, 1);
    case DumpPolicy::kInterferenceAware: {
      if (config_.shared_bw <= 0 || config_.min_share <= 0) {
        return std::max(config_.max_concurrent, 1);
      }
      const int fit =
          static_cast<int>(config_.shared_bw / config_.min_share);
      return std::max(fit, 1);
    }
  }
  return 1;
}

DumpScheduler::Ticket DumpScheduler::Request(std::int64_t node,
                                             std::int64_t task, Bytes bytes,
                                             std::function<void()> start) {
  const Ticket ticket = next_ticket_++;
  Pending pending;
  pending.node = node;
  pending.task = task;
  pending.bytes = bytes;
  pending.requested = sim_->Now();
  pending.start = std::move(start);
  // Small dumps interfere negligibly but would pay the full deferral
  // freeze — the interference-aware policy lets them through uncapped.
  if (config_.policy == DumpPolicy::kInterferenceAware &&
      bytes <= kDumpBypassBytes) {
    ++bypassed_;
    Admit(ticket, std::move(pending), /*was_deferred=*/false,
          /*force=*/false, /*holds_slot=*/false);
    return ticket;
  }
  if (active_ < AdmissionLimit()) {
    Admit(ticket, std::move(pending), /*was_deferred=*/false,
          /*force=*/false);
    return ticket;
  }
  ++deferred_;
  AuditDecision("defer", ticket, pending, 0);
  by_size_.emplace(pending.bytes, ticket);
  queue_.emplace(ticket, std::move(pending));
  // Safety valve: a dump must not wait forever behind a slot whose
  // completion got lost to a node failure — force-admit past the deadline.
  sim_->ScheduleAfter(config_.max_defer, [this, ticket] {
    auto it = queue_.find(ticket);
    if (it == queue_.end()) return;  // started or withdrawn meanwhile
    Pending pending = std::move(it->second);
    by_size_.erase({pending.bytes, ticket});
    queue_.erase(it);
    ++forced_;
    Admit(ticket, std::move(pending), /*was_deferred=*/true, /*force=*/true);
  });
  return ticket;
}

void DumpScheduler::Admit(Ticket ticket, Pending pending, bool was_deferred,
                          bool force, bool holds_slot) {
  const SimDuration waited = sim_->Now() - pending.requested;
  if (holds_slot) {
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
  }
  ++admitted_;
  in_flight_.emplace(ticket, Slot{sim_->Now(), holds_slot});
  if (was_deferred) {
    total_defer_time_ += waited;
    if (obs_ != nullptr && waited > 0) {
      obs_->waste().Add(WasteCause::kDumpDeferral, ToSeconds(waited),
                        /*job=*/-1, pending.node);
    }
  }
  AuditDecision(!holds_slot ? "bypass" : force ? "force_admit" : "admit",
                ticket, pending, waited);
  if (pending.start) pending.start();
}

void DumpScheduler::Complete(Ticket ticket) {
  auto queued = queue_.find(ticket);
  if (queued != queue_.end()) {
    // Withdrawn before admission (e.g. the dumping task's node died).
    by_size_.erase({queued->second.bytes, ticket});
    queue_.erase(queued);
    return;
  }
  auto it = in_flight_.find(ticket);
  if (it == in_flight_.end()) return;
  const bool held_slot = it->second.holds_slot;
  if (held_slot) {
    // Bypassed dumps never held a slot and would skew the mean dump
    // duration that EstimateAdmitDelay projects onto queued slots.
    total_active_time_ += sim_->Now() - it->second.admitted_at;
    ++completions_;
  }
  in_flight_.erase(it);
  if (held_slot) {
    --active_;
    DrainQueue();
  }
}

void DumpScheduler::DrainQueue() {
  while (active_ < AdmissionLimit() && !queue_.empty()) {
    // Smallest dump first for kInterferenceAware (SJF minimizes the wave's
    // aggregate freeze time given heavy-tailed image sizes); FIFO otherwise.
    auto it = config_.policy == DumpPolicy::kInterferenceAware
                  ? queue_.find(by_size_.begin()->second)
                  : queue_.begin();
    const Ticket ticket = it->first;
    Pending pending = std::move(it->second);
    by_size_.erase({pending.bytes, ticket});
    queue_.erase(it);
    Admit(ticket, std::move(pending), /*was_deferred=*/true, /*force=*/false);
  }
}

SimDuration DumpScheduler::EstimateAdmitDelay() const {
  const int limit = AdmissionLimit();
  if (active_ < limit) return 0;
  if (completions_ == 0) return 0;
  const SimDuration mean = total_active_time_ / completions_;
  const auto waves =
      static_cast<SimDuration>(1 + static_cast<int>(queue_.size()) / limit);
  return mean * waves;
}

void DumpScheduler::AuditDecision(const char* decision, Ticket ticket,
                                  const Pending& pending,
                                  SimDuration waited) {
  if (obs_ == nullptr) return;
  obs_->audit().Event(
      "dump_admit", "dump_sched", sim_->Now(),
      {TraceArg::Str("decision", decision),
       TraceArg::Str("policy", DumpPolicyName(config_.policy)),
       TraceArg::Num("ticket", static_cast<double>(ticket)),
       TraceArg::Num("node", static_cast<double>(pending.node)),
       TraceArg::Num("task", static_cast<double>(pending.task)),
       TraceArg::Num("bytes", static_cast<double>(pending.bytes)),
       TraceArg::Num("active", static_cast<double>(active_)),
       TraceArg::Num("queued", static_cast<double>(queue_.size())),
       TraceArg::Num("limit", static_cast<double>(AdmissionLimit())),
       TraceArg::Num("waited_s", ToSeconds(waited))});
}

}  // namespace ckpt
