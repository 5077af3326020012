// Cluster-level cooperative dump scheduler.
//
// Concurrent checkpoint dumps to shared media interfere: N simultaneous
// dumps through a fair-shared BandwidthDomain each see ~1/N of the
// capacity, so every frozen task stays frozen ~N times longer — classic
// processor-sharing pessimality for identical jobs. The DumpScheduler sits
// in front of dump submission and admits, staggers, or rate-limits dumps
// (Herault et al.'s cooperative-checkpointing idea for shared platforms):
//
//  - kNaive:             admit everything immediately (the base model).
//  - kStaggered:         at most `max_concurrent` dumps in flight; the
//                        rest queue FIFO.
//  - kInterferenceAware: the in-flight cap is derived from the shared
//                        domain capacity so every admitted dump keeps at
//                        least `min_share` of fair-shared bandwidth; dumps
//                        of at most kDumpBypassBytes (small incrementals)
//                        skip admission entirely — their drain barely moves
//                        the contention factor, while deferring them would
//                        freeze the task and stretch the checkpoint cadence
//                        for no bandwidth relief. Queued dumps are admitted
//                        smallest-first: dump sizes are heavy-tailed, and
//                        shortest-job-first minimizes the aggregate frozen
//                        time of the wave (FIFO behind one huge image can
//                        be worse than fair-sharing; SJF never is). The
//                        max_defer valve bounds starvation of large dumps.
//
// Deferred dumps keep their slot request in FIFO (ticket) order and are
// force-admitted after `max_defer` so a lost completion can never wedge
// the queue. Admission decisions are appended to the decision audit log
// ("dump_admit" records) and deferred seconds are charged to the waste
// ledger's dump_deferral cause. Everything is deterministic: tickets are
// sequence numbers, the queue is a std::map, and no randomness is drawn.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/units.h"
#include "sim/simulator.h"

namespace ckpt {

class Observability;

// Young/Daly optimal checkpoint interval: W = sqrt(2 * C * MTBF) for dump
// cost C and mean time between failures M (first-order optimum of the
// expected waste rate C/W + W/(2M)). Returns `min_interval` when the
// inputs are degenerate (non-positive) or the optimum falls below it.
SimDuration YoungDalyInterval(SimDuration dump_cost, SimDuration mtbf,
                              SimDuration min_interval = kSecond);

enum class DumpPolicy { kNaive, kStaggered, kInterferenceAware };

// kInterferenceAware lets dumps this small bypass admission.
inline constexpr Bytes kDumpBypassBytes = MiB(256);

const char* DumpPolicyName(DumpPolicy policy);
bool ParseDumpPolicy(const std::string& name, DumpPolicy* out);

struct DumpSchedulerConfig {
  DumpPolicy policy = DumpPolicy::kNaive;
  int max_concurrent = 4;          // kStaggered's in-flight cap
  Bandwidth shared_bw = 0;         // kInterferenceAware: shared capacity...
  Bandwidth min_share = MBps(100);  // ...each admitted dump must keep
  SimDuration max_defer = Minutes(10);  // force-admit deadline
};

class DumpScheduler {
 public:
  using Ticket = std::int64_t;

  DumpScheduler(Simulator* sim, DumpSchedulerConfig config,
                Observability* obs = nullptr);

  DumpScheduler(const DumpScheduler&) = delete;
  DumpScheduler& operator=(const DumpScheduler&) = delete;

  // Ask to start a dump of `bytes` for (`node`, `task`). `start` runs
  // synchronously when admitted immediately, otherwise when a slot frees
  // or the max_defer deadline passes. Returns the ticket to pass to
  // Complete() when the dump finishes (success, failure, or unwind) —
  // also required for requests still deferred, which are then withdrawn.
  Ticket Request(std::int64_t node, std::int64_t task, Bytes bytes,
                 std::function<void()> start);

  // Release the slot held by `ticket` (or withdraw it if still queued).
  void Complete(Ticket ticket);

  // Expected admission wait for a dump requested now: zero with a free
  // slot, else queue position times the mean observed dump duration —
  // Algorithm 1's interference-aware admit-delay term.
  SimDuration EstimateAdmitDelay() const;

  // In-flight cap for the configured policy.
  int AdmissionLimit() const;

  int active() const { return active_; }
  int queued() const { return static_cast<int>(queue_.size()); }
  std::int64_t admitted() const { return admitted_; }
  std::int64_t deferred() const { return deferred_; }
  std::int64_t forced() const { return forced_; }
  std::int64_t bypassed() const { return bypassed_; }
  SimDuration total_defer_time() const { return total_defer_time_; }
  int peak_active() const { return peak_active_; }

 private:
  struct Pending {
    std::int64_t node = -1;
    std::int64_t task = -1;
    Bytes bytes = 0;
    SimTime requested = 0;
    std::function<void()> start;
  };

  struct Slot {
    SimTime admitted_at = 0;
    bool holds_slot = true;  // false for bypassed small dumps
  };

  void Admit(Ticket ticket, Pending pending, bool was_deferred, bool force,
             bool holds_slot = true);
  void DrainQueue();
  void AuditDecision(const char* decision, Ticket ticket,
                     const Pending& pending, SimDuration waited);

  Simulator* sim_;
  DumpSchedulerConfig config_;
  Observability* obs_;

  Ticket next_ticket_ = 1;
  int active_ = 0;
  std::map<Ticket, Pending> queue_;          // deferred requests, FIFO
  // Secondary index for kInterferenceAware's smallest-first admission
  // (ticket tie-break keeps it deterministic). Mirrors queue_ exactly.
  std::set<std::pair<Bytes, Ticket>> by_size_;
  std::map<Ticket, Slot> in_flight_;         // admitted ticket -> slot info

  std::int64_t admitted_ = 0;
  std::int64_t deferred_ = 0;
  std::int64_t forced_ = 0;
  std::int64_t bypassed_ = 0;
  std::int64_t completions_ = 0;
  SimDuration total_defer_time_ = 0;
  SimDuration total_active_time_ = 0;
  int peak_active_ = 0;
};

}  // namespace ckpt
