// Runtime state and SLO accounting for the service workload subsystem.
//
// The ClusterScheduler owns a ServiceManager when services are submitted
// and drives it through three hooks: ReplicaUp/ReplicaDown as replica tasks
// enter and leave the running state, and Tick on a fixed cadence per
// service. The manager never touches the simulator or the scheduler — it is
// a pure state machine over (spec, replica states, now), so it unit-tests
// without any scheduling machinery and stays deterministic at every sweep
// worker count (each cell's ticks and hooks run on its own event loop).
#pragma once

#include <cstdint>
#include <vector>

#include "service/service.h"

namespace ckpt {

// SLO accounting cadence: every service is sampled once per tick.
inline constexpr SimDuration kServiceTick = Seconds(30);

class ServiceManager {
 public:
  // Everything a tick observed; the scheduler mirrors violation seconds
  // into the waste ledger and the quantiles into tail-latency histograms.
  struct TickSample {
    double lambda_rps = 0;
    double effective_replicas = 0;
    LatencyQuantiles q;
    bool violated = false;
    double violation_s = 0;  // == kServiceTick seconds when violated
    double preempt_s = 0;    // violation attributed to lost capacity
    double organic_s = 0;    // full fleet would have violated too
  };

  // Per-service run aggregates.
  struct Totals {
    double violation_s = 0;
    double preempt_s = 0;
    double organic_s = 0;
    double p50_ms_sum = 0;  // per-tick sums; divide by ticks for the mean
    double p95_ms_sum = 0;
    double p99_ms_sum = 0;
    double peak_p99_ms = 0;
    std::int64_t ticks = 0;
    std::int64_t violated_ticks = 0;
    std::int64_t cold_starts = 0;
    double P50MsMean() const { return ticks > 0 ? p50_ms_sum / ticks : 0; }
    double P95MsMean() const { return ticks > 0 ? p95_ms_sum / ticks : 0; }
    double P99MsMean() const { return ticks > 0 ? p99_ms_sum / ticks : 0; }
  };

  explicit ServiceManager(std::vector<ServiceSpec> services);

  int count() const { return static_cast<int>(states_.size()); }
  const ServiceSpec& spec(int s) const;

  // --- scheduler hooks ------------------------------------------------------
  // A replica entered the running state. `cold` starts serve at
  // warmup_factor of capacity until spec.warmup elapses; warm (checkpoint-
  // resumed) starts serve at full capacity immediately.
  void ReplicaUp(int s, int replica, SimTime now, bool cold);
  // The replica left the running state (frozen for a dump, killed, crashed,
  // or retired at the horizon).
  void ReplicaDown(int s, int replica);

  // Account the tick ending at `now`: jittered offered load vs effective
  // warm capacity; p99 above the SLO accrues tick seconds of violation,
  // attributed by the all-replicas-warm counterfactual.
  TickSample Tick(int s, std::int64_t tick_index, SimTime now);

  // --- cost probes (pure, no state change) ----------------------------------
  // Warm-equivalent server count right now (warming replicas weighted by
  // warmup_factor).
  double EffectiveReplicas(int s, SimTime now) const;
  // Estimated SLO-violation seconds if `removed_replicas` of capacity
  // disappears for `span`, at the current smooth (unjittered) load. This is
  // Algorithm 1's service cost term: zero in a trough with headroom, the
  // full span near a peak.
  double MarginalViolationSeconds(int s, SimTime now, SimDuration span,
                                  double removed_replicas) const;

  const Totals& totals(int s) const;

 private:
  struct Replica {
    bool up = false;
    SimTime warm_at = 0;  // serving at full capacity from this instant
  };
  struct State {
    ServiceSpec spec;
    std::vector<Replica> replicas;
    Totals totals;
  };

  std::vector<State> states_;
};

}  // namespace ckpt
