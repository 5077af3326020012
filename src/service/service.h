// Service workload model: long-running, replicated, latency-sensitive jobs
// (the preemption *beneficiaries* the paper's batch-only evaluation leaves
// out; ROADMAP open item on service workloads).
//
// A service never "completes" within the horizon: each replica holds its
// allocation from `start` to `end` and serves a diurnal request stream.
// Three model layers, all pure functions so they are unit-testable and
// byte-identical between materialized and streaming evaluation:
//
//   1. Diurnal traffic — a parameterized sinusoid (peak_rps, base_fraction,
//      period, phase) plus per-tick Poisson jitter. The jitter is keyed by
//      (seed, tick_index) through a splitmix64 hash, NOT drawn from a
//      sequential RNG, so rate lookups are random-access: evaluating tick k
//      gives the same value whether ticks 0..k-1 were evaluated first
//      (streaming) or not (materialized), at any sweep worker count.
//
//   2. M/M/c latency — per-service response-time quantiles from the offered
//      load and the effective warm replica count, via the Sakasegawa
//      approximation for the mean queue wait and an exponential tail for
//      p50/p95/p99. Capacity lost to preemption or checkpoint freezes
//      shrinks c and inflates the tail.
//
//   3. SLO accounting — a tick whose p99 exceeds the service's target
//      accrues violation seconds, attributed to preemption (the full-fleet
//      counterfactual would have met the SLO) or organic load (it would
//      not).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/resources.h"
#include "common/units.h"

namespace ckpt {

struct ServiceSpec {
  // Shares the job-id namespace with batch jobs (metrics/audit/ledger
  // attribution); pick ids disjoint from the batch workload's.
  std::int64_t id = 0;
  std::string name;

  int replicas = 3;
  Resources demand{2.0, 8LL * 1024 * 1024 * 1024};  // per replica
  int priority = 5;
  int latency_class = 2;
  // Fraction of replica memory re-dirtied per second (incremental dumps).
  double memory_write_rate = 0.02;

  SimTime start = 0;
  SimTime end = kDay;  // replicas retire here; the service never "finishes"

  // Diurnal curve: rate(t) swings between base_fraction*peak_rps (trough)
  // and peak_rps (peak) with the given period; the peak sits at
  // phase + period/4.
  double peak_rps = 2e6;
  double base_fraction = 0.35;
  SimDuration period = kDay;
  SimDuration phase = 0;

  // Per warm replica service rate (requests/s a replica sustains).
  double replica_capacity_rps = 1e6;

  SimDuration slo_p99 = Millis(250);

  // Cold-start: a replica restarted after losing its process state (kill,
  // crash) serves at warmup_factor of capacity for `warmup`; a replica
  // resumed from a checkpoint image skips the warmup entirely — that
  // asymmetry is what the SLO-aware kill-vs-checkpoint decision trades
  // against freeze time. First starts join warm: the horizon opens on a
  // service already in steady state.
  SimDuration warmup = Minutes(3);
  double warmup_factor = 0.25;

  std::uint64_t seed = 1;
};

// Smooth diurnal arrival rate at absolute time `t`, in requests/s.
double DiurnalRate(const ServiceSpec& spec, SimTime t);

// DiurnalRate plus Poisson jitter (normal approximation, sigma = sqrt(rate))
// keyed by (spec.seed, tick_index); clamped at zero. Random-access
// deterministic: depends only on the arguments.
double JitteredDiurnalRate(const ServiceSpec& spec, std::int64_t tick_index,
                           SimTime t);

// --- M/M/c latency model ----------------------------------------------------

// Response-time cap: saturated or replica-less services report this instead
// of a divergent queue (keeps every tick finite and deterministic).
inline constexpr SimDuration kOverloadResponse = Seconds(5);

struct LatencyQuantiles {
  SimDuration p50 = 0;
  SimDuration p95 = 0;
  SimDuration p99 = 0;
};

// Mean response time W for arrival rate `lambda_rps` offered to `c_eff`
// effective servers of rate `mu_rps` each (fractional c_eff models warming
// replicas). Sakasegawa: Wq ~= (1/mu) * rho^(sqrt(2(c+1))-1) / (c(1-rho)),
// W = Wq + 1/mu; overload (rho >= 1, or no servers) returns
// kOverloadResponse.
SimDuration MmcMeanResponse(double lambda_rps, double mu_rps, double c_eff);

// Exponential-tail quantiles of the response time: q_p = W * ln(1/(1-p)),
// each clamped at kOverloadResponse.
LatencyQuantiles MmcQuantiles(double lambda_rps, double mu_rps, double c_eff);

}  // namespace ckpt
