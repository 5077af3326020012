#include "service/service_manager.h"

#include <utility>

#include "common/logging.h"

namespace ckpt {

ServiceManager::ServiceManager(std::vector<ServiceSpec> services) {
  states_.reserve(services.size());
  for (ServiceSpec& spec : services) {
    CKPT_CHECK_GT(spec.replicas, 0);
    CKPT_CHECK_GT(spec.replica_capacity_rps, 0);
    CKPT_CHECK_GT(spec.end, spec.start);
    State state;
    state.spec = std::move(spec);
    state.replicas.resize(static_cast<size_t>(state.spec.replicas));
    states_.push_back(std::move(state));
  }
}

const ServiceSpec& ServiceManager::spec(int s) const {
  return states_[static_cast<size_t>(s)].spec;
}

const ServiceManager::Totals& ServiceManager::totals(int s) const {
  return states_[static_cast<size_t>(s)].totals;
}

void ServiceManager::ReplicaUp(int s, int replica, SimTime now, bool cold) {
  State& state = states_[static_cast<size_t>(s)];
  Replica& rep = state.replicas[static_cast<size_t>(replica)];
  CKPT_CHECK(!rep.up);
  rep.up = true;
  rep.warm_at = cold ? now + state.spec.warmup : now;
  if (cold) state.totals.cold_starts++;
}

void ServiceManager::ReplicaDown(int s, int replica) {
  State& state = states_[static_cast<size_t>(s)];
  Replica& rep = state.replicas[static_cast<size_t>(replica)];
  CKPT_CHECK(rep.up);
  rep.up = false;
}

double ServiceManager::EffectiveReplicas(int s, SimTime now) const {
  const State& state = states_[static_cast<size_t>(s)];
  double c = 0;
  for (const Replica& rep : state.replicas) {
    if (!rep.up) continue;
    c += now >= rep.warm_at ? 1.0 : state.spec.warmup_factor;
  }
  return c;
}

ServiceManager::TickSample ServiceManager::Tick(int s,
                                                std::int64_t tick_index,
                                                SimTime now) {
  State& state = states_[static_cast<size_t>(s)];
  const ServiceSpec& spec = state.spec;
  TickSample sample;
  sample.lambda_rps = JitteredDiurnalRate(spec, tick_index, now);
  sample.effective_replicas = EffectiveReplicas(s, now);
  sample.q = MmcQuantiles(sample.lambda_rps, spec.replica_capacity_rps,
                          sample.effective_replicas);
  sample.violated = sample.q.p99 > spec.slo_p99;
  const double tick_s = ToSeconds(kServiceTick);
  if (sample.violated) {
    sample.violation_s = tick_s;
    // Counterfactual: would the full fleet, all warm, have met the SLO at
    // this load? If not the violation is organic; otherwise the missing
    // capacity (preemption freezes, kills, cold warmups) caused it.
    const LatencyQuantiles full =
        MmcQuantiles(sample.lambda_rps, spec.replica_capacity_rps,
                     static_cast<double>(spec.replicas));
    if (full.p99 > spec.slo_p99) {
      sample.organic_s = tick_s;
    } else {
      sample.preempt_s = tick_s;
    }
  }

  Totals& t = state.totals;
  t.ticks++;
  if (sample.violated) t.violated_ticks++;
  t.violation_s += sample.violation_s;
  t.preempt_s += sample.preempt_s;
  t.organic_s += sample.organic_s;
  const double p50_ms = ToSeconds(sample.q.p50) * 1e3;
  const double p95_ms = ToSeconds(sample.q.p95) * 1e3;
  const double p99_ms = ToSeconds(sample.q.p99) * 1e3;
  t.p50_ms_sum += p50_ms;
  t.p95_ms_sum += p95_ms;
  t.p99_ms_sum += p99_ms;
  if (p99_ms > t.peak_p99_ms) t.peak_p99_ms = p99_ms;
  return sample;
}

double ServiceManager::MarginalViolationSeconds(
    int s, SimTime now, SimDuration span, double removed_replicas) const {
  if (span <= 0 || removed_replicas <= 0) return 0;
  const State& state = states_[static_cast<size_t>(s)];
  const ServiceSpec& spec = state.spec;
  // Smooth (unjittered) load: this is an a-priori estimate feeding a
  // decision, not an account of realized traffic.
  const double lambda = DiurnalRate(spec, now);
  const double c_now = EffectiveReplicas(s, now);
  const double c_less = c_now - removed_replicas;
  const LatencyQuantiles with =
      MmcQuantiles(lambda, spec.replica_capacity_rps, c_less);
  if (with.p99 <= spec.slo_p99) return 0;
  // Already violating with current capacity? The removal is then not the
  // marginal cause; charge only the genuinely marginal span.
  const LatencyQuantiles without =
      MmcQuantiles(lambda, spec.replica_capacity_rps, c_now);
  if (without.p99 > spec.slo_p99) return 0;
  return ToSeconds(span);
}

}  // namespace ckpt
