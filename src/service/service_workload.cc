#include "service/service_workload.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ckpt {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ToUnit(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

// Uniform in [lo, hi) keyed by (seed, index, salt); pure.
double Draw(const ServiceFleetConfig& config, int index, std::uint64_t salt,
            double lo, double hi) {
  const std::uint64_t key =
      config.seed ^ (static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL) ^
      salt;
  return lo + (hi - lo) * ToUnit(SplitMix64(key));
}

}  // namespace

ServiceSpec MakeServiceSpec(const ServiceFleetConfig& config, int index) {
  CKPT_CHECK_GE(index, 0);
  CKPT_CHECK_LT(index, config.services);
  ServiceSpec spec;
  spec.id = config.first_id + index;
  spec.name = "svc" + std::to_string(index);
  const double rep_draw =
      Draw(config, index, 0x1111, static_cast<double>(config.min_replicas),
           static_cast<double>(config.max_replicas) + 1.0);
  spec.replicas = std::clamp(static_cast<int>(rep_draw), config.min_replicas,
                             config.max_replicas);
  spec.demand = config.demand_per_replica;
  spec.priority = config.priority;
  spec.latency_class = config.latency_class;
  spec.memory_write_rate = config.memory_write_rate;
  spec.start = config.start;
  spec.end = config.end;
  spec.peak_rps =
      Draw(config, index, 0x2222, config.peak_rps_min, config.peak_rps_max);
  spec.base_fraction = Draw(config, index, 0x3333, config.base_fraction_min,
                            config.base_fraction_max);
  spec.period = config.period;
  // Spread peaks across the period: one slot per service, plus a hashed
  // offset inside the slot.
  const SimDuration slot = config.period / std::max(config.services, 1);
  spec.phase = index * slot +
               static_cast<SimDuration>(Draw(config, index, 0x4444, 0.0,
                                             static_cast<double>(slot)));
  // Size per-replica capacity so the full warm fleet serves the peak at
  // `peak_utilization` — losing one replica near the peak then tips the
  // fleet over the SLO, which is exactly the regime the SLO-aware victim
  // selection must navigate.
  spec.replica_capacity_rps =
      spec.peak_rps / (config.peak_utilization * spec.replicas);
  spec.slo_p99 = config.slo_p99;
  spec.warmup = config.warmup;
  spec.warmup_factor = config.warmup_factor;
  spec.seed = SplitMix64(config.seed ^ static_cast<std::uint64_t>(spec.id));
  return spec;
}

std::vector<ServiceSpec> GenerateServiceFleet(
    const ServiceFleetConfig& config) {
  std::vector<ServiceSpec> fleet;
  fleet.reserve(static_cast<size_t>(config.services));
  for (int i = 0; i < config.services; ++i) {
    fleet.push_back(MakeServiceSpec(config, i));
  }
  return fleet;
}

}  // namespace ckpt
