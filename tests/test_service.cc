#include "service/service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scheduler/policy.h"
#include "service/service_manager.h"
#include "service/service_workload.h"

namespace ckpt {
namespace {

ServiceSpec TestSpec() {
  ServiceSpec spec;
  spec.id = 1 << 20;
  spec.name = "svc";
  spec.replicas = 4;
  spec.peak_rps = 2e6;
  spec.base_fraction = 0.30;
  spec.period = kDay;
  spec.phase = Hours(2);
  // Full warm fleet runs at 80% at peak.
  spec.replica_capacity_rps = spec.peak_rps / (0.80 * spec.replicas);
  spec.slo_p99 = Millis(250);
  spec.warmup = Minutes(3);
  spec.warmup_factor = 0.25;
  spec.seed = 77;
  return spec;
}

// --- Diurnal traffic --------------------------------------------------------

TEST(DiurnalRate, PeakSitsAtPhasePlusQuarterPeriod) {
  const ServiceSpec spec = TestSpec();
  const SimTime peak_t = spec.phase + spec.period / 4;
  EXPECT_NEAR(DiurnalRate(spec, peak_t), spec.peak_rps, 1e-6 * spec.peak_rps);
  // The peak is a maximum: nearby samples are below it.
  EXPECT_LT(DiurnalRate(spec, peak_t - Hours(3)), spec.peak_rps);
  EXPECT_LT(DiurnalRate(spec, peak_t + Hours(3)), spec.peak_rps);
}

TEST(DiurnalRate, TroughSitsAtPhasePlusThreeQuarterPeriod) {
  const ServiceSpec spec = TestSpec();
  const SimTime trough_t = spec.phase + 3 * spec.period / 4;
  const double trough = spec.base_fraction * spec.peak_rps;
  EXPECT_NEAR(DiurnalRate(spec, trough_t), trough, 1e-6 * spec.peak_rps);
  EXPECT_GT(DiurnalRate(spec, trough_t - Hours(3)), trough);
  EXPECT_GT(DiurnalRate(spec, trough_t + Hours(3)), trough);
}

TEST(DiurnalRate, BoundedBetweenBaseAndPeakOverFullPeriod) {
  const ServiceSpec spec = TestSpec();
  for (int h = 0; h < 24; ++h) {
    const double rate = DiurnalRate(spec, Hours(h));
    EXPECT_GE(rate, spec.base_fraction * spec.peak_rps - 1e-6);
    EXPECT_LE(rate, spec.peak_rps + 1e-6);
  }
}

TEST(JitteredDiurnalRate, DeterministicPerSeedAndDiffersAcrossSeeds) {
  const ServiceSpec a = TestSpec();
  ServiceSpec b = TestSpec();
  b.seed = a.seed + 1;
  bool diverged = false;
  for (std::int64_t k = 0; k < 100; ++k) {
    const SimTime t = a.start + (k + 1) * Seconds(30);
    // Bitwise-identical on repeated evaluation (pure in its arguments).
    EXPECT_EQ(JitteredDiurnalRate(a, k, t), JitteredDiurnalRate(a, k, t));
    if (JitteredDiurnalRate(a, k, t) != JitteredDiurnalRate(b, k, t)) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(JitteredDiurnalRate, RandomAccessMatchesSequentialEvaluation) {
  const ServiceSpec spec = TestSpec();
  // Evaluate ticks backwards and compare to forward evaluation: the jitter
  // is hash-keyed, not drawn from sequential RNG state, so order is
  // irrelevant.
  std::vector<double> forward, backward(50);
  for (std::int64_t k = 0; k < 50; ++k) {
    forward.push_back(
        JitteredDiurnalRate(spec, k, spec.start + (k + 1) * Seconds(30)));
  }
  for (std::int64_t k = 49; k >= 0; --k) {
    backward[static_cast<size_t>(k)] =
        JitteredDiurnalRate(spec, k, spec.start + (k + 1) * Seconds(30));
  }
  EXPECT_EQ(forward, backward);
}

// --- Fleet generation -------------------------------------------------------

TEST(ServiceFleet, GenerationIsDeterministic) {
  ServiceFleetConfig config;
  config.services = 6;
  const std::vector<ServiceSpec> fleet = GenerateServiceFleet(config);
  const std::vector<ServiceSpec> again = GenerateServiceFleet(config);
  ASSERT_EQ(fleet.size(), 6u);
  ASSERT_EQ(again.size(), 6u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet[i].id, again[i].id);
    EXPECT_EQ(fleet[i].replicas, again[i].replicas);
    EXPECT_EQ(fleet[i].peak_rps, again[i].peak_rps);
    EXPECT_EQ(fleet[i].base_fraction, again[i].base_fraction);
    EXPECT_EQ(fleet[i].phase, again[i].phase);
    EXPECT_EQ(fleet[i].replica_capacity_rps, again[i].replica_capacity_rps);
    EXPECT_EQ(fleet[i].seed, again[i].seed);
  }
}

TEST(ServiceFleet, PeaksSpreadAcrossThePeriodAndSizedForUtilization) {
  ServiceFleetConfig config;
  config.services = 4;
  const std::vector<ServiceSpec> fleet = GenerateServiceFleet(config);
  const SimDuration slot = config.period / config.services;
  for (int i = 0; i < config.services; ++i) {
    const ServiceSpec& spec = fleet[static_cast<size_t>(i)];
    EXPECT_GE(spec.phase, i * slot);
    EXPECT_LT(spec.phase, (i + 1) * slot);
    // Full warm fleet serves the peak at the configured utilization.
    const double peak_util =
        spec.peak_rps / (spec.replicas * spec.replica_capacity_rps);
    EXPECT_NEAR(peak_util, config.peak_utilization, 1e-9);
  }
}

// --- M/M/c latency model ----------------------------------------------------

TEST(MmcModel, ResponseGrowsWithLoadAndShrinksWithCapacity) {
  const double mu = 100.0;
  const SimDuration light = MmcMeanResponse(50.0, mu, 4.0);
  const SimDuration heavy = MmcMeanResponse(350.0, mu, 4.0);
  EXPECT_LT(light, heavy);
  const SimDuration more_servers = MmcMeanResponse(350.0, mu, 8.0);
  EXPECT_LT(more_servers, heavy);
}

TEST(MmcModel, OverloadAndEmptyFleetAreCapped) {
  const double mu = 100.0;
  EXPECT_EQ(MmcMeanResponse(500.0, mu, 4.0), kOverloadResponse);  // rho > 1
  EXPECT_EQ(MmcMeanResponse(400.0, mu, 4.0), kOverloadResponse);  // rho == 1
  EXPECT_EQ(MmcMeanResponse(10.0, mu, 0.0), kOverloadResponse);   // no servers
}

TEST(MmcModel, QuantilesAreOrdered) {
  const LatencyQuantiles q = MmcQuantiles(300.0, 100.0, 4.0);
  EXPECT_LT(q.p50, q.p95);
  EXPECT_LT(q.p95, q.p99);
  EXPECT_LE(q.p99, kOverloadResponse);
}

// --- ServiceManager ---------------------------------------------------------

TEST(ServiceManager, ColdStartsWarmUpAndAreCounted) {
  ServiceManager manager({TestSpec()});
  const SimTime t0 = Hours(1);
  manager.ReplicaUp(0, 0, t0, /*cold=*/false);
  manager.ReplicaUp(0, 1, t0, /*cold=*/true);
  // Warm replica counts fully; cold one at warmup_factor until warmed.
  EXPECT_NEAR(manager.EffectiveReplicas(0, t0), 1.25, 1e-12);
  EXPECT_NEAR(manager.EffectiveReplicas(0, t0 + Minutes(3)), 2.0, 1e-12);
  EXPECT_EQ(manager.totals(0).cold_starts, 1);
  manager.ReplicaDown(0, 1);
  EXPECT_NEAR(manager.EffectiveReplicas(0, t0 + Minutes(3)), 1.0, 1e-12);
}

TEST(ServiceManager, TickAttributesPreemptVsOrganicViolations) {
  ServiceSpec spec = TestSpec();
  spec.seed = 3;  // fixed jitter stream
  ServiceManager manager({spec});
  const SimTime peak = spec.phase + spec.period / 4;

  // All four replicas warm at the peak: 80% utilized, SLO holds.
  for (int r = 0; r < 4; ++r) manager.ReplicaUp(0, r, 0, /*cold=*/false);
  ServiceManager::TickSample full = manager.Tick(0, 0, peak);
  EXPECT_FALSE(full.violated);
  EXPECT_EQ(full.violation_s, 0);

  // Losing one replica at the peak pushes past saturation: the full-fleet
  // counterfactual would have met the SLO, so the tick is preempt-caused.
  manager.ReplicaDown(0, 3);
  ServiceManager::TickSample degraded = manager.Tick(0, 1, peak);
  EXPECT_TRUE(degraded.violated);
  EXPECT_EQ(degraded.preempt_s, ToSeconds(kServiceTick));
  EXPECT_EQ(degraded.organic_s, 0);

  // A fleet that violates even at full warm strength accrues organic time.
  ServiceSpec overloaded = TestSpec();
  overloaded.replica_capacity_rps = overloaded.peak_rps / 8.0;  // saturated
  ServiceManager organic_mgr({overloaded});
  for (int r = 0; r < 4; ++r) organic_mgr.ReplicaUp(0, r, 0, /*cold=*/false);
  ServiceManager::TickSample organic =
      organic_mgr.Tick(0, 0, overloaded.phase + overloaded.period / 4);
  EXPECT_TRUE(organic.violated);
  EXPECT_EQ(organic.organic_s, ToSeconds(kServiceTick));
  EXPECT_EQ(organic.preempt_s, 0);
}

TEST(ServiceManager, MarginalViolationZeroInTroughFullSpanAtPeak) {
  const ServiceSpec spec = TestSpec();
  ServiceManager manager({spec});
  for (int r = 0; r < 4; ++r) manager.ReplicaUp(0, r, 0, /*cold=*/false);
  const SimTime peak = spec.phase + spec.period / 4;
  const SimTime trough = spec.phase + 3 * spec.period / 4;
  // Trough: plenty of headroom, losing a replica costs nothing.
  EXPECT_EQ(manager.MarginalViolationSeconds(0, trough, Minutes(2), 1.0), 0);
  // Peak: losing a replica violates for the whole span.
  EXPECT_EQ(manager.MarginalViolationSeconds(0, peak, Minutes(2), 1.0),
            ToSeconds(Minutes(2)));
  // Zero span or zero removal never costs.
  EXPECT_EQ(manager.MarginalViolationSeconds(0, peak, 0, 1.0), 0);
  EXPECT_EQ(manager.MarginalViolationSeconds(0, peak, Minutes(2), 0.0), 0);
}

// --- Algorithm 1, service branch --------------------------------------------

TEST(DecideServicePreemption, TroughsKillPeaksCheckpoint) {
  // Trough: no violation either way; the checkpoint still pays overhead.
  ServicePreemptCost trough;
  trough.kill_violation_s = 0;
  trough.ckpt_violation_s = 0;
  trough.ckpt_overhead = Seconds(12);
  EXPECT_EQ(DecideServicePreemption(trough, false), PreemptAction::kKill);

  // Peak: cold restart buys minutes of violation, the freeze seconds.
  ServicePreemptCost peak;
  peak.kill_violation_s = 200.0;
  peak.ckpt_violation_s = 15.0;
  peak.ckpt_overhead = Seconds(12);
  EXPECT_EQ(DecideServicePreemption(peak, false),
            PreemptAction::kCheckpointFull);
  EXPECT_EQ(DecideServicePreemption(peak, true),
            PreemptAction::kCheckpointIncremental);

  // Threshold scales the checkpoint side, like the batch Algorithm 1.
  EXPECT_EQ(DecideServicePreemption(peak, false, /*threshold=*/10.0),
            PreemptAction::kKill);
}

}  // namespace
}  // namespace ckpt
