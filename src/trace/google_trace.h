// Synthetic Google-cluster workload and event-trace generator.
//
// Stands in for the public May-2011 Google trace (Wilkes [25]): reproduces
// the published marginals the paper's S2 analysis relies on —
//  - priority mix: 28.4M free / 17.3M middle / 1.7M production tasks,
//  - latency-class mix of Table 2,
//  - preemption rates per band (20.26 % / 0.55 % / 1.02 %, 12.4 % overall),
//  - the repeat-preemption tail (43.5 % of preempted tasks preempted >= 2
//    times, 17 % >= 10 times),
//  - heavy-tailed task durations and per-task CPU/memory demand.
// Two products: (a) a 29-day *event trace* (submit/schedule/evict/finish)
// for the Fig. 1 / Table 1-2 analysis, and (b) a one-day *workload sample*
// (jobs with tasks, no evictions) that feeds the trace-driven scheduler of
// S3.3.2, which generates its own preemptions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "trace/workload.h"

namespace ckpt {

// --- Event trace (S2 analysis input) ---------------------------------------

enum class TraceEventType { kSubmit, kSchedule, kEvict, kFinish };

struct TraceEvent {
  SimTime time = 0;
  TaskId task;
  JobId job;
  int priority = 0;
  int latency_class = 0;
  double cpus = 0;
  TraceEventType type = TraceEventType::kSubmit;
};

struct EventTrace {
  std::vector<TraceEvent> events;  // time-ordered
  SimDuration span = 0;
};

struct GoogleTraceConfig {
  std::uint64_t seed = 2011;

  // Event-trace knobs.
  int trace_days = 29;
  std::int64_t trace_tasks = 200'000;  // scaled stand-in for the 47.4M tasks

  // Workload-sample knobs (the paper's one-day slice: ~15k jobs, ~600k
  // tasks, >22k cores of demand).
  int sample_jobs = 15'000;
  double sample_task_scale = 1.0;  // scales tasks per job

  // Per-band preemption probabilities (Table 1).
  double preempt_rate_free = 0.2026;
  double preempt_rate_middle = 0.0055;
  double preempt_rate_production = 0.0102;
};

class GoogleTraceGenerator {
 public:
  explicit GoogleTraceGenerator(GoogleTraceConfig config = {});

  // (a) 29-day schedule/evict event stream.
  EventTrace GenerateEventTrace();

  // (b) One-day workload sample for the scheduler simulations.
  Workload GenerateWorkloadSample();

  const GoogleTraceConfig& config() const { return config_; }

  // Distribution pieces, exposed for tests.
  int SamplePriority(Rng& rng) const;
  int SampleLatencyClass(Rng& rng) const;
  int SamplePreemptionCount(Rng& rng, int priority) const;
  SimDuration SampleDuration(Rng& rng, int priority) const;
  Resources SampleDemand(Rng& rng, int priority) const;

 private:
  GoogleTraceConfig config_;
};

}  // namespace ckpt
