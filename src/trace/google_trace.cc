#include "trace/google_trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace ckpt {
namespace {

// Latency-class weights from Table 2 task counts (37.4M / 5.94M / 3.70M /
// 0.28M).
constexpr double kClassWeight[kNumLatencyClasses] = {0.790, 0.125, 0.078,
                                                     0.007};

// P(free band | latency class), solved so the per-class preemption rates of
// Table 2 (11.76 / 18.87 / 8.14 / 14.80 %) emerge from the per-band rates of
// Table 1, while the marginal band mix stays 59.9 / 36.5 / 3.6 %.
constexpr double kFreeGivenClass[kNumLatencyClasses] = {0.57, 0.93, 0.39,
                                                        0.73};

// Middle share of the non-free remainder: 36.5 / (36.5 + 3.6).
constexpr double kMiddleShareOfRest = 0.91;

double BandRate(const GoogleTraceConfig& cfg, int priority) {
  switch (BandOf(priority)) {
    case PriorityBand::kFree: return cfg.preempt_rate_free;
    case PriorityBand::kMiddle: return cfg.preempt_rate_middle;
    case PriorityBand::kProduction: return cfg.preempt_rate_production;
  }
  return 0.0;
}

// Diurnal arrival modulation: accept-reject against a sinusoid so submit
// times show the day/night swing visible in Fig. 1a. Low-priority batch
// arrives around the clock (small amplitude); higher-priority foreground
// work is strongly diurnal — its peaks colliding with the standing
// low-priority pool is what drives the trace's eviction rate.
SimTime SampleSubmitTime(Rng& rng, SimDuration span, double amplitude) {
  for (;;) {
    const double t = rng.Uniform() * static_cast<double>(span);
    const double day_phase = 2.0 * M_PI * (t / static_cast<double>(kDay));
    const double weight = 1.0 + amplitude * std::sin(day_phase);
    if (rng.Uniform() * (1.0 + amplitude) <= weight) {
      return static_cast<SimTime>(t);
    }
  }
}

double ArrivalAmplitude(int priority) {
  return BandOf(priority) == PriorityBand::kFree ? 0.2 : 0.9;
}

// GenerateWorkloadSample's job generator. Each Next() draws one job from the
// one Rng in generation order: priority, submit time, size, demand, duration,
// then each task. That order fixes every seed's workload; the jobs are
// sorted by submit time only afterwards.
struct SampleJobGen {
  GoogleTraceGenerator gen;  // carries only config; cheap to copy
  Rng rng;
  int j = 0;
  std::int64_t next_task = 0;

  bool Done() const { return j >= gen.config().sample_jobs; }

  JobSpec Next() {
    const GoogleTraceConfig& config = gen.config();
    JobSpec job;
    job.id = JobId(j);
    job.priority = gen.SamplePriority(rng);
    job.submit_time =
        SampleSubmitTime(rng, kDay, ArrivalAmplitude(job.priority));

    // Heavy-tailed tasks-per-job: most jobs are small, a few have
    // thousands of tasks (mean ~35-40).
    double n = rng.LogNormal(std::log(5.0), 1.9) * config.sample_task_scale;
    const int num_tasks = static_cast<int>(std::clamp(n, 1.0, 3000.0));

    const Resources demand = gen.SampleDemand(rng, job.priority);
    SimDuration duration = gen.SampleDuration(rng, job.priority);
    // Bound each job's total work: wide jobs run short tasks. Without this
    // a single 3000-task job of 10-hour tasks would dwarf the rest of the
    // day's demand, which the real trace's steady >22k-core load rules out.
    constexpr double kMaxJobCoreSeconds = 300.0 * 3600;
    if (ToSeconds(duration) * num_tasks > kMaxJobCoreSeconds) {
      duration = Seconds(kMaxJobCoreSeconds / num_tasks);
    }
    job.tasks.reserve(static_cast<size_t>(num_tasks));
    for (int k = 0; k < num_tasks; ++k) {
      TaskSpec task;
      task.id = TaskId(next_task++);
      task.job = job.id;
      task.priority = job.priority;
      task.latency_class = gen.SampleLatencyClass(rng);
      // Sibling tasks look alike (same binary), with mild jitter.
      task.duration = static_cast<SimDuration>(
          static_cast<double>(duration) * rng.Uniform(0.8, 1.25));
      task.demand = demand;
      task.memory_write_rate = rng.Uniform(0.002, 0.05);
      job.tasks.push_back(task);
    }
    ++j;
    return job;
  }
};

}  // namespace

GoogleTraceGenerator::GoogleTraceGenerator(GoogleTraceConfig config)
    : config_(config) {
  CKPT_CHECK_GT(config_.trace_days, 0);
  CKPT_CHECK_GT(config_.trace_tasks, 0);
}

int GoogleTraceGenerator::SampleLatencyClass(Rng& rng) const {
  double u = rng.Uniform();
  for (int c = 0; c < kNumLatencyClasses; ++c) {
    if (u < kClassWeight[c]) return c;
    u -= kClassWeight[c];
  }
  return 0;
}

int GoogleTraceGenerator::SamplePriority(Rng& rng) const {
  // Priority is drawn conditionally on an (already sampled) latency class by
  // the callers that need the Table-2 coupling; this overload samples the
  // marginal mix. Within a band the low priorities dominate.
  const int cls = SampleLatencyClass(rng);
  const double u = rng.Uniform();
  PriorityBand band;
  if (u < kFreeGivenClass[cls]) {
    band = PriorityBand::kFree;
  } else if (rng.Uniform() < kMiddleShareOfRest) {
    band = PriorityBand::kMiddle;
  } else {
    band = PriorityBand::kProduction;
  }
  switch (band) {
    case PriorityBand::kFree:
      return rng.Bernoulli(0.62) ? 0 : 1;
    case PriorityBand::kMiddle: {
      // Decaying weights over priorities 2..8.
      const double w = rng.Uniform();
      if (w < 0.38) return 2;
      if (w < 0.62) return 3;
      if (w < 0.78) return 4;
      if (w < 0.88) return 5;
      if (w < 0.94) return 6;
      if (w < 0.98) return 7;
      return 8;
    }
    case PriorityBand::kProduction:
      return 9 + static_cast<int>(rng.UniformInt(0, 2));
  }
  return 0;
}

int GoogleTraceGenerator::SamplePreemptionCount(Rng& rng, int priority) const {
  if (!rng.Bernoulli(BandRate(config_, priority))) return 0;
  // Conditional on being preempted at least once, reproduce the Fig. 1c
  // tail: P(count >= 2) = 43.5 %, P(count >= 10) = 17 %. A 17 % "chronic"
  // component starts at 10 evictions; the rest is geometric with continue
  // probability 0.32 (0.17 + 0.83*0.32 = 0.435).
  if (rng.Bernoulli(0.17)) {
    int count = 10;
    while (rng.Bernoulli(0.5) && count < 60) ++count;
    return count;
  }
  int count = 1;
  while (rng.Bernoulli(0.32) && count < 9) ++count;
  return count;
}

SimDuration GoogleTraceGenerator::SampleDuration(Rng& rng,
                                                 int priority) const {
  // Heavy-tailed durations; production tasks run longer (services). The
  // long low-priority tail matters: the trace's preempted tasks average
  // four evictions per task-day, i.e. they run for hours — that is where
  // kill-based preemption loses its 35% of usage.
  // Calibrated so the paper's one-day slice shape holds: ~15k jobs / ~600k
  // tasks demanding >22k cores implies roughly an hour of work per task on
  // average.
  const bool production = BandOf(priority) == PriorityBand::kProduction;
  const double x_m = production ? 1200.0 : 400.0;
  const double alpha = production ? 1.1 : 1.15;
  const double cap = production ? 16.0 * 3600 : 10.0 * 3600;
  const double secs = std::min(rng.Pareto(x_m, alpha), cap);
  return Seconds(secs);
}

Resources GoogleTraceGenerator::SampleDemand(Rng& rng, int priority) const {
  static constexpr double kCpuChoices[] = {0.25, 0.5, 1.0, 2.0};
  static constexpr double kCpuWeights[] = {0.30, 0.35, 0.25, 0.10};
  double u = rng.Uniform();
  double cpus = kCpuChoices[3];
  for (int i = 0; i < 4; ++i) {
    if (u < kCpuWeights[i]) {
      cpus = kCpuChoices[i];
      break;
    }
    u -= kCpuWeights[i];
  }
  // Memory: log-normal, median ~0.6 GiB, capped at 8 GiB; production tasks
  // skew a little larger.
  const double median = BandOf(priority) == PriorityBand::kProduction ? 1.2 : 0.6;
  const double gib =
      std::min(rng.LogNormal(std::log(median), 0.9), 8.0);
  return Resources{cpus, GiB(std::max(gib, 0.05))};
}

EventTrace GoogleTraceGenerator::GenerateEventTrace() {
  Rng rng(config_.seed);
  EventTrace trace;
  trace.span = config_.trace_days * kDay;
  trace.events.reserve(static_cast<size_t>(config_.trace_tasks) * 4);

  for (std::int64_t i = 0; i < config_.trace_tasks; ++i) {
    const TaskId task(i);
    const JobId job(i / 8);  // ~8 tasks/job; job identity is cosmetic here
    const int cls = SampleLatencyClass(rng);
    // Couple priority to the latency class (Table 2).
    PriorityBand band;
    if (rng.Uniform() < kFreeGivenClass[cls]) {
      band = PriorityBand::kFree;
    } else if (rng.Uniform() < kMiddleShareOfRest) {
      band = PriorityBand::kMiddle;
    } else {
      band = PriorityBand::kProduction;
    }
    int priority = 0;
    switch (band) {
      case PriorityBand::kFree: priority = rng.Bernoulli(0.62) ? 0 : 1; break;
      case PriorityBand::kMiddle:
        priority = 2 + static_cast<int>(rng.UniformInt(0, 6) *
                                        rng.Uniform());  // skew low
        break;
      case PriorityBand::kProduction:
        priority = 9 + static_cast<int>(rng.UniformInt(0, 2));
        break;
    }

    const int preemptions = SamplePreemptionCount(rng, priority);
    SimDuration duration = SampleDuration(rng, priority);
    // Tasks that get preempted repeatedly are the long-running ones (more
    // exposure); this correlation is what makes the wasted share of total
    // usage (~35 %) much larger than the 12 % task-level preemption rate.
    if (preemptions > 0) {
      duration = static_cast<SimDuration>(
          static_cast<double>(duration) * (2.0 + 1.5 * preemptions));
    }
    const double cpus = SampleDemand(rng, priority).cpus;

    SimTime t = SampleSubmitTime(rng, trace.span, ArrivalAmplitude(priority));
    auto emit = [&](TraceEventType type, SimTime when) {
      trace.events.push_back(
          TraceEvent{when, task, job, priority, cls, cpus, type});
    };
    emit(TraceEventType::kSubmit, t);

    // Split the work over preemptions+1 attempts with random cut points;
    // each eviction discards that attempt's progress (kill-based policy, as
    // in the real cluster).
    const int attempts = preemptions + 1;
    for (int a = 0; a < attempts; ++a) {
      t += Seconds(rng.Exponential(30.0));  // queueing delay
      emit(TraceEventType::kSchedule, t);
      SimDuration run = duration / attempts;
      // Jitter the attempt length so attempts differ.
      run = static_cast<SimDuration>(static_cast<double>(run) *
                                     rng.Uniform(0.5, 1.5));
      if (run < kSecond) run = kSecond;
      t += run;
      if (a + 1 < attempts) {
        emit(TraceEventType::kEvict, t);
        t += Seconds(rng.Exponential(60.0));  // resubmission backoff
      } else {
        emit(TraceEventType::kFinish, t);
      }
    }
  }

  std::sort(trace.events.begin(), trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.task.value() < b.task.value();
            });
  return trace;
}

Workload GoogleTraceGenerator::GenerateWorkloadSample() {
  SampleJobGen gen{*this, Rng(config_.seed ^ 0xABCDEF)};
  Workload workload;
  workload.jobs.reserve(static_cast<size_t>(config_.sample_jobs));
  while (!gen.Done()) {
    workload.jobs.push_back(gen.Next());
  }
  workload.SortBySubmitTime();
  return workload;
}

}  // namespace ckpt
