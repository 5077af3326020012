// Micro-benchmark for the simulator's event core: raw schedule/fire
// throughput, timer cancellation, and capture-size sensitivity.
//
// Every scenario runs twice — once on the current allocation-light
// EventQueue (sim/event_queue.h) and once on an in-bench reimplementation
// of the seed queue (std::function callbacks in a binary-heap
// priority_queue, one heap allocation per event) — so the before/after
// ratio is measured on the same binary and the perf trajectory survives
// the seed implementation's deletion.
//
// Output is key=value per line: scenario, impl (seed|new), event count,
// wall seconds, events_per_sec. With CKPT_OBS=1 the events_per_sec values
// are also exported as gauges to bench_micro_sim.metrics.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/simulator.h"

using namespace ckpt;
using namespace ckpt::bench;

namespace {

// Faithful copy of the seed event core: one std::function per event (whose
// 16-byte small-buffer capacity heap-allocates most simulator captures),
// pushed through a binary-heap priority_queue that move-constructs the
// callback O(log n) times per sift, popped with the const_cast move the
// new queue was built to delete.
class SeedSimulator {
 public:
  SimTime Now() const { return now_; }

  void ScheduleAt(SimTime when, std::function<void()> cb) {
    queue_.push(Event{when, next_seq_++, std::move(cb)});
  }
  void ScheduleAfter(SimDuration delay, std::function<void()> cb) {
    ScheduleAt(now_ + delay, std::move(cb));
  }

  std::int64_t Run() {
    std::int64_t processed = 0;
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.when;
      ++processed;
      event.cb();
    }
    return processed;
  }

 private:
  struct Event {
    SimTime when;
    std::int64_t seq;
    std::function<void()> cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::int64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// Padding sized so the whole self-rearming functor (pad + Sim* + count*)
// lands on the interesting boundaries: 24 B (heap for std::function's
// 16-byte buffer, inline for SimCallback), 64 B (SimCallback's inline
// limit), 128 B (heap for both).
struct Pad8 {
  void* a;
};
struct Pad48 {
  char bytes[32];
  void* a;
  void* b;
};
struct Pad112 {
  char bytes[96];
  void* a;
  void* b;
};

double Time(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct Sample {
  std::string scenario;
  std::string impl;
  std::int64_t events;
  double seconds;
  double EventsPerSec() const { return seconds > 0 ? events / seconds : 0; }
};

void Print(const Sample& sample) {
  std::printf("scenario=%-16s impl=%-4s events=%lld seconds=%.3f "
              "events_per_sec=%.0f\n",
              sample.scenario.c_str(), sample.impl.c_str(),
              static_cast<long long>(sample.events), sample.seconds,
              sample.EventsPerSec());
}

// Self-rearming event: each firing schedules its successor until the
// budget is spent, holding a pending window of ~kWindow events — the
// steady-state push/pop/sift pattern the trace sims produce. The pad sizes
// the callback the queue must store and move.
template <typename Sim, typename Pad>
struct Rearm {
  static constexpr int kWindow = 512;
  Sim* sim;
  std::int64_t* remaining;
  Pad pad;
  void operator()() const {
    if (--*remaining > 0) {
      sim->ScheduleAt(sim->Now() + kWindow, Rearm{sim, remaining, pad});
    }
  }
};

template <typename Sim, typename Pad>
Sample SteadyState(const char* scenario, const char* impl, std::int64_t n) {
  Sample sample{scenario, impl, n, 0};
  sample.seconds = Time([n] {
    Sim sim;
    std::int64_t remaining = n;
    for (int i = 0; i < Rearm<Sim, Pad>::kWindow && i < n; ++i) {
      sim.ScheduleAt(i, Rearm<Sim, Pad>{&sim, &remaining, Pad{}});
    }
    sim.Run();
  });
  return sample;
}

Sample CancelScenario(const char* impl, std::int64_t n, bool use_new) {
  Sample sample{"timer_cancel", impl, n, 0};
  if (use_new) {
    sample.seconds = Time([n] {
      Simulator sim;
      std::vector<EventHandle> handles;
      handles.reserve(static_cast<size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        handles.push_back(sim.ScheduleAt(i + 1, [] {}));
      }
      // Cancel every other timer, then drain the survivors.
      for (std::int64_t i = 0; i < n; i += 2) {
        sim.Cancel(handles[static_cast<size_t>(i)]);
      }
      sim.Run();
    });
  } else {
    sample.seconds = Time([n] {
      // The seed queue had no cancelation: the idiom was a shared guard the
      // callback checks when it surfaces, paying the full pop for dead
      // timers.
      SeedSimulator sim;
      auto canceled = std::make_shared<std::vector<char>>(
          static_cast<size_t>(n), 0);
      for (std::int64_t i = 0; i < n; ++i) {
        sim.ScheduleAt(i + 1, [canceled, i] {
          if ((*canceled)[static_cast<size_t>(i)]) return;
        });
      }
      for (std::int64_t i = 0; i < n; i += 2) {
        (*canceled)[static_cast<size_t>(i)] = 1;
      }
      sim.Run();
    });
  }
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 400000;
  std::printf("micro_sim | %lld events per scenario, impl=seed is the "
              "pre-rewrite std::function binary heap\n",
              static_cast<long long>(n));

  std::vector<Sample> samples;
  samples.push_back(
      SteadyState<SeedSimulator, Pad8>("fire_capture24B", "seed", n));
  samples.push_back(SteadyState<Simulator, Pad8>("fire_capture24B", "new", n));
  samples.push_back(
      SteadyState<SeedSimulator, Pad48>("fire_capture64B", "seed", n));
  samples.push_back(
      SteadyState<Simulator, Pad48>("fire_capture64B", "new", n));
  samples.push_back(
      SteadyState<SeedSimulator, Pad112>("fire_capture128B", "seed", n));
  samples.push_back(
      SteadyState<Simulator, Pad112>("fire_capture128B", "new", n));
  samples.push_back(CancelScenario("seed", n, /*use_new=*/false));
  samples.push_back(CancelScenario("new", n, /*use_new=*/true));

  for (const Sample& sample : samples) Print(sample);

  // Before/after summary per scenario (new vs seed throughput).
  for (size_t i = 0; i + 1 < samples.size(); i += 2) {
    const double seed_eps = samples[i].EventsPerSec();
    const double new_eps = samples[i + 1].EventsPerSec();
    std::printf("speedup scenario=%-16s new_vs_seed=%.2fx\n",
                samples[i].scenario.c_str(),
                seed_eps > 0 ? new_eps / seed_eps : 0);
  }

  if (ObsEnabled()) {
    Observability obs;
    for (const Sample& sample : samples) {
      obs.metrics()
          .GetGauge("sim.events_per_sec",
                    {{"scenario", sample.scenario}, {"impl", sample.impl}})
          ->Set(sample.EventsPerSec());
    }
    WriteObsFile("bench_micro_sim.metrics.json", obs.metrics().ToJson() + "\n");
  }
  return 0;
}
