// Per-subsystem self-profile: scoped wall-clock timers answering "where
// does the simulator process itself spend host time".
//
// Wall time never reaches stdout or any sim-time artifact (it would break
// byte-identical determinism); it only lands in the metrics snapshot as
// self.wall_seconds{section} / self.calls{section} gauges via
// Observability::FinalizeRun. Hot paths resolve a Slot* once (mirroring
// the MetricsRegistry handle idiom) and a ScopedWallTimer on a null slot
// is a no-op, so the off path stays one pointer test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics_registry.h"

namespace ckpt {

class SelfProfile {
 public:
  struct Slot {
    double wall_seconds = 0;
    std::int64_t calls = 0;
  };

  SelfProfile() = default;
  SelfProfile(const SelfProfile&) = delete;
  SelfProfile& operator=(const SelfProfile&) = delete;

  // Find-or-create; the handle is stable for the profile's lifetime.
  Slot* slot(const std::string& section) { return &sections_[section]; }

  void SnapshotTo(MetricsRegistry& metrics) const {
    for (const auto& [section, s] : sections_) {
      if (s.calls == 0) continue;
      metrics.GetGauge("self.wall_seconds", {{"section", section}})
          ->Set(s.wall_seconds);
      metrics.GetGauge("self.calls", {{"section", section}})
          ->Set(static_cast<double>(s.calls));
    }
  }

 private:
  std::map<std::string, Slot> sections_;
};

class ScopedWallTimer {
 public:
  explicit ScopedWallTimer(SelfProfile::Slot* slot) : slot_(slot) {
    if (slot_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedWallTimer() {
    if (slot_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    slot_->wall_seconds +=
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count();
    ++slot_->calls;
  }

  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  SelfProfile::Slot* slot_;
  std::chrono::steady_clock::time_point start_;
};

// For sites too hot for two clock reads per call: counts every call, times
// one call in kEvery and adds kEvery times its elapsed time, so
// self.wall_seconds estimates the site's total at 1/kEvery of the clock
// cost. A null slot is a no-op, as with ScopedWallTimer.
//
// A timed interval also spans one clock read (~40 ns on a virtualized
// Xeon), as long as a typical call here; scaled by kEvery, that would
// overstate the site by about half. Each sample subtracts the mean empty
// interval, measured once per process.
class SampledWallTimer {
 public:
  static constexpr std::int64_t kEvery = 64;

  explicit SampledWallTimer(SelfProfile::Slot* slot) {
    if (slot == nullptr || slot->calls++ % kEvery != 0) return;
    slot_ = slot;
    start_ = std::chrono::steady_clock::now();
  }
  ~SampledWallTimer() {
    if (slot_ == nullptr) return;
    const double elapsed = Seconds(std::chrono::steady_clock::now() - start_);
    slot_->wall_seconds +=
        kEvery * std::max(0.0, elapsed - EmptyIntervalSeconds());
  }

  SampledWallTimer(const SampledWallTimer&) = delete;
  SampledWallTimer& operator=(const SampledWallTimer&) = delete;

 private:
  static double Seconds(std::chrono::steady_clock::duration d) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(d)
        .count();
  }
  static double EmptyIntervalSeconds() {
    static const double mean = [] {
      constexpr int kPairs = 1024;
      double total = 0;
      for (int i = 0; i < kPairs; ++i) {
        const auto start = std::chrono::steady_clock::now();
        total += Seconds(std::chrono::steady_clock::now() - start);
      }
      return total / kPairs;
    }();
    return mean;
  }

  SelfProfile::Slot* slot_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ckpt
