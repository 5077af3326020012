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

}  // namespace ckpt
