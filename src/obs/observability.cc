#include "obs/observability.h"

#include <cstdlib>

#include "common/file.h"

namespace ckpt {

bool ObsEnabled() {
  const char* v = std::getenv("CKPT_OBS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string ObsPath(const std::string& filename) {
  const char* dir = std::getenv("CKPT_OBS_DIR");
  if (dir == nullptr || *dir == '\0') return filename;
  std::string path(dir);
  if (path.back() != '/') path += '/';
  return path + filename;
}

const std::string& Observability::TrackFor(NodeId node) {
  const auto i = static_cast<std::size_t>(node.value());
  if (node_tracks_.size() <= i) node_tracks_.resize(i + 1);
  std::string& track = node_tracks_[i];
  if (track.empty()) track = NodeTrack(node);
  return track;
}

Counter* Observability::DecisionCounter(const char* policy,
                                        const char* action) {
  for (const DecisionSeries& series : decision_series_) {
    if (series.policy == policy && series.action == action) {
      return series.counter;
    }
  }
  Counter* counter = metrics_.GetCounter(
      "policy.decisions", {{"policy", policy}, {"action", action}});
  decision_series_.push_back({policy, action, counter});
  return counter;
}

bool Observability::WriteMetricsJson(const std::string& path) const {
  return WriteFile(path, metrics_.ToJson(), "\n");
}

bool Observability::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, tracer_.ToChromeJson(), "\n");
}

bool Observability::WriteAuditJsonl(const std::string& path) const {
  return WriteFile(path, audit_.ToJsonl());
}

void Observability::FinalizeRun() {
  waste_.SnapshotTo(metrics_);
  self_profile_.SnapshotTo(metrics_);
  metrics_.GetGauge("tracer.dropped_events")
      ->Set(static_cast<double>(tracer_.dropped()));
  metrics_.GetGauge("audit.dropped_records")
      ->Set(static_cast<double>(audit_.dropped()));
  metrics_.GetGauge("audit.records")
      ->Set(static_cast<double>(audit_.size()));
}

}  // namespace ckpt
