// Single observability context threaded through YarnCluster / Simulator
// construction: a MetricsRegistry plus a Tracer, with file-export helpers.
//
// Components hold an `Observability*` that may be null; null means
// observability is off and every hot path reduces to one pointer test, so
// benches pay nothing unless they opt in. No global state: tests and
// benches construct their own context and pass it through the config.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/audit_log.h"
#include "obs/metrics_registry.h"
#include "obs/self_profile.h"
#include "obs/tracer.h"
#include "obs/waste_ledger.h"

namespace ckpt {

// The export switch every bench and CLI shares: CKPT_OBS set to anything but
// "" or "0" turns recording and export on, so default runs stay
// byte-identical on stdout and pay no recording cost.
bool ObsEnabled();
// Where an export named `filename` goes: under CKPT_OBS_DIR when it is set,
// else the current directory.
std::string ObsPath(const std::string& filename);

class Observability {
 public:
  explicit Observability(std::size_t trace_capacity = 1 << 18,
                         std::size_t audit_capacity = 1 << 16)
      : tracer_(trace_capacity), audit_(audit_capacity) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  WasteLedger& waste() { return waste_; }
  const WasteLedger& waste() const { return waste_; }
  SelfProfile& self_profile() { return self_profile_; }
  const SelfProfile& self_profile() const { return self_profile_; }

  // Canonical track/label spelling for per-node series ("node/3").
  static std::string NodeTrack(NodeId node) {
    return "node/" + std::to_string(node.value());
  }
  static std::string NodeLabel(NodeId node) {
    return std::to_string(node.value());
  }
  // NodeTrack(node), built once per node and shared by every component
  // recording into this context. The reference stays valid for the
  // context's lifetime: growing a deque at its end never moves elements.
  const std::string& TrackFor(NodeId node);

  // The policy.decisions{policy, action} counter every scheduler front-end
  // ticks once per preemption decision. Resolved on first use, so only the
  // decisions a run takes appear as series.
  Counter* DecisionCounter(const char* policy, const char* action);

  // Export helpers; false when the file cannot be written.
  bool WriteMetricsJson(const std::string& path) const;
  bool WriteChromeTrace(const std::string& path) const;
  bool WriteAuditJsonl(const std::string& path) const;

  // Folds end-of-run derived series into the metrics registry: the waste
  // ledger and self-profile snapshots, plus tracer.dropped_events and
  // audit.dropped_records gauges. Idempotent (everything is Set-based),
  // so schedulers call it at the end of Run and benches may call it again
  // before exporting.
  void FinalizeRun();

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  AuditLog audit_;
  WasteLedger waste_;
  SelfProfile self_profile_;
  std::deque<std::string> node_tracks_;  // indexed by node id (dense)
  struct DecisionSeries {
    std::string policy;
    std::string action;
    Counter* counter = nullptr;
  };
  std::vector<DecisionSeries> decision_series_;
};

}  // namespace ckpt
