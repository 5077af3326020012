#include "obs/observability.h"

#include <fstream>

namespace ckpt {

namespace {
// Writes the serialized buffer as is; `trailer` ends the single-document
// formats with a newline without copying the document to append it. The
// stream is closed before its state is read: a file smaller than the
// stream buffer reaches the disk only in that final flush.
bool WriteFile(const std::string& path, const std::string& content,
               const char* trailer = "") {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out << trailer;
  out.close();
  return static_cast<bool>(out);
}
}  // namespace

bool Observability::WriteMetricsJson(const std::string& path) const {
  return WriteFile(path, metrics_.ToJson(), "\n");
}

bool Observability::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, tracer_.ToChromeJson(), "\n");
}

bool Observability::WriteTraceJsonl(const std::string& path) const {
  return WriteFile(path, tracer_.ToJsonl());
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
