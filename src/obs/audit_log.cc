#include "obs/audit_log.h"

#include <utility>

#include "common/json.h"

namespace ckpt {

AuditLog::AuditLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // Do not reserve capacity_ up front: most runs retire far fewer records
  // than the ring bound, and short-lived sweep cells each own a log.
}

void AuditLog::AppendSwap(AuditRecord* record) {
  record->seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(*record));
    return;
  }
  // Full: overwrite the oldest slot by swapping, handing its buffers back
  // to the caller for reuse.
  std::swap(ring_[head_], *record);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

std::string AuditLog::ToJsonl() const {
  std::string out;
  out.reserve(ring_.size() * 160);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const AuditRecord& rec = record(i);
    out += "{\"seq\":";
    json::AppendInt(rec.seq, &out);
    out += ",\"t\":";
    json::AppendInt(rec.t, &out);
    out += ",\"kind\":\"";
    json::AppendEscaped(rec.kind, &out);
    out += "\",\"track\":\"";
    json::AppendEscaped(rec.track, &out);
    out += "\",\"args\":";
    AppendArgsJson(rec.args, &out);
    if (!rec.candidates.empty()) {
      out += ",\"candidates\":[";
      bool first = true;
      for (const TraceArgs& cand : rec.candidates) {
        if (!first) out.push_back(',');
        first = false;
        AppendArgsJson(cand, &out);
      }
      out.push_back(']');
    }
    out += "}\n";
  }
  return out;
}

}  // namespace ckpt
