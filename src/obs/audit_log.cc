#include "obs/audit_log.h"

#include <algorithm>

#include "common/json.h"
#include "common/logging.h"

namespace ckpt {

namespace {
// Leading strings of an audit record.
enum Text : std::size_t { kKind = 0, kTrack = 1 };
}  // namespace

AuditLog::AuditLog(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void AuditLog::Event(std::string_view kind, std::string_view track,
                     SimTime now, ArgSpan args,
                     std::span<const TraceArgs> candidates) {
  PackedRing::Header header;
  header.start = now;
  header.seq = next_seq_++;
  header.text = {static_cast<std::uint32_t>(kind.size()),
                 static_cast<std::uint32_t>(track.size()), 0};
  const std::string_view text[] = {kind, track};
  ring_.Append(header, {.text = text, .args = args, .lists = candidates});
}

AuditRecord AuditLog::record(std::size_t i) const {
  CKPT_CHECK_LT(i, ring_.size());
  const PackedRing::Header& header = ring_.header(i);
  AuditRecord rec;
  rec.kind = ring_.text(i, kKind);
  rec.track = ring_.text(i, kTrack);
  rec.t = header.start;
  rec.seq = header.seq;
  rec.arg_bytes = std::make_shared<const std::string>(ring_.args(i));
  std::string_view args = *rec.arg_bytes;
  rec.args = PackedRing::DecodeArgs(&args);
  while (PackedRing::NextList(&args)) {
    rec.candidates.push_back(PackedRing::DecodeArgs(&args));
  }
  return rec;
}

std::string AuditLog::ToJsonl() const {
  std::string out;
  out.reserve(ring_.size() * 160);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const PackedRing::Header& header = ring_.header(i);
    out += "{\"seq\":";
    json::AppendInt(header.seq, &out);
    out += ",\"t\":";
    json::AppendInt(header.start, &out);
    out += ",\"kind\":\"";
    json::AppendEscaped(ring_.text(i, kKind), &out);
    out += "\",\"track\":\"";
    json::AppendEscaped(ring_.text(i, kTrack), &out);
    out += "\",\"args\":";
    std::string_view args = ring_.args(i);
    PackedRing::AppendArgsJson(&args, &out);
    if (!args.empty()) {
      out += ",\"candidates\":[";
      for (bool first = true; PackedRing::NextList(&args); first = false) {
        if (!first) out.push_back(',');
        PackedRing::AppendArgsJson(&args, &out);
      }
      out.push_back(']');
    }
    out += "}\n";
  }
  return out;
}

}  // namespace ckpt
