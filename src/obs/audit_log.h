// Decision audit log: a ring-buffered, deterministic JSONL stream of
// structured records for every Algorithm 1/2 decision the schedulers make.
//
// Where the Tracer answers "what happened when", the audit log answers
// "why": each record carries the decision's inputs — every candidate
// victim considered with its per-candidate cost terms and the reason it
// was taken or rejected, the feasibility-index counters at scan time,
// the local-vs-remote restore cost terms — so a run can be replayed as
// an argument, not just a timeline. Records are keyed only by sim time
// and an insertion sequence number (no wall clocks, no pointers), so two
// identical runs produce byte-identical JSONL. The ring drops the oldest
// record on overflow and counts the drops; `ckpt-report` and
// `scripts/check_trace.py` consume the schema documented in
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/packed_ring.h"  // TraceArg / TraceArgs / ArgSpan

namespace ckpt {

// One audited decision. `args` holds the decision-level inputs and the
// outcome; `candidates` holds one flat arg list per alternative that was
// weighed (victim containers, restore targets), each including an
// "action"/"reason" pair explaining its fate.
struct AuditRecord {
  std::string kind;   // e.g. "preempt_scan", "restore_decision"
  std::string track;  // locality hint, same spelling as tracer tracks
  SimTime t = 0;      // sim microseconds
  std::int64_t seq = 0;
  TraceArgs args;
  std::vector<TraceArgs> candidates;
  // Holds the bytes the string values view in copies record() returns;
  // shared, so copies of the record stay valid.
  std::shared_ptr<const std::string> arg_bytes;
};

class AuditLog {
 public:
  explicit AuditLog(std::size_t capacity = 1 << 16);

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  // Appends a record, stamping its sequence number. Oldest records fall
  // out when the ring is full. Every string is copied here, at the call,
  // so `args` and `candidates` may view short-lived buffers.
  void Event(std::string_view kind, std::string_view track, SimTime now,
             ArgSpan args, std::span<const TraceArgs> candidates = {});

  // Event() from an owning record; the log stamps its own seq.
  void Append(const AuditRecord& record) {
    Event(record.kind, record.track, record.t, record.args,
          record.candidates);
  }
  // Append(*record); *record is left as it was.
  void AppendSwap(AuditRecord* record) { Append(*record); }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  std::int64_t dropped() const { return ring_.dropped(); }
  std::int64_t total_appended() const { return next_seq_; }
  // Copy of the i-th retained record in insertion order (0 = oldest).
  AuditRecord record(std::size_t i) const;

  // One JSON object per line, in insertion order:
  //   {"seq":N,"t":T,"kind":"...","track":"...","args":{...},
  //    "candidates":[{...},...]}
  // "candidates" is omitted when empty. Deterministic: field order is
  // fixed and numbers use the shared canonical formatting.
  std::string ToJsonl() const;

 private:
  PackedRing ring_;
  std::int64_t next_seq_ = 0;
};

}  // namespace ckpt
