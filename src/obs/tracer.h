// Sim-time structured event tracing.
//
// Spans (begin/end pairs, e.g. ckpt.dump, dfs.write) and instant events
// (fault.node_crash, fault.ckpt_retry) are recorded against the simulator's
// microsecond clock — callers pass Now() explicitly, so the tracer has no
// dependency on the simulator and stays deterministic. Scheduler decisions
// are not traced: each one is recorded once, in the AuditLog. Completed
// events sit in a bounded ring buffer (overflow drops the oldest),
// exportable as Chrome trace_event JSON (about:tracing / Perfetto).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/packed_ring.h"  // TraceArg / TraceArgs / ArgSpan

namespace ckpt {

// A completed event as SortedEvents returns it: an owning copy.
struct TraceRecord {
  std::string name;      // e.g. "ckpt.dump"
  std::string category;  // e.g. "ckpt"
  std::string track;     // rendering lane, e.g. "node/3" or "rm"
  char phase = 'X';      // 'X' complete span, 'i' instant
  SimTime start = 0;     // microseconds of sim time
  SimDuration duration = 0;
  std::int64_t seq = 0;  // insertion order; breaks same-instant ties
  TraceArgs args;
  // Holds the bytes `args` string values view in copies the tracer
  // returns; shared, so copies of the record stay valid.
  std::shared_ptr<const std::string> arg_bytes;
};

class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kInvalidSpan = 0;

  explicit Tracer(std::size_t capacity = 1 << 18);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Open a span at sim time `now`. The span is buffered out-of-ring until
  // EndSpan moves it into the ring as one complete ('X') event. Every
  // string is copied here, at the call.
  SpanId BeginSpan(std::string_view name, std::string_view category,
                   std::string_view track, SimTime now, ArgSpan args = {});
  void EndSpan(SpanId id, SimTime now, ArgSpan extra_args = {});

  void Instant(std::string_view name, std::string_view category,
               std::string_view track, SimTime now, ArgSpan args = {});

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t open_spans() const { return open_.size(); }
  std::int64_t dropped() const { return ring_.dropped(); }

  // Completed events sorted by sim time (ties in insertion order).
  std::vector<TraceRecord> SortedEvents() const;

  // Chrome trace_event format: {"traceEvents":[...]} with one metadata
  // thread_name event per track. Timestamps are sim microseconds.
  std::string ToChromeJson() const;

 private:
  // An open span: its header and its name, category, track and begin
  // args, already encoded.
  struct OpenSpan {
    PackedRing::Header header;
    std::string payload;
  };

  // Appends to the ring, warning once when it starts dropping.
  void Push(const PackedRing::Header& header,
            const PackedRing::Payload& payload);

  PackedRing ring_;
  std::unordered_map<SpanId, OpenSpan> open_;
  SpanId next_span_ = 1;
  std::int64_t next_seq_ = 0;
};

}  // namespace ckpt
