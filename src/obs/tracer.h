// Sim-time structured event tracing.
//
// Spans (begin/end pairs, e.g. ckpt.dump, dfs.write) and instant events
// (rm.preempt_event, policy.decision) are recorded against the simulator's
// microsecond clock — callers pass Now() explicitly, so the tracer has no
// dependency on the simulator and stays deterministic. Completed events sit
// in a bounded ring buffer (overflow drops the oldest), exportable as
// Chrome trace_event JSON (about:tracing / Perfetto) or as JSONL.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"

namespace ckpt {

// One typed span/instant argument; either a number or a string.
struct TraceArg {
  std::string key;
  bool is_string = false;
  double num = 0;
  std::string str;

  static TraceArg Num(std::string key, double value) {
    TraceArg arg;
    arg.key = std::move(key);
    arg.num = value;
    return arg;
  }
  static TraceArg Str(std::string key, std::string value) {
    TraceArg arg;
    arg.key = std::move(key);
    arg.is_string = true;
    arg.str = std::move(value);
    return arg;
  }
};

using TraceArgs = std::vector<TraceArg>;

// Appends args as one JSON object ({"key":value,...} in order), the
// spelling the trace and audit exports share.
void AppendArgsJson(const TraceArgs& args, std::string* out);

struct TraceRecord {
  std::string name;      // e.g. "ckpt.dump"
  std::string category;  // e.g. "ckpt"
  std::string track;     // rendering lane, e.g. "node/3" or "rm"
  char phase = 'X';      // 'X' complete span, 'i' instant
  SimTime start = 0;     // microseconds of sim time
  SimDuration duration = 0;
  std::int64_t seq = 0;  // insertion order; breaks same-instant ties
  TraceArgs args;
};

class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kInvalidSpan = 0;

  explicit Tracer(std::size_t capacity = 1 << 18);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Open a span at sim time `now`. The span is buffered out-of-ring until
  // EndSpan moves it into the ring as one complete ('X') event.
  SpanId BeginSpan(std::string name, std::string category, std::string track,
                   SimTime now, TraceArgs args = {});
  void EndSpan(SpanId id, SimTime now, TraceArgs extra_args = {});

  void Instant(std::string name, std::string category, std::string track,
               SimTime now, TraceArgs args = {});

  // Allocation-recycling instant for per-event hot sites: the caller fills
  // *record's name/category/track/args (rebuilding a member scratch record
  // in place); phase, start and seq are stamped here. Once the ring has
  // wrapped, the evicted record's buffers come back in *record, so
  // steady-state emission allocates nothing.
  void InstantSwap(TraceRecord* record, SimTime now);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t open_spans() const { return open_.size(); }
  std::int64_t dropped() const { return dropped_; }

  // Completed events sorted by sim time (ties in insertion order).
  std::vector<TraceRecord> SortedEvents() const;

  // Chrome trace_event format: {"traceEvents":[...]} with one metadata
  // thread_name event per track. Timestamps are sim microseconds.
  std::string ToChromeJson() const;

  // One JSON object per line; same fields, no enclosing array.
  std::string ToJsonl() const;

 private:
  // Moves *event into the ring; on overflow the oldest record's buffers are
  // swapped back into *event (see InstantSwap).
  void Push(TraceRecord* event);
  // Ring slots in export order: by sim time, ties in insertion order.
  std::vector<std::size_t> SortedSlots() const;

  std::size_t capacity_;
  // Flat ring: grows to capacity_, then wraps (head_ = oldest slot).
  // Vector, not deque: eviction swaps buffers out instead of destroying
  // them, and there is no per-block allocator churn at capacity.
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::unordered_map<SpanId, TraceRecord> open_;
  SpanId next_span_ = 1;
  std::int64_t next_seq_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace ckpt
