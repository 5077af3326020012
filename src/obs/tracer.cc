#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/json.h"
#include "common/logging.h"

namespace ckpt {

namespace {

void AppendEvent(const TraceRecord& event, int tid, std::string* out) {
  *out += "{\"name\":\"";
  json::AppendEscaped(event.name, out);
  *out += "\",\"cat\":\"";
  json::AppendEscaped(event.category, out);
  *out += "\",\"ph\":\"";
  out->push_back(event.phase);
  *out += "\",\"ts\":";
  json::AppendInt(event.start, out);
  if (event.phase == 'X') {
    *out += ",\"dur\":";
    json::AppendInt(event.duration, out);
  }
  if (event.phase == 'i') *out += ",\"s\":\"t\"";
  *out += ",\"pid\":1,\"tid\":";
  json::AppendInt(tid, out);
  *out += ",\"args\":";
  AppendArgsJson(event.args, out);
  out->push_back('}');
}

// Tracks get tids 1..T in alphabetical order. Returns the tid of every
// ring slot, looking each record's track up once, and fills *tracks in
// tid order.
std::vector<int> TrackTids(const std::vector<TraceRecord>& ring,
                           std::vector<std::string_view>* tracks) {
  std::unordered_map<std::string_view, int> tid_of;
  std::vector<const int*> slot_tid(ring.size());  // map nodes never move
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto [it, inserted] = tid_of.emplace(ring[i].track, 0);
    if (inserted) tracks->push_back(ring[i].track);
    slot_tid[i] = &it->second;
  }
  std::sort(tracks->begin(), tracks->end());
  for (std::size_t k = 0; k < tracks->size(); ++k) {
    tid_of[(*tracks)[k]] = static_cast<int>(k) + 1;
  }
  std::vector<int> tids(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) tids[i] = *slot_tid[i];
  return tids;
}

// Serialized bytes per event on the benchmark workloads' traces are
// 80-100; reserving a little more makes one allocation the common case.
constexpr std::size_t kExportBytesPerEvent = 128;

}  // namespace

void AppendArgsJson(const TraceArgs& args, std::string* out) {
  out->push_back('{');
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('"');
    json::AppendEscaped(args[i].key, out);
    *out += "\":";
    if (args[i].is_string) {
      out->push_back('"');
      json::AppendEscaped(args[i].str, out);
      out->push_back('"');
    } else {
      json::AppendNumber(args[i].num, out);
    }
  }
  out->push_back('}');
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  CKPT_CHECK_GT(capacity, 0u);
}

void Tracer::Push(TraceRecord* event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(*event));
    return;
  }
  if (dropped_ == 0) {
    // Warn exactly once per tracer; the final count is exported as the
    // tracer.dropped_events gauge. stderr keeps stdout byte-identical.
    std::fprintf(stderr,
                 "ckpt-obs: trace ring full (capacity %zu), dropping "
                 "oldest events; raise trace_capacity for complete traces\n",
                 capacity_);
  }
  // Full: overwrite the oldest slot by swapping, handing its buffers back
  // to the caller (InstantSwap callers reuse them; others discard).
  std::swap(ring_[head_], *event);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

Tracer::SpanId Tracer::BeginSpan(std::string name, std::string category,
                                 std::string track, SimTime now,
                                 TraceArgs args) {
  const SpanId id = next_span_++;
  TraceRecord event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = std::move(track);
  event.phase = 'X';
  event.start = now;
  event.seq = next_seq_++;
  event.args = std::move(args);
  open_.emplace(id, std::move(event));
  return id;
}

void Tracer::EndSpan(SpanId id, SimTime now, TraceArgs extra_args) {
  auto it = open_.find(id);
  CKPT_CHECK(it != open_.end()) << "EndSpan on unknown span " << id;
  TraceRecord event = std::move(it->second);
  open_.erase(it);
  CKPT_CHECK_GE(now, event.start);
  event.duration = now - event.start;
  for (TraceArg& arg : extra_args) event.args.push_back(std::move(arg));
  Push(&event);
}

void Tracer::Instant(std::string name, std::string category, std::string track,
                     SimTime now, TraceArgs args) {
  TraceRecord event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.track = std::move(track);
  event.phase = 'i';
  event.start = now;
  event.seq = next_seq_++;
  event.args = std::move(args);
  Push(&event);
}

void Tracer::InstantSwap(TraceRecord* record, SimTime now) {
  record->phase = 'i';
  record->start = now;
  record->duration = 0;
  record->seq = next_seq_++;
  Push(record);
}

std::vector<std::size_t> Tracer::SortedSlots() const {
  // Sort compact keys rather than the records themselves; seq is unique,
  // so the order is total.
  struct Key {
    SimTime start;
    std::int64_t seq;
    std::size_t slot;
  };
  std::vector<Key> keys(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    keys[i] = {ring_[i].start, ring_[i].seq, i};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.seq < b.seq;
  });
  std::vector<std::size_t> slots(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) slots[i] = keys[i].slot;
  return slots;
}

std::vector<TraceRecord> Tracer::SortedEvents() const {
  std::vector<TraceRecord> events;
  events.reserve(ring_.size());
  for (std::size_t slot : SortedSlots()) events.push_back(ring_[slot]);
  return events;
}

std::string Tracer::ToChromeJson() const {
  std::vector<std::string_view> tracks;
  const std::vector<int> tids = TrackTids(ring_, &tracks);
  std::string out;
  out.reserve(64 + tracks.size() * 80 + ring_.size() * kExportBytesPerEvent);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t k = 0; k < tracks.size(); ++k) {
    if (k > 0) out.push_back(',');
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json::AppendInt(static_cast<std::int64_t>(k) + 1, &out);
    out += ",\"args\":{\"name\":\"";
    json::AppendEscaped(tracks[k], &out);
    out += "\"}}";
  }
  // Every event follows at least its own track's metadata record.
  for (std::size_t slot : SortedSlots()) {
    out.push_back(',');
    AppendEvent(ring_[slot], tids[slot], &out);
  }
  out += "]}";
  return out;
}

std::string Tracer::ToJsonl() const {
  std::vector<std::string_view> tracks;
  const std::vector<int> tids = TrackTids(ring_, &tracks);
  std::string out;
  out.reserve(ring_.size() * kExportBytesPerEvent);
  for (std::size_t slot : SortedSlots()) {
    AppendEvent(ring_[slot], tids[slot], &out);
    out.push_back('\n');
  }
  return out;
}

}  // namespace ckpt
