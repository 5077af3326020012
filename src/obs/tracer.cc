#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"

namespace ckpt {

namespace {

// Leading strings of a tracer record.
enum Text : std::size_t { kName = 0, kCategory = 1, kTrack = 2 };

PackedRing::Header MakeHeader(char phase, SimTime start, std::int64_t seq,
                              std::string_view name, std::string_view category,
                              std::string_view track) {
  PackedRing::Header header;
  header.phase = phase;
  header.start = start;
  header.seq = seq;
  header.text = {static_cast<std::uint32_t>(name.size()),
                 static_cast<std::uint32_t>(category.size()),
                 static_cast<std::uint32_t>(track.size())};
  return header;
}

// Records in export order: by sim time, ties in insertion order.
std::vector<std::size_t> SortedRecords(const PackedRing& ring) {
  // Sort compact keys rather than the records themselves; seq is unique,
  // so the order is total.
  struct Key {
    SimTime start;
    std::int64_t seq;
    std::size_t index;
  };
  std::vector<Key> keys(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const PackedRing::Header& header = ring.header(i);
    keys[i] = {header.start, header.seq, i};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.seq < b.seq;
  });
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].index;
  return order;
}

// Appends record i as one JSON object with track id `tid`.
void AppendEvent(const PackedRing& ring, std::size_t i, int tid,
                 std::string* out) {
  const PackedRing::Header& header = ring.header(i);
  *out += "{\"name\":\"";
  json::AppendEscaped(ring.text(i, kName), out);
  *out += "\",\"cat\":\"";
  json::AppendEscaped(ring.text(i, kCategory), out);
  *out += "\",\"ph\":\"";
  out->push_back(header.phase);
  *out += "\",\"ts\":";
  json::AppendInt(header.start, out);
  if (header.phase == 'X') {
    *out += ",\"dur\":";
    json::AppendInt(header.duration, out);
  }
  if (header.phase == 'i') *out += ",\"s\":\"t\"";
  *out += ",\"pid\":1,\"tid\":";
  json::AppendInt(tid, out);
  *out += ",\"args\":";
  std::string_view args = ring.args(i);
  PackedRing::AppendArgsJson(&args, out);
  out->push_back('}');
}

// Tracks get tids 1..T in alphabetical order. Returns every record's tid,
// looking each record's track up once, and fills *tracks in tid order.
std::vector<int> TrackTids(const PackedRing& ring,
                           std::vector<std::string_view>* tracks) {
  std::unordered_map<std::string_view, int> tid_of;
  std::vector<const int*> record_tid(ring.size());  // map nodes never move
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const std::string_view track = ring.text(i, kTrack);
    const auto [it, inserted] = tid_of.emplace(track, 0);
    if (inserted) tracks->push_back(track);
    record_tid[i] = &it->second;
  }
  std::sort(tracks->begin(), tracks->end());
  for (std::size_t k = 0; k < tracks->size(); ++k) {
    tid_of[(*tracks)[k]] = static_cast<int>(k) + 1;
  }
  std::vector<int> tids(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) tids[i] = *record_tid[i];
  return tids;
}

// Serialized bytes per event on the benchmark workloads' traces are
// 80-100; reserving a little more makes one allocation the common case.
constexpr std::size_t kExportBytesPerEvent = 128;

}  // namespace

Tracer::Tracer(std::size_t capacity) : ring_(capacity) {}

void Tracer::Push(const PackedRing::Header& header,
                  const PackedRing::Payload& payload) {
  if (ring_.full() && ring_.dropped() == 0) {
    // Warn exactly once per tracer; the final count is exported as the
    // tracer.dropped_events gauge. stderr keeps stdout byte-identical.
    std::fprintf(stderr,
                 "ckpt-obs: trace ring full (capacity %zu), dropping "
                 "oldest events; raise trace_capacity for complete traces\n",
                 ring_.capacity());
  }
  ring_.Append(header, payload);
}

Tracer::SpanId Tracer::BeginSpan(std::string_view name,
                                 std::string_view category,
                                 std::string_view track, SimTime now,
                                 ArgSpan args) {
  const SpanId id = next_span_++;
  OpenSpan span;
  span.header = MakeHeader('X', now, next_seq_++, name, category, track);
  const std::string_view text[] = {name, category, track};
  const PackedRing::Payload payload{.text = text, .args = args};
  span.payload.resize(PackedRing::EncodedSize(payload));
  PackedRing::Encode(payload, span.payload.data());
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::EndSpan(SpanId id, SimTime now, ArgSpan extra_args) {
  auto it = open_.find(id);
  CKPT_CHECK(it != open_.end()) << "EndSpan on unknown span " << id;
  PackedRing::Header& header = it->second.header;
  CKPT_CHECK_GE(now, header.start);
  header.duration = now - header.start;
  Push(header, {.packed = it->second.payload, .args = extra_args});
  open_.erase(it);
}

void Tracer::Instant(std::string_view name, std::string_view category,
                     std::string_view track, SimTime now, ArgSpan args) {
  const std::string_view text[] = {name, category, track};
  Push(MakeHeader('i', now, next_seq_++, name, category, track),
       {.text = text, .args = args});
}

std::vector<TraceRecord> Tracer::SortedEvents() const {
  std::vector<TraceRecord> events;
  events.reserve(ring_.size());
  for (std::size_t i : SortedRecords(ring_)) {
    const PackedRing::Header& header = ring_.header(i);
    TraceRecord& event = events.emplace_back();
    event.name = ring_.text(i, kName);
    event.category = ring_.text(i, kCategory);
    event.track = ring_.text(i, kTrack);
    event.phase = header.phase;
    event.start = header.start;
    event.duration = header.duration;
    event.seq = header.seq;
    event.arg_bytes = std::make_shared<const std::string>(ring_.args(i));
    std::string_view args = *event.arg_bytes;
    event.args = PackedRing::DecodeArgs(&args);
  }
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
  for (std::size_t i : SortedRecords(ring_)) {
    out.push_back(',');
    AppendEvent(ring_, i, tids[i], &out);
  }
  out += "]}";
  return out;
}

}  // namespace ckpt
