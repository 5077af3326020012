// Differential property test of the packed Tracer/AuditLog store against a
// model: the vector-of-records rings with owning std::string fields that
// the two logs used before they shared the packed store. Seeded random
// records (escaped and non-ASCII strings, empty and long arg lists, empty
// candidate objects, spans with args at both ends) go into both past the
// ring's wrap at several capacities. Every export must match the model
// byte for byte, and every owning copy field by field, even though the
// caller's string buffers are overwritten right after each call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "obs/audit_log.h"
#include "obs/tracer.h"

namespace ckpt {
namespace {

// ---- The model -----------------------------------------------------------

struct ModelArg {
  std::string key;
  bool is_string = false;
  double num = 0;
  std::string str;
};
using ModelArgs = std::vector<ModelArg>;

ModelArgs ToModel(const TraceArgs& args) {
  ModelArgs out;
  for (const TraceArg& a : args) {
    out.push_back({std::string(a.key), a.is_string, a.num, std::string(a.str)});
  }
  return out;
}

void ModelArgsJson(const ModelArgs& args, std::string* out) {
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

// Grows to capacity, then overwrites the oldest slot (head = oldest).
template <typename Record>
struct ModelRing {
  explicit ModelRing(std::size_t capacity) : capacity(capacity) {}
  void Push(Record record) {
    if (ring.size() < capacity) {
      ring.push_back(std::move(record));
      return;
    }
    ring[head] = std::move(record);
    head = (head + 1) % ring.size();
    ++dropped;
  }
  const Record& at(std::size_t i) const {
    return ring[(head + i) % ring.size()];
  }
  std::size_t capacity;
  std::vector<Record> ring;
  std::size_t head = 0;
  std::int64_t dropped = 0;
};

struct ModelAuditRecord {
  std::string kind, track;
  SimTime t = 0;
  std::int64_t seq = 0;
  ModelArgs args;
  std::vector<ModelArgs> candidates;
};

std::string ModelAuditJsonl(const ModelRing<ModelAuditRecord>& log) {
  std::string out;
  for (std::size_t i = 0; i < log.ring.size(); ++i) {
    const ModelAuditRecord& rec = log.at(i);
    out += "{\"seq\":";
    json::AppendInt(rec.seq, &out);
    out += ",\"t\":";
    json::AppendInt(rec.t, &out);
    out += ",\"kind\":\"";
    json::AppendEscaped(rec.kind, &out);
    out += "\",\"track\":\"";
    json::AppendEscaped(rec.track, &out);
    out += "\",\"args\":";
    ModelArgsJson(rec.args, &out);
    if (!rec.candidates.empty()) {
      out += ",\"candidates\":[";
      for (std::size_t c = 0; c < rec.candidates.size(); ++c) {
        if (c > 0) out.push_back(',');
        ModelArgsJson(rec.candidates[c], &out);
      }
      out.push_back(']');
    }
    out += "}\n";
  }
  return out;
}

struct ModelTraceRecord {
  std::string name, category, track;
  char phase = 'X';
  SimTime start = 0;
  SimDuration duration = 0;
  std::int64_t seq = 0;
  ModelArgs args;
};

std::vector<ModelTraceRecord> ModelSorted(
    const ModelRing<ModelTraceRecord>& ring) {
  std::vector<ModelTraceRecord> events = ring.ring;
  std::sort(events.begin(), events.end(),
            [](const ModelTraceRecord& a, const ModelTraceRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.seq < b.seq;
            });
  return events;
}

void ModelEventJson(const ModelTraceRecord& e, int tid, std::string* out) {
  *out += "{\"name\":\"";
  json::AppendEscaped(e.name, out);
  *out += "\",\"cat\":\"";
  json::AppendEscaped(e.category, out);
  *out += "\",\"ph\":\"";
  out->push_back(e.phase);
  *out += "\",\"ts\":";
  json::AppendInt(e.start, out);
  if (e.phase == 'X') {
    *out += ",\"dur\":";
    json::AppendInt(e.duration, out);
  }
  if (e.phase == 'i') *out += ",\"s\":\"t\"";
  *out += ",\"pid\":1,\"tid\":";
  json::AppendInt(tid, out);
  *out += ",\"args\":";
  ModelArgsJson(e.args, out);
  out->push_back('}');
}

// Tracks numbered 1..T alphabetically.
std::map<std::string, int> ModelTids(const ModelRing<ModelTraceRecord>& r) {
  std::map<std::string, int> tids;
  for (const ModelTraceRecord& e : r.ring) tids[e.track] = 0;
  int next = 1;
  for (auto& [track, tid] : tids) tid = next++;
  return tids;
}

std::string ModelChromeJson(const ModelRing<ModelTraceRecord>& ring) {
  const std::map<std::string, int> tids = ModelTids(ring);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, tid] : tids) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json::AppendInt(tid, &out);
    out += ",\"args\":{\"name\":\"";
    json::AppendEscaped(track, &out);
    out += "\"}}";
  }
  for (const ModelTraceRecord& e : ModelSorted(ring)) {
    out.push_back(',');
    ModelEventJson(e, tids.at(e.track), &out);
  }
  return out + "]}";
}

// ---- Random inputs -------------------------------------------------------

constexpr TraceKey kKeys[] = {"task",       "unsaved_progress_s", "action",
                              "",           "q\"uote",            "back\\slash",
                              "ctl\n\x01",  "d\xc3\xa9j\xc3\xa0", "reason"};

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return static_cast<int>(rng_.UniformInt(lo, hi));
  }

  // Bytes that need every kind of escaping, plus multi-byte UTF-8.
  std::string Text(int max_len) {
    static const char* const kPieces[] = {
        "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\r", "\x01", "\x1f",
        "\x7f", "/", "\xc3\xa9", "\xe6\x97\xa5", "\xf0\x9f\x98\x80", "node/"};
    std::string s;
    const int n = Int(0, max_len);
    for (int i = 0; i < n; ++i) s += kPieces[Int(0, 16)];
    return s;
  }

  double Number() {
    switch (Int(0, 7)) {
      case 0: return static_cast<double>(Int(-1000, 100000));
      case 1: return rng_.Uniform(-1e6, 1e6);
      case 2: return 1.0 / Int(1, 9);
      case 3: return 1e15 + Int(0, 9);
      case 4: return 1e-7 * Int(1, 9);
      case 5: return -0.0;
      case 6: return std::numeric_limits<double>::infinity();
      default: return std::nan("");
    }
  }

  // Args whose string values view `backing`, which the caller overwrites
  // once the log has the record.
  TraceArgs Args(int max_args, std::deque<std::string>* backing) {
    TraceArgs args;
    const int n = Int(0, max_args);
    for (int i = 0; i < n; ++i) {
      const TraceKey key = kKeys[Int(0, std::size(kKeys) - 1)];
      if (Int(0, 2) == 0) {
        backing->push_back(Text(Int(0, 3) == 0 ? 300 : 12));
        args.push_back(TraceArg::Str(key, backing->back()));
      } else {
        args.push_back(TraceArg::Num(key, Number()));
      }
    }
    return args;
  }

  SimTime Time() { return Int(0, 5000); }

 private:
  Rng rng_;
};

void Scribble(std::deque<std::string>* backing) {
  for (std::string& s : *backing) std::fill(s.begin(), s.end(), '#');
  backing->clear();
}

// ---- Comparisons ---------------------------------------------------------

void ExpectArgsEqual(const TraceArgs& got, const ModelArgs& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].is_string, want[i].is_string) << i;
    EXPECT_EQ(got[i].str, want[i].str) << i;
    if (!want[i].is_string) {
      // Bit patterns, so nan and -0 compare as stored.
      EXPECT_EQ(std::signbit(got[i].num), std::signbit(want[i].num)) << i;
      EXPECT_TRUE(got[i].num == want[i].num ||
                  (std::isnan(got[i].num) && std::isnan(want[i].num)))
          << i << ": " << got[i].num << " vs " << want[i].num;
    }
  }
}

void ExpectAuditEqual(const AuditLog& log,
                      const ModelRing<ModelAuditRecord>& model) {
  ASSERT_EQ(log.size(), model.ring.size());
  EXPECT_EQ(log.dropped(), model.dropped);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const AuditRecord rec = log.record(i);
    const ModelAuditRecord& want = model.at(i);
    EXPECT_EQ(rec.kind, want.kind);
    EXPECT_EQ(rec.track, want.track);
    EXPECT_EQ(rec.t, want.t);
    EXPECT_EQ(rec.seq, want.seq);
    ExpectArgsEqual(rec.args, want.args);
    ASSERT_EQ(rec.candidates.size(), want.candidates.size());
    for (std::size_t c = 0; c < rec.candidates.size(); ++c) {
      ExpectArgsEqual(rec.candidates[c], want.candidates[c]);
    }
  }
  EXPECT_EQ(log.ToJsonl(), ModelAuditJsonl(model));
}

void ExpectTraceEqual(const Tracer& tracer,
                      const ModelRing<ModelTraceRecord>& model) {
  ASSERT_EQ(tracer.size(), model.ring.size());
  EXPECT_EQ(tracer.dropped(), model.dropped);
  const std::vector<TraceRecord> got = tracer.SortedEvents();
  const std::vector<ModelTraceRecord> want = ModelSorted(model);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].category, want[i].category);
    EXPECT_EQ(got[i].track, want[i].track);
    EXPECT_EQ(got[i].phase, want[i].phase);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].duration, want[i].duration);
    EXPECT_EQ(got[i].seq, want[i].seq);
    ExpectArgsEqual(got[i].args, want[i].args);
  }
  EXPECT_EQ(tracer.ToChromeJson(), ModelChromeJson(model));
}

class PackedRingVsModel : public testing::TestWithParam<std::size_t> {};

TEST_P(PackedRingVsModel, AuditLogMatchesModel) {
  const std::size_t capacity = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Gen gen(seed * 7919 + capacity);
    AuditLog log(capacity);
    ModelRing<ModelAuditRecord> model(capacity);
    std::deque<std::string> backing;
    const int records = static_cast<int>(capacity) * 3 + 20;
    for (int r = 0; r < records; ++r) {
      std::string kind = gen.Text(10);
      std::string track = gen.Text(10);
      const SimTime t = gen.Time();
      const TraceArgs args = gen.Args(50, &backing);
      std::vector<TraceArgs> candidates(
          static_cast<std::size_t>(gen.Int(0, 3) == 0 ? 0 : gen.Int(0, 45)));
      for (TraceArgs& cand : candidates) cand = gen.Args(12, &backing);

      ModelAuditRecord want{kind, track, t, r, ToModel(args), {}};
      for (const TraceArgs& cand : candidates) {
        want.candidates.push_back(ToModel(cand));
      }
      model.Push(std::move(want));
      if (gen.Int(0, 1) == 0) {
        AuditRecord rec;
        rec.kind = kind;
        rec.track = track;
        rec.t = t;
        rec.args = args;
        rec.candidates = candidates;
        log.Append(rec);
      } else {
        log.Event(kind, track, t, args, candidates);
      }
      Scribble(&backing);
      std::fill(kind.begin(), kind.end(), '#');
      std::fill(track.begin(), track.end(), '#');
      if (r % 11 == 0 || r == records - 1) {
        ASSERT_NO_FATAL_FAILURE(ExpectAuditEqual(log, model));
      }
    }
    EXPECT_EQ(log.total_appended(), records);
  }
}

TEST_P(PackedRingVsModel, TracerMatchesModel) {
  const std::size_t capacity = GetParam();
  testing::internal::CaptureStderr();  // the one-time ring-full warning
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Gen gen(seed * 104729 + capacity);
    Tracer tracer(capacity);
    ModelRing<ModelTraceRecord> model(capacity);
    std::unordered_map<Tracer::SpanId, ModelTraceRecord> open;
    std::vector<Tracer::SpanId> open_ids;
    std::deque<std::string> backing;
    std::int64_t seq = 0;
    const int events = static_cast<int>(capacity) * 3 + 20;
    for (int e = 0; e < events; ++e) {
      std::string name = gen.Text(8);
      std::string category = gen.Text(4);
      std::string track = gen.Text(6);
      const SimTime now = gen.Time();
      const TraceArgs args = gen.Args(50, &backing);
      const int op = gen.Int(0, 2);
      if (op == 0) {
        tracer.Instant(name, category, track, now, args);
        model.Push({name, category, track, 'i', now, 0, seq++, ToModel(args)});
      } else if (op == 1 || open_ids.empty()) {
        open_ids.push_back(tracer.BeginSpan(name, category, track, now, args));
        open[open_ids.back()] = {name,   category, track,        'X',
                                 now,    0,        seq++,        ToModel(args)};
      } else {
        const std::size_t k =
            static_cast<std::size_t>(gen.Int(0, open_ids.size() - 1));
        const Tracer::SpanId id = open_ids[k];
        open_ids.erase(open_ids.begin() + static_cast<std::ptrdiff_t>(k));
        ModelTraceRecord want = std::move(open.at(id));
        open.erase(id);
        const SimTime end = want.start + gen.Int(0, 500);
        tracer.EndSpan(id, end, args);
        want.duration = end - want.start;
        for (ModelArg& arg : ToModel(args)) want.args.push_back(arg);
        model.Push(std::move(want));
      }
      Scribble(&backing);
      std::fill(name.begin(), name.end(), '#');
      std::fill(track.begin(), track.end(), '#');
      EXPECT_EQ(tracer.open_spans(), open.size());
      if (e % 11 == 0 || e == events - 1) {
        ASSERT_NO_FATAL_FAILURE(ExpectTraceEqual(tracer, model));
      }
    }
  }
  testing::internal::GetCapturedStderr();
}

INSTANTIATE_TEST_SUITE_P(Capacities, PackedRingVsModel,
                         testing::Values(1, 2, 3, 7, 64));

// Values of 100-300 kB fill a payload block within a few records, and one
// of 1.2 MB needs a block of its own, so appending past the wrap releases
// whole blocks and reuses them for payloads of other sizes.
TEST(PackedRing, ReusesPayloadBlocksAcrossWraps) {
  auto value_of = [](std::int64_t seq) {
    const std::size_t size = seq % 7 == 6 ? 1'200'000 : 100'000 + 50'000 * (seq % 5);
    return std::string(size, static_cast<char>('a' + seq % 26));
  };
  AuditLog log(/*capacity=*/2);
  std::string value;
  for (int i = 0; i < 40; ++i) {
    value = value_of(i);
    log.Event("kind", "track", i, {TraceArg::Str("v", value)});
    value.assign(value.size(), '#');
    for (std::size_t j = 0; j < log.size(); ++j) {
      const AuditRecord rec = log.record(j);
      ASSERT_EQ(rec.args.size(), 1u);
      ASSERT_EQ(rec.args[0].str, value_of(rec.seq)) << "seq " << rec.seq;
    }
  }
}

}  // namespace
}  // namespace ckpt
