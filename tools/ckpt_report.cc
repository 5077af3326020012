// ckpt-report — offline analyzer for the observability artifacts the
// benches and CLIs export under CKPT_OBS=1.
//
// Run mode renders a human-readable report from any mix of artifacts:
//
//   $ ckpt-report bench_fig3_trace_sim.metrics.json
//       bench_fig3_trace_sim.Kill.audit.jsonl
//
// sections: waste attribution per cause (with the goodput-gap
// reconciliation check), top per-job / per-node contributors, the
// tool's own self-profile timers, every histogram's p50/p95/p99, audit
// record counts per kind, and trace event counts.
//
// Diff mode compares two runs A vs B (kill vs adaptive, before vs
// after) on waste attribution and headline scheduler gauges:
//
//   $ ckpt-report --diff ckpt_sim.kill.metrics.json
//       ckpt_sim.adaptive.metrics.json
//
// A *.metrics.json file may hold one run ({"metrics":[...]}) or a
// combined sweep ({"runs":[{"name","metrics"}...]}); --run=NAME picks a
// run out of a combined file (repeatable: first use applies to A,
// second to B).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "metrics/report.h"

using namespace ckpt;

namespace {

struct SeriesData {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0;  // counter/gauge
  double count = 0, mean = 0, p50 = 0, p95 = 0, p99 = 0;  // histogram
};

struct RunData {
  std::string name;
  std::vector<SeriesData> series;

  const SeriesData* Find(const std::string& name) const {
    for (const SeriesData& s : series) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
  double ValueOr(const std::string& name, double fallback) const {
    const SeriesData* s = Find(name);
    return s != nullptr ? s->value : fallback;
  }
};

std::string Label(const SeriesData& s, const std::string& key) {
  for (const auto& [k, v] : s.labels) {
    if (k == key) return v;
  }
  return "";
}

std::string LabelSuffix(const SeriesData& s) {
  if (s.labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < s.labels.size(); ++i) {
    if (i > 0) out += ",";
    out += s.labels[i].first + "=" + s.labels[i].second;
  }
  return out + "}";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Reads a whole file into *out with one allocation sized up front.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  return static_cast<bool>(
      in.read(out->data(), static_cast<std::streamsize>(out->size())));
}

// Calls on_line(line, lineno) for every non-empty line of text; stops at
// the first false.
template <typename F>
bool ForEachLine(std::string_view text, F&& on_line) {
  std::int64_t lineno = 0;
  while (!text.empty()) {
    const size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    ++lineno;
    if (!line.empty() && !on_line(line, lineno)) return false;
  }
  return true;
}

// Streams one JSON object through reader, handing each member to
// on_member(key); the object must fill the whole text. On failure *error
// says why ("offset N: reason", or "not a JSON object" for valid JSON of
// another type).
template <typename F>
bool VisitDocument(std::string_view text, F&& on_member, std::string* error) {
  json::Reader reader(text);
  if (reader.Peek() == json::Value::Type::kObject) {
    auto member = [&](std::string_view key) { on_member(reader, key); };
    if (reader.VisitObject(member) && reader.Finish()) return true;
  } else if (reader.Skip() && reader.Finish()) {
    *error = "not a JSON object";
    return false;
  }
  *error = reader.error();
  return false;
}

// Reads a string member with json::Value::StringOr's fallback into *out.
void CopyStringOr(json::Reader& reader, std::string_view fallback,
                  std::string* out) {
  std::string_view value;
  if (reader.ReadStringOr(fallback, &value)) out->assign(value);
}

// Counts key in a tally map without allocating when the key is known.
void Tally(std::map<std::string, std::int64_t, std::less<>>* counts,
           std::string_view key) {
  auto it = counts->find(key);
  if (it == counts->end()) it = counts->emplace(std::string(key), 0).first;
  ++it->second;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// One {"name","labels",...} entry from the registry's metrics array.
SeriesData ParseSeries(const json::Value& entry) {
  SeriesData s;
  s.name = entry.StringOr("name", "");
  s.type = entry.StringOr("type", "");
  if (const json::Value* labels = entry.Find("labels");
      labels != nullptr && labels->is_object()) {
    for (const auto& [key, value] : labels->members()) {
      s.labels.emplace_back(
          key, value->is_string() ? value->as_string() : std::string());
    }
  }
  s.value = entry.NumberOr("value", 0);
  s.count = entry.NumberOr("count", 0);
  s.mean = entry.NumberOr("mean", 0);
  s.p50 = entry.NumberOr("p50", 0);
  s.p95 = entry.NumberOr("p95", 0);
  s.p99 = entry.NumberOr("p99", 0);
  return s;
}

RunData ParseRun(const std::string& name, const json::Value& metrics_doc) {
  RunData run;
  run.name = name;
  if (const json::Value* metrics = metrics_doc.Find("metrics");
      metrics != nullptr && metrics->is_array()) {
    for (const json::ValuePtr& entry : metrics->items()) {
      if (entry->is_object()) run.series.push_back(ParseSeries(*entry));
    }
  }
  return run;
}

// Parse a metrics file into its runs: a single-run registry snapshot
// becomes one run named after the file; a combined sweep file yields one
// run per entry.
bool ParseMetricsFile(const std::string& path, std::vector<RunData>* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "ckpt-report: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  json::ValuePtr doc = json::Parse(text, &error);
  if (doc == nullptr || !doc->is_object()) {
    std::fprintf(stderr, "ckpt-report: %s: %s\n", path.c_str(),
                 error.empty() ? "not a JSON object" : error.c_str());
    return false;
  }
  if (const json::Value* runs = doc->Find("runs");
      runs != nullptr && runs->is_array()) {
    for (const json::ValuePtr& entry : runs->items()) {
      if (!entry->is_object()) continue;
      const json::Value* metrics = entry->Find("metrics");
      if (metrics == nullptr || !metrics->is_object()) continue;
      out->push_back(ParseRun(entry->StringOr("name", "?"), *metrics));
    }
    return true;
  }
  out->push_back(ParseRun(BaseName(path), *doc));
  return true;
}

struct AuditSummary {
  std::string path;
  std::int64_t records = 0;
  std::int64_t candidates = 0;
  std::map<std::string, std::int64_t, std::less<>> by_kind;
  double first_t = 0, last_t = 0;
};

// Streams the audit JSONL: each line is tallied as it is read, and only
// t, kind and the candidates count are kept.
bool ParseAuditFile(const std::string& path, AuditSummary* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "ckpt-report: cannot read %s\n", path.c_str());
    return false;
  }
  out->path = path;
  std::string kind;
  return ForEachLine(text, [&](std::string_view line, std::int64_t lineno) {
    double t = 0;
    std::int64_t candidates = 0;
    kind.assign("?");
    std::string error;
    const bool ok = VisitDocument(
        line,
        [&](json::Reader& reader, std::string_view key) {
          if (key == "t") {
            reader.ReadNumberOr(0, &t);
          } else if (key == "kind") {
            CopyStringOr(reader, "?", &kind);
          } else if (key == "candidates") {
            candidates = 0;
            if (reader.Peek() == json::Value::Type::kArray) {
              reader.VisitArray([&] {
                ++candidates;
                reader.Skip();
              });
            } else {
              reader.Skip();
            }
          } else {
            reader.Skip();
          }
        },
        &error);
    if (!ok) {
      std::fprintf(stderr, "ckpt-report: %s:%lld: bad record: %s\n",
                   path.c_str(), static_cast<long long>(lineno),
                   error.c_str());
      return false;
    }
    if (out->records == 0) out->first_t = t;
    out->last_t = t;
    ++out->records;
    out->candidates += candidates;
    Tally(&out->by_kind, kind);
    return true;
  });
}

struct TraceSummary {
  std::string path;
  std::int64_t events = 0;
  std::map<std::string, std::int64_t, std::less<>> by_category;
};

// Accepts both the Chrome format ({"traceEvents":[...]}) and the JSONL
// stream (one event object per line). Either way events are tallied as
// they stream past; only ph and cat are read.
bool ParseTraceFile(const std::string& path, TraceSummary* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "ckpt-report: cannot read %s\n", path.c_str());
    return false;
  }
  out->path = path;
  std::string phase, category;
  auto event_member = [&](json::Reader& reader, std::string_view key) {
    if (key == "ph") {
      CopyStringOr(reader, "", &phase);
    } else if (key == "cat") {
      CopyStringOr(reader, "?", &category);
    } else {
      reader.Skip();
    }
  };
  auto start_event = [&] {
    phase.clear();
    category.assign("?");
  };
  auto tally = [&] {
    // Skip thread-name metadata events; count real phases only.
    if (phase == "M") return;
    ++out->events;
    Tally(&out->by_category, category);
  };
  std::string error;
  if (EndsWith(path, ".jsonl")) {
    return ForEachLine(text, [&](std::string_view line, std::int64_t lineno) {
      start_event();
      if (!VisitDocument(line, event_member, &error)) {
        std::fprintf(stderr, "ckpt-report: %s:%lld: bad event: %s\n",
                     path.c_str(), static_cast<long long>(lineno),
                     error.c_str());
        return false;
      }
      tally();
      return true;
    });
  }
  const bool ok = VisitDocument(
      text,
      [&](json::Reader& reader, std::string_view key) {
        if (key != "traceEvents") {
          reader.Skip();
          return;
        }
        // A repeated traceEvents key replaces the earlier array.
        out->events = 0;
        out->by_category.clear();
        if (reader.Peek() != json::Value::Type::kArray) {
          reader.Skip();
          return;
        }
        reader.VisitArray([&] {
          if (reader.Peek() != json::Value::Type::kObject) {
            reader.Skip();
            return;
          }
          start_event();
          if (reader.VisitObject([&](std::string_view key) {
                event_member(reader, key);
              })) {
            tally();
          }
        });
      },
      &error);
  if (!ok) {
    std::fprintf(stderr, "ckpt-report: %s: %s\n", path.c_str(),
                 error.c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Run-report sections.

void PrintWasteSection(const RunData& run) {
  // cause -> (core_hours, io_seconds); document order groups the two units.
  std::vector<std::vector<std::string>> rows{
      {"cause", "core-hours", "io-seconds"}};
  std::map<std::string, std::pair<double, double>> by_cause;
  for (const SeriesData& s : run.series) {
    if (s.name == "waste.core_hours") {
      by_cause[Label(s, "cause")].first += s.value;
    } else if (s.name == "waste.io_seconds") {
      by_cause[Label(s, "cause")].second += s.value;
    }
  }
  double total_core_hours = 0;
  for (const auto& [cause, amounts] : by_cause) {
    total_core_hours += amounts.first;
    rows.push_back({cause, Fmt(amounts.first, 2), Fmt(amounts.second, 2)});
  }
  if (by_cause.empty()) {
    std::printf("  (no waste recorded)\n");
    return;
  }
  std::fputs(RenderTable(rows).c_str(), stdout);

  // The four CPU-denominated causes are charged at exactly the sites that
  // feed wasted_core_hours, so attributed == goodput gap up to fp noise.
  const SeriesData* reconcilable = run.Find("waste.reconcilable_core_hours");
  const SeriesData* wasted = run.Find("sched.wasted_core_hours");
  if (reconcilable != nullptr && wasted != nullptr) {
    const double attributed = reconcilable->value;
    const double gap = wasted->value;
    const double rel =
        gap != 0 ? std::fabs(attributed - gap) / std::fabs(gap) : 0.0;
    std::printf(
        "  reconciliation: attributed %.2f vs goodput gap %.2f core-hours "
        "(%.3f%% apart)%s\n",
        attributed, gap, 100.0 * rel, rel <= 0.01 ? "" : "  ** MISMATCH **");
  }
  if (total_core_hours > 0) {
    std::printf("  total attributed: %.2f core-hours\n", total_core_hours);
  }
}

void PrintTopContributors(const RunData& run, const std::string& series_name,
                          const std::string& dim, int top_n) {
  std::map<std::string, double> totals;
  for (const SeriesData& s : run.series) {
    if (s.name != series_name) continue;
    totals[Label(s, dim)] += s.value;
  }
  if (totals.empty()) return;
  std::vector<std::pair<std::string, double>> sorted(totals.begin(),
                                                     totals.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (static_cast<int>(sorted.size()) > top_n) sorted.resize(top_n);
  std::vector<std::vector<std::string>> rows{{dim, "core-hours"}};
  for (const auto& [label, value] : sorted) {
    rows.push_back({label, Fmt(value, 2)});
  }
  std::printf("  top %zu of %zu %ss:\n", sorted.size(), totals.size(),
              dim.c_str());
  std::fputs(RenderTable(rows).c_str(), stdout);
}

// Per-service tail latency and SLO accounting, built from the
// service.* gauges the scheduler exports when a service fleet ran.
struct ServiceRow {
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, peak_p99_ms = 0;
  double viol_s = 0, preempt_s = 0, organic_s = 0;
  double ticks = 0, violated_ticks = 0, cold_starts = 0;
};

std::map<std::string, ServiceRow> CollectServices(const RunData& run) {
  std::map<std::string, ServiceRow> services;
  for (const SeriesData& s : run.series) {
    if (s.name.rfind("service.", 0) != 0) continue;
    ServiceRow& row = services[Label(s, "service")];
    if (s.name == "service.p50_ms") {
      row.p50_ms = s.value;
    } else if (s.name == "service.p95_ms") {
      row.p95_ms = s.value;
    } else if (s.name == "service.p99_ms_mean") {
      row.p99_ms = s.value;
    } else if (s.name == "service.peak_p99_ms") {
      row.peak_p99_ms = s.value;
    } else if (s.name == "service.slo_violation_seconds") {
      const std::string cause = Label(s, "cause");
      if (cause == "total") {
        row.viol_s = s.value;
      } else if (cause == "preempt") {
        row.preempt_s = s.value;
      } else if (cause == "organic") {
        row.organic_s = s.value;
      }
    } else if (s.name == "service.ticks") {
      row.ticks = s.value;
    } else if (s.name == "service.violated_ticks") {
      row.violated_ticks = s.value;
    } else if (s.name == "service.cold_starts") {
      row.cold_starts = s.value;
    }
  }
  return services;
}

void PrintServicesSection(const RunData& run) {
  const std::map<std::string, ServiceRow> services = CollectServices(run);
  if (services.empty()) return;
  std::printf("\n-- services --\n");
  std::vector<std::vector<std::string>> rows{
      {"service", "p50 [ms]", "p95 [ms]", "p99 [ms]", "peak p99", "viol [s]",
       "preempt [s]", "organic [s]", "ticks", "violated", "cold"}};
  double viol = 0, preempt = 0, organic = 0;
  for (const auto& [name, row] : services) {
    viol += row.viol_s;
    preempt += row.preempt_s;
    organic += row.organic_s;
    rows.push_back({name, Fmt(row.p50_ms, 1), Fmt(row.p95_ms, 1),
                    Fmt(row.p99_ms, 1), Fmt(row.peak_p99_ms, 1),
                    Fmt(row.viol_s, 1), Fmt(row.preempt_s, 1),
                    Fmt(row.organic_s, 1), Fmt(row.ticks, 0),
                    Fmt(row.violated_ticks, 0), Fmt(row.cold_starts, 0)});
  }
  std::fputs(RenderTable(rows).c_str(), stdout);
  std::printf(
      "  fleet SLO violation: %.1f s (%.1f preempt-caused, %.1f organic)\n",
      viol, preempt, organic);
}

void PrintSelfProfile(const RunData& run) {
  std::vector<std::vector<std::string>> rows{
      {"section", "wall-seconds", "calls"}};
  std::map<std::string, std::pair<double, double>> sections;
  for (const SeriesData& s : run.series) {
    if (s.name == "self.wall_seconds") {
      sections[Label(s, "section")].first = s.value;
    } else if (s.name == "self.calls") {
      sections[Label(s, "section")].second = s.value;
    }
  }
  if (sections.empty()) return;
  for (const auto& [section, data] : sections) {
    rows.push_back({section, Fmt(data.first, 3), Fmt(data.second, 0)});
  }
  std::printf("\n-- self-profile (tool wall clock, not sim time) --\n");
  std::fputs(RenderTable(rows).c_str(), stdout);
}

void PrintHistograms(const RunData& run) {
  std::vector<std::vector<std::string>> rows{
      {"histogram", "count", "mean", "p50", "p95", "p99"}};
  for (const SeriesData& s : run.series) {
    if (s.type != "histogram" || s.count <= 0) continue;
    rows.push_back({s.name + LabelSuffix(s), Fmt(s.count, 0), Fmt(s.mean, 3),
                    Fmt(s.p50, 3), Fmt(s.p95, 3), Fmt(s.p99, 3)});
  }
  if (rows.size() == 1) return;
  std::printf("\n-- histograms --\n");
  std::fputs(RenderTable(rows).c_str(), stdout);
}

void PrintRunReport(const RunData& run) {
  std::printf("\n=== run: %s ===\n", run.name.c_str());
  const SeriesData* busy = run.Find("sched.busy_core_hours");
  if (busy != nullptr) {
    std::printf(
        "  busy %.2f / wasted %.2f / goodput %.2f core-hours; "
        "decisions %.0f; events %.0f\n",
        busy->value, run.ValueOr("sched.wasted_core_hours", 0),
        run.ValueOr("sched.goodput_core_hours", 0),
        run.ValueOr("sched.decisions", 0),
        run.ValueOr("sim.events_processed", 0));
  }
  const double trace_dropped = run.ValueOr("tracer.dropped_events", 0);
  const double audit_dropped = run.ValueOr("audit.dropped_records", 0);
  if (trace_dropped > 0 || audit_dropped > 0) {
    std::printf("  ring drops: trace %.0f, audit %.0f (streams truncated)\n",
                trace_dropped, audit_dropped);
  }
  std::printf("\n-- waste attribution --\n");
  PrintWasteSection(run);
  PrintTopContributors(run, "waste.by_job.core_hours", "job", 5);
  PrintTopContributors(run, "waste.by_node.core_hours", "node", 5);
  PrintServicesSection(run);
  PrintSelfProfile(run);
  PrintHistograms(run);
}

void PrintAuditSummary(const AuditSummary& audit) {
  std::printf("\n=== audit: %s ===\n", audit.path.c_str());
  std::printf("  %lld records (%lld candidate rows), t=[%.0f, %.0f]\n",
              static_cast<long long>(audit.records),
              static_cast<long long>(audit.candidates), audit.first_t,
              audit.last_t);
  if (audit.by_kind.empty()) return;
  std::vector<std::vector<std::string>> rows{{"kind", "records"}};
  for (const auto& [kind, count] : audit.by_kind) {
    rows.push_back({kind, std::to_string(count)});
  }
  std::fputs(RenderTable(rows).c_str(), stdout);
}

void PrintTraceSummary(const TraceSummary& trace) {
  std::printf("\n=== trace: %s ===\n", trace.path.c_str());
  std::printf("  %lld events\n", static_cast<long long>(trace.events));
  if (trace.by_category.empty()) return;
  std::vector<std::vector<std::string>> rows{{"category", "events"}};
  for (const auto& [category, count] : trace.by_category) {
    rows.push_back({category, std::to_string(count)});
  }
  std::fputs(RenderTable(rows).c_str(), stdout);
}

// ---------------------------------------------------------------------------
// Diff mode.

std::string FmtDelta(double a, double b) {
  const double delta = b - a;
  if (a == 0) return delta == 0 ? "0" : "new";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * delta / std::fabs(a));
  return buf;
}

int RunDiff(const RunData& a, const RunData& b) {
  std::printf("=== diff: %s -> %s ===\n", a.name.c_str(), b.name.c_str());

  std::printf("\n-- waste attribution (core-hours) --\n");
  std::map<std::string, std::pair<double, double>> causes;
  for (const SeriesData& s : a.series) {
    if (s.name == "waste.core_hours") causes[Label(s, "cause")].first += s.value;
  }
  for (const SeriesData& s : b.series) {
    if (s.name == "waste.core_hours") causes[Label(s, "cause")].second += s.value;
  }
  std::vector<std::vector<std::string>> rows{
      {"cause", a.name, b.name, "delta", "delta%"}};
  for (const auto& [cause, amounts] : causes) {
    rows.push_back({cause, Fmt(amounts.first, 2), Fmt(amounts.second, 2),
                    Fmt(amounts.second - amounts.first, 2),
                    FmtDelta(amounts.first, amounts.second)});
  }
  if (causes.empty()) {
    std::printf("  (neither run recorded waste)\n");
  } else {
    std::fputs(RenderTable(rows).c_str(), stdout);
  }

  const std::map<std::string, ServiceRow> services_a = CollectServices(a);
  const std::map<std::string, ServiceRow> services_b = CollectServices(b);
  if (!services_a.empty() || !services_b.empty()) {
    std::printf("\n-- services (SLO violation seconds, mean p99 ms) --\n");
    std::map<std::string, std::pair<ServiceRow, ServiceRow>> merged;
    for (const auto& [name, row] : services_a) merged[name].first = row;
    for (const auto& [name, row] : services_b) merged[name].second = row;
    std::vector<std::vector<std::string>> service_rows{
        {"service", "viol " + a.name, "viol " + b.name, "delta%",
         "preempt " + a.name, "preempt " + b.name, "p99 " + a.name,
         "p99 " + b.name}};
    for (const auto& [name, sides] : merged) {
      service_rows.push_back(
          {name, Fmt(sides.first.viol_s, 1), Fmt(sides.second.viol_s, 1),
           FmtDelta(sides.first.viol_s, sides.second.viol_s),
           Fmt(sides.first.preempt_s, 1), Fmt(sides.second.preempt_s, 1),
           Fmt(sides.first.p99_ms, 1), Fmt(sides.second.p99_ms, 1)});
    }
    std::fputs(RenderTable(service_rows).c_str(), stdout);
  }

  std::printf("\n-- headline gauges --\n");
  const char* gauges[] = {"sched.busy_core_hours", "sched.wasted_core_hours",
                          "sched.goodput_core_hours",
                          "sched.lost_work_core_hours",
                          "sched.overhead_core_hours", "sched.decisions",
                          "sim.events_processed"};
  std::vector<std::vector<std::string>> gauge_rows{
      {"gauge", a.name, b.name, "delta%"}};
  for (const char* name : gauges) {
    const SeriesData* sa = a.Find(name);
    const SeriesData* sb = b.Find(name);
    if (sa == nullptr && sb == nullptr) continue;
    const double va = sa != nullptr ? sa->value : 0;
    const double vb = sb != nullptr ? sb->value : 0;
    gauge_rows.push_back({name, Fmt(va, 2), Fmt(vb, 2), FmtDelta(va, vb)});
  }
  std::fputs(RenderTable(gauge_rows).c_str(), stdout);
  return causes.empty() ? 1 : 0;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--run=NAME]... <artifact>...\n"
      "       %s --diff [--run=NAME]... A.metrics.json B.metrics.json\n"
      "  artifacts by suffix: *.metrics.json (registry snapshot or combined\n"
      "  {\"runs\":[...]} sweep), *.audit.jsonl (decision audit stream),\n"
      "  *.trace.json / *.trace.jsonl (event traces)\n"
      "  --run=NAME  pick one run out of a combined metrics file\n"
      "              (repeatable: first applies to A, second to B in --diff)\n",
      argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  std::vector<std::string> run_filters;
  std::vector<std::string> metrics_files, audit_files, trace_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg.rfind("--run=", 0) == 0) {
      run_filters.push_back(arg.substr(6));
    } else if (arg == "--help") {
      Usage(argv[0]);
      return 2;
    } else if (EndsWith(arg, ".audit.jsonl")) {
      audit_files.push_back(arg);
    } else if (EndsWith(arg, ".trace.json") || EndsWith(arg, ".trace.jsonl")) {
      trace_files.push_back(arg);
    } else if (EndsWith(arg, ".json")) {
      metrics_files.push_back(arg);
    } else {
      std::fprintf(stderr, "ckpt-report: unrecognized artifact %s\n",
                   arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (diff) {
    if (metrics_files.size() != 2) {
      std::fprintf(stderr,
                   "ckpt-report: --diff needs exactly two metrics files\n");
      Usage(argv[0]);
      return 2;
    }
    RunData sides[2];
    for (int side = 0; side < 2; ++side) {
      std::vector<RunData> runs;
      if (!ParseMetricsFile(metrics_files[static_cast<size_t>(side)], &runs)) {
        return 1;
      }
      const std::string filter =
          static_cast<size_t>(side) < run_filters.size()
              ? run_filters[static_cast<size_t>(side)]
              : "";
      if (!filter.empty()) {
        bool found = false;
        for (RunData& run : runs) {
          if (run.name == filter) {
            sides[side] = std::move(run);
            found = true;
            break;
          }
        }
        if (!found) {
          std::fprintf(stderr, "ckpt-report: no run named %s in %s\n",
                       filter.c_str(),
                       metrics_files[static_cast<size_t>(side)].c_str());
          return 1;
        }
      } else if (!runs.empty()) {
        sides[side] = std::move(runs.front());
      } else {
        std::fprintf(stderr, "ckpt-report: no runs in %s\n",
                     metrics_files[static_cast<size_t>(side)].c_str());
        return 1;
      }
    }
    return RunDiff(sides[0], sides[1]);
  }

  if (metrics_files.empty() && audit_files.empty() && trace_files.empty()) {
    Usage(argv[0]);
    return 2;
  }
  for (const std::string& path : metrics_files) {
    std::vector<RunData> runs;
    if (!ParseMetricsFile(path, &runs)) return 1;
    for (const RunData& run : runs) {
      if (!run_filters.empty() &&
          std::find(run_filters.begin(), run_filters.end(), run.name) ==
              run_filters.end()) {
        continue;
      }
      PrintRunReport(run);
    }
  }
  for (const std::string& path : audit_files) {
    AuditSummary audit;
    if (!ParseAuditFile(path, &audit)) return 1;
    PrintAuditSummary(audit);
  }
  for (const std::string& path : trace_files) {
    TraceSummary trace;
    if (!ParseTraceFile(path, &trace)) return 1;
    PrintTraceSummary(trace);
  }
  return 0;
}
