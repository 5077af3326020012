#include "trace/trace_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/logging.h"

namespace ckpt {
namespace {

// task_events event_type codes (trace format v2).
constexpr int kSubmitCode = 0;
constexpr int kScheduleCode = 1;
constexpr int kEvictCode = 2;
constexpr int kFinishCode = 4;

int CodeOf(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSubmit: return kSubmitCode;
    case TraceEventType::kSchedule: return kScheduleCode;
    case TraceEventType::kEvict: return kEvictCode;
    case TraceEventType::kFinish: return kFinishCode;
  }
  return -1;
}

bool ParseInt(std::string_view field, std::int64_t* out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(std::string_view field, double* out) {
  if (field.empty()) return false;
  // std::from_chars<double> is not available everywhere; strtod via a
  // bounded copy keeps this dependency-free.
  char buf[64];
  if (field.size() >= sizeof(buf)) return false;
  std::copy(field.begin(), field.end(), buf);
  buf[field.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + field.size();
}

std::vector<std::string_view> SplitCsv(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

}  // namespace

std::int64_t WriteTraceCsv(const EventTrace& trace, std::ostream& out) {
  std::int64_t rows = 0;
  for (const TraceEvent& event : trace.events) {
    const int code = CodeOf(event.type);
    if (code < 0) continue;
    // machine_id, user, disk and constraint are not modeled: left empty,
    // exactly how the real trace marks unknown fields.
    out << event.time << ",," << event.job.value() << ','
        << event.task.value() << ",," << code << ",,"
        << event.latency_class << ',' << event.priority << ','
        << event.cpus << ",,,\n";
    ++rows;
  }
  return rows;
}

bool WriteTraceCsvFile(const EventTrace& trace, const std::string& path) {
  std::ostringstream csv;
  WriteTraceCsv(trace, csv);
  return WriteFile(path, csv.view());
}

TraceReadResult ReadTraceCsv(std::istream& in) {
  TraceReadResult result;
  std::string line;
  SimTime max_time = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto fields = SplitCsv(line);
    if (fields.size() < 10) {
      result.rows_skipped++;
      continue;
    }
    std::int64_t time = 0, job = 0, task = 0, code = 0, cls = 0, priority = 0;
    double cpus = 0.0;
    if (!ParseInt(fields[0], &time) || !ParseInt(fields[2], &job) ||
        !ParseInt(fields[3], &task) || !ParseInt(fields[5], &code) ||
        !ParseInt(fields[7], &cls) || !ParseInt(fields[8], &priority)) {
      result.rows_skipped++;
      continue;
    }
    if (!fields[9].empty() && !ParseDouble(fields[9], &cpus)) {
      result.rows_skipped++;
      continue;
    }
    TraceEventType type;
    switch (code) {
      case kSubmitCode: type = TraceEventType::kSubmit; break;
      case kScheduleCode: type = TraceEventType::kSchedule; break;
      case kEvictCode: type = TraceEventType::kEvict; break;
      case kFinishCode: type = TraceEventType::kFinish; break;
      default:
        result.rows_skipped++;  // FAIL/KILL/LOST/UPDATE_*: not analyzed
        continue;
    }
    if (time < 0 || priority < 0 || priority > kMaxPriority || cls < 0 ||
        cls >= kNumLatencyClasses) {
      result.rows_skipped++;
      continue;
    }
    TraceEvent event;
    event.time = time;
    event.job = JobId(job);
    event.task = TaskId(task);
    event.priority = static_cast<int>(priority);
    event.latency_class = static_cast<int>(cls);
    event.cpus = cpus;
    event.type = type;
    result.trace.events.push_back(event);
    result.rows_parsed++;
    max_time = std::max(max_time, time);
  }
  std::stable_sort(result.trace.events.begin(), result.trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  result.trace.span = ((max_time / kDay) + 1) * kDay;
  return result;
}

TraceReadResult ReadTraceCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    LOG_WARN << "cannot open trace file " << path;
    return {};
  }
  return ReadTraceCsv(in);
}

}  // namespace ckpt
