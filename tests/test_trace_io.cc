#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "trace/analyzer.h"

namespace ckpt {
namespace {

EventTrace SmallTrace() {
  GoogleTraceConfig config;
  config.trace_tasks = 2000;
  return GoogleTraceGenerator(config).GenerateEventTrace();
}

TEST(TraceIo, RoundTripPreservesEvents) {
  const EventTrace original = SmallTrace();
  std::stringstream buffer;
  const std::int64_t written = WriteTraceCsv(original, buffer);
  EXPECT_EQ(written, static_cast<std::int64_t>(original.events.size()));

  const TraceReadResult read = ReadTraceCsv(buffer);
  EXPECT_EQ(read.rows_parsed, written);
  EXPECT_EQ(read.rows_skipped, 0);
  ASSERT_EQ(read.trace.events.size(), original.events.size());
  for (size_t i = 0; i < original.events.size(); ++i) {
    const TraceEvent& a = original.events[i];
    const TraceEvent& b = read.trace.events[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.latency_class, b.latency_class);
    EXPECT_EQ(a.type, b.type);
    EXPECT_NEAR(a.cpus, b.cpus, 1e-6);
  }
}

// A trace smaller than the stream buffer reaches the file only in the
// final flush at close; a failure there must still be reported.
TEST(TraceIo, FailedFinalFlushReportsFailure) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  GoogleTraceConfig config;
  config.trace_tasks = 10;
  const EventTrace trace = GoogleTraceGenerator(config).GenerateEventTrace();
  ASSERT_FALSE(trace.events.empty());
  EXPECT_FALSE(WriteTraceCsvFile(trace, "/dev/full"));
}

TEST(TraceIo, AnalysisSurvivesRoundTrip) {
  const EventTrace original = SmallTrace();
  std::stringstream buffer;
  WriteTraceCsv(original, buffer);
  const TraceReadResult read = ReadTraceCsv(buffer);

  const TraceAnalysis a = AnalyzeTrace(original);
  const TraceAnalysis b = AnalyzeTrace(read.trace);
  EXPECT_DOUBLE_EQ(a.overall_preemption_rate, b.overall_preemption_rate);
  for (size_t band = 0; band < 3; ++band) {
    EXPECT_EQ(a.by_band[band].tasks, b.by_band[band].tasks);
    EXPECT_EQ(a.by_band[band].preempted_tasks, b.by_band[band].preempted_tasks);
  }
}

TEST(TraceIo, ParsesHandWrittenRealFormatRows) {
  // Rows shaped like the public trace (empty machine/user/disk fields).
  std::stringstream in(
      "0,,6251,0,,0,,2,9,0.5,0.06,0.0001,\n"
      "1000000,,6251,0,4155527081,1,,2,9,0.5,0.06,0.0001,\n"
      "90000000,,6251,0,4155527081,2,,2,9,0.5,0.06,0.0001,\n"
      "95000000,,6251,0,4155527081,1,,2,9,0.5,0.06,0.0001,\n"
      "180000000,,6251,0,4155527081,4,,2,9,0.5,0.06,0.0001,\n");
  const TraceReadResult read = ReadTraceCsv(in);
  EXPECT_EQ(read.rows_parsed, 5);
  EXPECT_EQ(read.rows_skipped, 0);
  ASSERT_EQ(read.trace.events.size(), 5u);
  EXPECT_EQ(read.trace.events[2].type, TraceEventType::kEvict);
  EXPECT_EQ(read.trace.events[0].priority, 9);
  EXPECT_EQ(read.trace.events[0].latency_class, 2);
  EXPECT_DOUBLE_EQ(read.trace.events[0].cpus, 0.5);

  const TraceAnalysis analysis = AnalyzeTrace(read.trace);
  EXPECT_EQ(analysis.by_band[static_cast<size_t>(PriorityBand::kProduction)]
                .preempted_tasks,
            1);
}

TEST(TraceIo, SkipsIrrelevantEventTypes) {
  std::stringstream in(
      "0,,1,0,,0,,0,1,0.5,0.1,,\n"
      "10,,1,0,,3,,0,1,0.5,0.1,,\n"   // FAIL: skipped
      "20,,1,0,,5,,0,1,0.5,0.1,,\n"   // KILL: skipped
      "30,,1,0,,7,,0,1,0.5,0.1,,\n"   // UPDATE_PENDING: skipped
      "40,,1,0,,4,,0,1,0.5,0.1,,\n");
  const TraceReadResult read = ReadTraceCsv(in);
  EXPECT_EQ(read.rows_parsed, 2);
  EXPECT_EQ(read.rows_skipped, 3);
}

TEST(TraceIo, TolerantOfMalformedLines) {
  std::stringstream in(
      "# comment line\n"
      "\n"
      "not,a,number,at,all,x,,y,z,w\n"
      "0,,1,0,,0,,0,15,0.5,0.1,,\n"   // priority 15 out of range
      "0,,1,0,,0,,9,1,0.5,0.1,,\n"    // latency class 9 out of range
      "5,,2,0,,0,,1,1,0.25,0.1,,\n"); // valid
  const TraceReadResult read = ReadTraceCsv(in);
  EXPECT_EQ(read.rows_parsed, 1);
  // Comments and blank lines are ignored silently; the malformed row and
  // the two out-of-range rows are counted as skipped.
  EXPECT_EQ(read.rows_skipped, 3);
  ASSERT_EQ(read.trace.events.size(), 1u);
  EXPECT_EQ(read.trace.events[0].time, 5);
}

TEST(TraceIo, ReadSortsOutOfOrderRows) {
  std::stringstream in(
      "50,,1,0,,4,,0,1,0.5,0.1,,\n"
      "10,,1,0,,1,,0,1,0.5,0.1,,\n"
      "0,,1,0,,0,,0,1,0.5,0.1,,\n");
  const TraceReadResult read = ReadTraceCsv(in);
  ASSERT_EQ(read.trace.events.size(), 3u);
  EXPECT_EQ(read.trace.events[0].type, TraceEventType::kSubmit);
  EXPECT_EQ(read.trace.events[2].type, TraceEventType::kFinish);
  EXPECT_EQ(read.trace.span, kDay);  // rounded up to whole days
}

TEST(TraceIo, FileRoundTrip) {
  const EventTrace original = SmallTrace();
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  ASSERT_TRUE(WriteTraceCsvFile(original, path));
  const TraceReadResult read = ReadTraceCsvFile(path);
  EXPECT_EQ(read.trace.events.size(), original.events.size());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReturnsEmpty) {
  const TraceReadResult read = ReadTraceCsvFile("/nonexistent/trace.csv");
  EXPECT_TRUE(read.trace.events.empty());
  EXPECT_EQ(read.rows_parsed, 0);
}

}  // namespace
}  // namespace ckpt
