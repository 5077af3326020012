#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "obs/observability.h"

namespace ckpt {
namespace {

TEST(Tracer, SpanRecordsDurationAndArgs) {
  Tracer tracer;
  const Tracer::SpanId id =
      tracer.BeginSpan("ckpt.dump", "ckpt", "node/0", 1000,
                       {TraceArg::Num("bytes", 4096)});
  EXPECT_EQ(tracer.open_spans(), 1u);
  EXPECT_EQ(tracer.size(), 0u);  // nothing completed yet
  tracer.EndSpan(id, 3500, {TraceArg::Str("result", "ok")});
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.size(), 1u);
  const auto events = tracer.SortedEvents();
  EXPECT_EQ(events[0].name, "ckpt.dump");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].start, 1000);
  EXPECT_EQ(events[0].duration, 2500);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "bytes");
  EXPECT_EQ(events[0].args[1].str, "ok");
}

TEST(Tracer, InstantSwapLeavesCallersRecordIntact) {
  Tracer tracer(/*capacity=*/1);
  TraceRecord scratch;
  scratch.name = "policy.decision";
  scratch.category = "policy";
  testing::internal::CaptureStderr();  // swallow the one-time warning
  for (int i = 0; i < 3; ++i) {
    scratch.track = "node/" + std::to_string(i);
    scratch.args = {TraceArg::Num("task", i), TraceArg::Str("action", "kill")};
    tracer.InstantSwap(&scratch, 10 * i);
    EXPECT_EQ(scratch.track, "node/" + std::to_string(i));
    EXPECT_EQ(scratch.phase, 'X');
    EXPECT_EQ(scratch.start, 0);
    ASSERT_EQ(scratch.args.size(), 2u);
    EXPECT_EQ(scratch.args[1].str, "kill");
  }
  testing::internal::GetCapturedStderr();
  const auto events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].track, "node/2");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].start, 20);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].num, 2);
}

TEST(Tracer, NestedAndOverlappingSpans) {
  Tracer tracer;
  const auto outer = tracer.BeginSpan("rm.schedule_loop", "rm", "rm", 0);
  const auto inner = tracer.BeginSpan("dfs.write", "dfs", "dfs", 10);
  tracer.EndSpan(inner, 20);
  tracer.EndSpan(outer, 50);
  const auto events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time regardless of completion order.
  EXPECT_EQ(events[0].name, "rm.schedule_loop");
  EXPECT_EQ(events[0].duration, 50);
  EXPECT_EQ(events[1].name, "dfs.write");
  EXPECT_EQ(events[1].duration, 10);
}

TEST(Tracer, InstantEvents) {
  Tracer tracer;
  tracer.Instant("policy.decision", "policy", "node/1", 42,
                 {TraceArg::Str("action", "kill")});
  const auto events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].start, 42);
  EXPECT_EQ(events[0].duration, 0);
}

TEST(Tracer, RingOverflowDropsOldest) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant("e" + std::to_string(i), "t", "main", i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6);
  const auto events = tracer.SortedEvents();
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST(Tracer, OpenSpansSurviveRingOverflow) {
  Tracer tracer(/*capacity=*/2);
  const auto span = tracer.BeginSpan("long", "t", "main", 0);
  for (int i = 0; i < 8; ++i) {
    tracer.Instant("noise", "t", "main", i + 1);
  }
  tracer.EndSpan(span, 100);
  const auto events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 2u);
  // The completed long span is present even though older ring entries fell
  // off while it was open.
  EXPECT_EQ(events.front().name, "long");
}

TEST(Tracer, EndSpanOnUnknownIdDies) {
  Tracer tracer;
  EXPECT_DEATH(tracer.EndSpan(999, 10), "unknown span");
}

TEST(Tracer, SortedEventsBreakTiesByInsertionOrder) {
  Tracer tracer;
  tracer.Instant("first", "t", "main", 7);
  tracer.Instant("second", "t", "main", 7);
  const auto events = tracer.SortedEvents();
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
}

TEST(Tracer, ChromeJsonShape) {
  Tracer tracer;
  const auto span = tracer.BeginSpan("ckpt.dump", "ckpt", "node/0", 100,
                                     {TraceArg::Num("bytes", 1024)});
  tracer.EndSpan(span, 400);
  tracer.Instant("rm.preempt_event", "rm", "rm", 250);
  const std::string json = tracer.ToChromeJson();
  // Container object with the traceEvents array.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One thread_name metadata record per track, tracks mapped alphabetically.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node/0\""), std::string::npos);
  // The complete event carries ts+dur; the instant carries scope "t".
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":100,\"dur\":300"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":250,\"s\":\"t\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos);
}

TEST(Tracer, JsonlOneObjectPerLine) {
  Tracer tracer;
  tracer.Instant("a", "t", "main", 1);
  tracer.Instant("b", "t", "main", 2);
  const std::string jsonl = tracer.ToJsonl();
  size_t lines = 0;
  size_t pos = 0;
  while ((pos = jsonl.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.find("{\"name\":\"a\""), 0u);
}

TEST(Tracer, StringsAreJsonEscaped) {
  Tracer tracer;
  tracer.Instant("quote\"name", "c", "main", 1,
                 {TraceArg::Str("path", "/a\\b\nc")});
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("/a\\\\b\\nc"), std::string::npos);
}

TEST(Tracer, RingWrapWarnsOnStderrExactlyOnce) {
  Tracer tracer(/*capacity=*/2);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 6; ++i) {
    tracer.Instant("e" + std::to_string(i), "t", "main", i);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  const size_t first = err.find("trace ring full");
  ASSERT_NE(first, std::string::npos) << err;
  // One warning per tracer, no matter how many events fall off; the final
  // tally lives in the dropped() counter / tracer.dropped_events gauge.
  EXPECT_EQ(err.find("trace ring full", first + 1), std::string::npos) << err;
  EXPECT_EQ(tracer.dropped(), 4);
}

TEST(Observability, FinalizeRunExportsDropCounters) {
  Observability obs(/*trace_capacity=*/2, /*audit_capacity=*/2);
  testing::internal::CaptureStderr();  // swallow the one-time warning
  for (int i = 0; i < 5; ++i) {
    obs.tracer().Instant("e", "t", "main", i);
    obs.audit().Event("preempt_scan", "scheduler", i, {});
  }
  testing::internal::GetCapturedStderr();
  obs.FinalizeRun();
  const std::string json = obs.metrics().ToJson();
  EXPECT_NE(json.find("\"name\":\"tracer.dropped_events\",\"labels\":{},"
                      "\"type\":\"gauge\",\"value\":3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"audit.dropped_records\",\"labels\":{},"
                      "\"type\":\"gauge\",\"value\":3"),
            std::string::npos);
  // audit.records counts what survived in the ring (what the JSONL holds);
  // retained + dropped = total appended.
  EXPECT_NE(json.find("\"name\":\"audit.records\",\"labels\":{},"
                      "\"type\":\"gauge\",\"value\":2"),
            std::string::npos);
  // FinalizeRun is idempotent: a second call only re-sets the gauges.
  obs.FinalizeRun();
  EXPECT_EQ(json, obs.metrics().ToJson());
}

}  // namespace
}  // namespace ckpt
