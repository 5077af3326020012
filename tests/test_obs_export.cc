// Exact bytes of every observability writer: Tracer::ToChromeJson and
// ToJsonl, MetricsRegistry::ToJson and AuditLog::ToJsonl. The expected
// strings pin the artifact format, so a writer refactor that moves a single
// byte fails here before it reaches a trace viewer or ckpt-report.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include "obs/audit_log.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/tracer.h"

namespace ckpt {
namespace {

// Quotes, backslashes, the three named control escapes and two \u ones.
const std::string kNasty = "q\"b\\s\x01\x08\n\t\r\x1f";
const std::string kNastyJson = R"(q\"b\\s\u0001\u0008\n\t\r\u001f)";

// Three events on three tracks, recorded out of time order: the export
// sorts by (start, seq) and numbers tracks alphabetically.
void RecordFixedTrace(Tracer* tracer) {
  const Tracer::SpanId id = tracer->BeginSpan(
      "ckpt.dump", "ckpt", "node/3", 100,
      {TraceArg::Num("third", 1.0 / 3), TraceArg::Str("say", kNasty)});
  tracer->Instant("policy.decision", "policy", "rm", 100,
                  {TraceArg::Num("sum", 0.1 + 0.2),
                   TraceArg::Num("tiny", 1e-7)});
  tracer->EndSpan(id, 250, {TraceArg::Num("frac", 123456789.125),
                            TraceArg::Num("big", 999999999999999.0)});
  tracer->Instant("a\"name", "c\\at", "tr\"ack", 50,
                  {TraceArg::Num("neg", -2.5)});
}

const std::string kEventLines[] = {
    R"({"name":"a\"name","cat":"c\\at","ph":"i","ts":50,"s":"t","pid":1,)"
    R"("tid":3,"args":{"neg":-2.5}})",
    R"({"name":"ckpt.dump","cat":"ckpt","ph":"X","ts":100,"dur":150,"pid":1,)"
    R"("tid":1,"args":{"third":0.333333333333333,"say":")" + kNastyJson +
        R"(","frac":123456789.125,"big":999999999999999}})",
    R"({"name":"policy.decision","cat":"policy","ph":"i","ts":100,"s":"t",)"
    R"("pid":1,"tid":2,"args":{"sum":0.3,"tiny":1e-07}})",
};

TEST(ExportBytes, TracerChromeJson) {
  Tracer tracer;
  RecordFixedTrace(&tracer);
  EXPECT_EQ(tracer.ToChromeJson(),
            R"({"displayTimeUnit":"ms","traceEvents":[)"
            R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
            R"("args":{"name":"node/3"}},)"
            R"({"name":"thread_name","ph":"M","pid":1,"tid":2,)"
            R"("args":{"name":"rm"}},)"
            R"({"name":"thread_name","ph":"M","pid":1,"tid":3,)"
            R"("args":{"name":"tr\"ack"}},)" +
                kEventLines[0] + "," + kEventLines[1] + "," + kEventLines[2] +
                "]}");
}

TEST(ExportBytes, TracerJsonl) {
  Tracer tracer;
  RecordFixedTrace(&tracer);
  EXPECT_EQ(tracer.ToJsonl(), kEventLines[0] + "\n" + kEventLines[1] + "\n" +
                                  kEventLines[2] + "\n");
}

TEST(ExportBytes, EmptyTracer) {
  Tracer tracer;
  EXPECT_EQ(tracer.ToChromeJson(),
            R"({"displayTimeUnit":"ms","traceEvents":[]})");
  EXPECT_EQ(tracer.ToJsonl(), "");
}

TEST(ExportBytes, MetricsRegistryJson) {
  MetricsRegistry reg;
  reg.GetCounter("c.count", {{"k", "v\"q"}})->Inc(42);
  reg.GetGauge("g.sum")->Set(0.1 + 0.2);
  reg.GetGauge("g.third", {{"k", "a\\b"}})->Set(1.0 / 3);
  reg.GetGauge("g.tiny")->Set(1e-7);
  reg.GetGauge("g.frac")->Set(123456789.125);
  reg.GetGauge("g.big")->Set(999999999999999.0);
  Histogram* h =
      reg.GetHistogram("h.lat", {{"op", kNasty}}, {1e-7, 0.5, 123456789.125});
  h->Observe(1.0 / 3);
  h->Observe(0.1 + 0.2);
  h->Observe(999999999999999.0);
  EXPECT_EQ(
      reg.ToJson(),
      R"({"metrics":[)"
      R"({"name":"c.count","labels":{"k":"v\"q"},"type":"counter","value":42},)"
      R"({"name":"g.big","labels":{},"type":"gauge","value":999999999999999},)"
      R"({"name":"g.frac","labels":{},"type":"gauge","value":123456789.125},)"
      R"({"name":"g.sum","labels":{},"type":"gauge","value":0.3},)"
      R"({"name":"g.third","labels":{"k":"a\\b"},"type":"gauge",)"
      R"("value":0.333333333333333},)"
      R"({"name":"g.tiny","labels":{},"type":"gauge","value":1e-07},)"
      R"({"name":"h.lat","labels":{"op":")" +
          kNastyJson +
          R"("},"type":"histogram","count":3,"sum":1e+15,"min":0.3,)"
          R"("max":999999999999999,"mean":333333333333333,)"
          R"("p50":0.333333333333333,"p95":899999999999999,)"
          R"("p99":979999999999999,"bounds":[1e-07,0.5,123456789.125],)"
          R"("bucket_counts":[0,2,0,1]}]})");
}

TEST(ExportBytes, AuditLogJsonl) {
  AuditLog log;
  AuditRecord rec;
  rec.kind = "preempt_scan";
  rec.track = "sched\"uler";
  rec.t = 1000;
  rec.args = {TraceArg::Num("sum", 0.1 + 0.2), TraceArg::Str("why", kNasty)};
  rec.candidates = {
      {TraceArg::Num("third", 1.0 / 3), TraceArg::Num("tiny", 1e-7)},
      {TraceArg::Num("frac", 123456789.125),
       TraceArg::Num("big", 999999999999999.0)}};
  log.Append(std::move(rec));
  log.Event("am_decision", "node/1", 2000, {TraceArg::Num("x", 5)});
  EXPECT_EQ(log.ToJsonl(),
            R"({"seq":0,"t":1000,"kind":"preempt_scan","track":"sched\"uler",)"
            R"("args":{"sum":0.3,"why":")" +
                kNastyJson +
                R"("},"candidates":[{"third":0.333333333333333,"tiny":1e-07},)"
                R"({"frac":123456789.125,"big":999999999999999}]})"
                "\n"
                R"({"seq":1,"t":2000,"kind":"am_decision","track":"node/1",)"
                R"("args":{"x":5}})"
                "\n");
}

// The three spellings every writer shares through json::AppendNumber:
// -0 prints as 0, integral values below 9e15 print every digit (not
// "1e+15"), and non-finite values print as 0 because JSON has no inf/nan.
// The tracer and the registry printed "-0", "1e+15" and "inf"/"nan" before
// they moved onto the shared helper; the audit log always printed these.
TEST(ExportBytes, SharedNumberSpellingEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const TraceArgs args = {
      TraceArg::Num("negzero", -0.0), TraceArg::Num("e15", 1e15),
      TraceArg::Num("big", 4503599627370497.0), TraceArg::Num("inf", inf),
      TraceArg::Num("nan", std::nan(""))};
  const std::string args_json =
      R"({"negzero":0,"e15":1000000000000000,"big":4503599627370497,)"
      R"("inf":0,"nan":0})";

  Tracer tracer;
  tracer.Instant("e", "c", "t", 1, args);
  EXPECT_EQ(tracer.ToJsonl(),
            R"({"name":"e","cat":"c","ph":"i","ts":1,"s":"t","pid":1,"tid":1,)"
            R"("args":)" + args_json + "}\n");

  AuditLog log;
  log.Event("k", "t", 1, args);
  EXPECT_EQ(log.ToJsonl(),
            R"({"seq":0,"t":1,"kind":"k","track":"t","args":)" + args_json +
                "}\n");

  MetricsRegistry reg;
  reg.GetGauge("e15")->Set(1e15);
  reg.GetGauge("inf")->Set(-inf);
  reg.GetGauge("negzero")->Set(-0.0);
  EXPECT_EQ(reg.ToJson(),
            R"({"metrics":[)"
            R"({"name":"e15","labels":{},"type":"gauge",)"
            R"("value":1000000000000000},)"
            R"({"name":"inf","labels":{},"type":"gauge","value":0},)"
            R"({"name":"negzero","labels":{},"type":"gauge","value":0}]})");
}

// A file smaller than the stream buffer is written only when the stream
// is flushed at close; a failure there must still be reported.
TEST(ExportFile, FailedFinalFlushReportsFailure) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Observability obs;
  obs.metrics().GetCounter("c.count")->Inc();
  EXPECT_FALSE(obs.WriteMetricsJson("/dev/full"));
}

}  // namespace
}  // namespace ckpt
