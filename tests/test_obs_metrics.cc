#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include "obs/observability.h"

namespace ckpt {
namespace {

TEST(Counter, IncrementAndDelta) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("requests");
  EXPECT_EQ(c->value(), 0);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42);
}

TEST(Gauge, SetAddMax) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("queue_depth");
  g->Set(3.0);
  g->Add(2.0);
  EXPECT_DOUBLE_EQ(g->value(), 5.0);
  g->Max(4.0);  // lower than current: no-op
  EXPECT_DOUBLE_EQ(g->value(), 5.0);
  g->Max(7.5);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
}

TEST(Histogram, BucketsAndQuantiles) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("latency", {}, {1.0, 10.0, 100.0});
  for (double x : {0.5, 0.9, 5.0, 50.0, 500.0}) h->Observe(x);
  EXPECT_EQ(h->count(), 5);
  EXPECT_DOUBLE_EQ(h->sum(), 556.4);
  ASSERT_EQ(h->counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->counts()[0], 2);      // <= 1.0
  EXPECT_EQ(h->counts()[1], 1);      // <= 10.0
  EXPECT_EQ(h->counts()[2], 1);      // <= 100.0
  EXPECT_EQ(h->counts()[3], 1);      // overflow
  EXPECT_DOUBLE_EQ(h->stats().Min(), 0.5);
  EXPECT_DOUBLE_EQ(h->stats().Max(), 500.0);
}

TEST(Histogram, EmptySnapshotIsSafeAndValidJson) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("empty", {}, {1.0, 10.0});
  EXPECT_EQ(h->count(), 0);
  const std::string json = reg.ToJson();
  // Zero-count histograms still serialize with zeroed quantiles instead of
  // NaN/garbage, so downstream JSON parsers never choke.
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":0"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":0"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":0"), std::string::npos);
}

TEST(Histogram, SingleSampleQuantilesCollapse) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("one", {}, {1.0, 10.0});
  h->Observe(7.5);
  EXPECT_DOUBLE_EQ(h->stats().Quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(h->stats().Quantile(0.95), 7.5);
  EXPECT_DOUBLE_EQ(h->stats().Quantile(0.99), 7.5);
  EXPECT_DOUBLE_EQ(h->stats().Min(), 7.5);
  EXPECT_DOUBLE_EQ(h->stats().Max(), 7.5);
}

TEST(Histogram, AllSamplesInOverflowBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("over", {}, {1.0, 2.0});
  for (double x : {100.0, 200.0, 300.0}) h->Observe(x);
  ASSERT_EQ(h->counts().size(), 3u);
  EXPECT_EQ(h->counts()[0], 0);
  EXPECT_EQ(h->counts()[1], 0);
  EXPECT_EQ(h->counts()[2], 3);  // everything past the last bound
  EXPECT_DOUBLE_EQ(h->stats().Quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(h->stats().Max(), 300.0);
}

TEST(Histogram, QuantilesAreMonotone) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("mono", {}, {1.0, 10.0, 100.0});
  // Deterministic skewed spread across all buckets.
  for (int i = 1; i <= 200; ++i) h->Observe((i * 37) % 113 + 0.5);
  const double p50 = h->stats().Quantile(0.5);
  const double p95 = h->stats().Quantile(0.95);
  const double p99 = h->stats().Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h->stats().Min());
  EXPECT_LE(p99, h->stats().Max());
}

TEST(MetricsRegistry, SameSeriesReturnsSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("ops", {{"node", "1"}});
  Counter* b = reg.GetCounter("ops", {{"node", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("ops", {{"node", "1"}});
  Counter* b = reg.GetCounter("ops", {{"node", "2"}});
  Counter* c = reg.GetCounter("ops", {{"node", "1"}, {"op", "save"}});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, HandlesStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  Counter* first = reg.GetCounter("ops", {{"node", "1"}});
  first->Inc(5);
  // Interleave many registrations, then look the original up again.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("other", {{"i", std::to_string(i)}})->Inc();
  }
  Counter* again = reg.GetCounter("ops", {{"node", "1"}});
  EXPECT_EQ(first, again);
  EXPECT_EQ(again->value(), 5);
}

TEST(MetricsRegistry, SeriesKeyCanonicalForm) {
  EXPECT_EQ(MetricsRegistry::SeriesKey("ops", {}), "ops{}");
  EXPECT_EQ(MetricsRegistry::SeriesKey("ops", {{"a", "1"}, {"b", "2"}}),
            "ops{a=1,b=2}");
}

TEST(MetricsRegistry, KindMismatchDies) {
  MetricsRegistry reg;
  reg.GetCounter("x");
  EXPECT_DEATH(reg.GetGauge("x"), "x");
}

TEST(MetricsRegistry, JsonSnapshotIsDeterministic) {
  auto build = [](MetricsRegistry& reg, bool reversed) {
    // Register in different orders; the snapshot must not care.
    if (reversed) {
      reg.GetGauge("b_gauge")->Set(1.5);
      reg.GetCounter("a_count", {{"node", "2"}})->Inc(7);
    } else {
      reg.GetCounter("a_count", {{"node", "2"}})->Inc(7);
      reg.GetGauge("b_gauge")->Set(1.5);
    }
    reg.GetHistogram("c_hist", {}, {1.0, 2.0})->Observe(1.5);
  };
  MetricsRegistry r1, r2;
  build(r1, false);
  build(r2, true);
  EXPECT_EQ(r1.ToJson(), r2.ToJson());
  const std::string json = r1.ToJson();
  EXPECT_NE(json.find("\"name\":\"a_count\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  // a_count sorts before b_gauge sorts before c_hist.
  EXPECT_LT(json.find("a_count"), json.find("b_gauge"));
  EXPECT_LT(json.find("b_gauge"), json.find("c_hist"));
}

TEST(Observability, NodeNaming) {
  EXPECT_EQ(Observability::NodeTrack(NodeId(3)), "node/3");
  EXPECT_EQ(Observability::NodeLabel(NodeId(3)), "3");
}

}  // namespace
}  // namespace ckpt
