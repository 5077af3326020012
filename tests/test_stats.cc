#include "metrics/stats.h"

#include <gtest/gtest.h>

#include "metrics/report.h"

namespace ckpt {
namespace {

TEST(SummaryStats, BasicMoments) {
  SummaryStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 5);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
}

TEST(SummaryStats, QuantilesInterpolate) {
  SummaryStats stats;
  for (int i = 0; i <= 100; ++i) stats.Add(i);
  EXPECT_DOUBLE_EQ(stats.Median(), 50.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 0.0);
}

TEST(SummaryStats, EmptyIsSafe) {
  SummaryStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 0.0);
}

TEST(SummaryStats, SingleSampleCollapsesAllQuantiles) {
  SummaryStats stats;
  stats.Add(42.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.95), 42.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.99), 42.0);
}

TEST(SummaryStats, QuantilesMonotoneUnderSkew) {
  SummaryStats stats;
  // Heavy-tailed: many small values, a few huge ones.
  for (int i = 0; i < 95; ++i) stats.Add(1.0 + i * 0.01);
  for (int i = 0; i < 5; ++i) stats.Add(1000.0 + i);
  const double p50 = stats.Quantile(0.5);
  const double p95 = stats.Quantile(0.95);
  const double p99 = stats.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p50, 2.0);      // median in the bulk
  EXPECT_GE(p99, 1000.0);   // tail reaches the outliers
}

TEST(SummaryStats, AddAfterQuantileStillCorrect) {
  SummaryStats stats;
  stats.Add(10);
  EXPECT_DOUBLE_EQ(stats.Median(), 10.0);
  stats.Add(20);
  stats.Add(30);
  EXPECT_DOUBLE_EQ(stats.Median(), 20.0);
}

TEST(Cdf, QuantileInvertsAt) {
  Cdf cdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 50.0);
}

TEST(Cdf, ShuffledInputSortsBeforeQuerying) {
  // Quantile indexes the sorted sample vector, so construction must sort
  // regardless of input order: a shuffled and a sorted copy of the same
  // samples have to answer identically.
  const std::vector<double> shuffled{7.0, 1.0, 9.0, 3.0, 5.0};
  const std::vector<double> sorted{1.0, 3.0, 5.0, 7.0, 9.0};
  Cdf a(shuffled);
  Cdf b(sorted);
  for (double q : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 9.0);
}

TEST(Report, TableAlignsColumns) {
  const std::string table = RenderTable({{"policy", "hours"},
                                         {"Kill", "3400"},
                                         {"Chk-NVM", "850"}});
  EXPECT_NE(table.find("policy"), std::string::npos);
  EXPECT_NE(table.find("Chk-NVM"), std::string::npos);
  EXPECT_NE(table.find("---"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.14159, 0), "3");
}

}  // namespace
}  // namespace ckpt
