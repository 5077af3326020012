// Cluster-wide metrics registry: named counters, gauges and fixed-boundary
// histograms with hierarchical labels ({node=3, policy=adaptive}).
//
// Handles returned by Get* are stable for the registry's lifetime, so hot
// paths look a metric up once and record through the pointer in O(1).
// Snapshots are deterministic (metrics sorted by name, then label set) and
// serialize both to JSON and to the RenderTable row format the benches
// already print.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/stats.h"

namespace ckpt {

// Ordered key=value pairs; order given by the caller is preserved in the
// canonical identity, so {a=1,b=2} and {b=2,a=1} are distinct series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Inc(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  void Max(double v) { value_ = v > value_ ? v : value_; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Fixed-boundary histogram; also keeps exact samples (SummaryStats) so
// snapshots can report true quantiles, matching the benches' hand-rolled
// reporting.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);

  std::int64_t count() const { return stats_.count(); }
  double sum() const { return stats_.sum(); }
  const SummaryStats& stats() const { return stats_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] holds samples <= bounds()[i]; the final slot is overflow.
  const std::vector<std::int64_t>& counts() const { return counts_; }

 private:
  std::vector<double> bounds_;  // strictly increasing
  std::vector<std::int64_t> counts_;
  SummaryStats stats_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. Re-registering the same name+labels returns the same
  // handle; reusing a name across metric kinds is a programming error.
  Counter* GetCounter(const std::string& name, MetricLabels labels = {});
  Gauge* GetGauge(const std::string& name, MetricLabels labels = {});
  Histogram* GetHistogram(const std::string& name, MetricLabels labels = {},
                          std::vector<double> bounds = {});

  // "name{k=v,k=v}" — the canonical series identity used for ordering.
  static std::string SeriesKey(const std::string& name,
                               const MetricLabels& labels);

  std::size_t size() const { return series_.size(); }

  // Deterministic JSON object: {"metrics":[{...}, ...]} sorted by key.
  std::string ToJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::string name;
    MetricLabels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& FindOrCreate(const std::string& name, MetricLabels labels,
                       Kind kind);

  // std::map keeps snapshot order deterministic.
  std::map<std::string, Series> series_;
};

}  // namespace ckpt
