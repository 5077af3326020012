#include "obs/metrics_registry.h"

#include <algorithm>

#include "common/json.h"
#include "common/logging.h"
#include "metrics/report.h"

namespace ckpt {

namespace {

std::string LabelString(const MetricLabels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CKPT_CHECK_LT(bounds_[i - 1], bounds_[i])
        << "histogram bounds must be strictly increasing";
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<size_t>(it - bounds_.begin())]++;
  stats_.Add(x);
}

std::string MetricsRegistry::SeriesKey(const std::string& name,
                                       const MetricLabels& labels) {
  return name + "{" + LabelString(labels) + "}";
}

MetricsRegistry::Series& MetricsRegistry::FindOrCreate(const std::string& name,
                                                       MetricLabels labels,
                                                       Kind kind) {
  const std::string key = SeriesKey(name, labels);
  auto it = series_.find(key);
  if (it != series_.end()) {
    CKPT_CHECK(it->second.kind == kind)
        << "metric " << key << " re-registered as a different kind";
    return it->second;
  }
  Series series;
  series.name = name;
  series.labels = std::move(labels);
  series.kind = kind;
  return series_.emplace(key, std::move(series)).first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  Series& series = FindOrCreate(name, std::move(labels), Kind::kCounter);
  if (series.counter == nullptr) series.counter = std::make_unique<Counter>();
  return series.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, MetricLabels labels) {
  Series& series = FindOrCreate(name, std::move(labels), Kind::kGauge);
  if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
  return series.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels,
                                         std::vector<double> bounds) {
  Series& series = FindOrCreate(name, std::move(labels), Kind::kHistogram);
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series.histogram.get();
}

std::string MetricsRegistry::ToJson() const {
  std::string out;
  out.reserve(16 + series_.size() * 128);
  out += "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    json::AppendEscaped(series.name, &out);
    out += "\",\"labels\":{";
    for (size_t i = 0; i < series.labels.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('"');
      json::AppendEscaped(series.labels[i].first, &out);
      out += "\":\"";
      json::AppendEscaped(series.labels[i].second, &out);
      out.push_back('"');
    }
    out += "},";
    switch (series.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":";
        json::AppendInt(series.counter->value(), &out);
        break;
      case Kind::kGauge:
        out += "\"type\":\"gauge\",\"value\":";
        json::AppendNumber(series.gauge->value(), &out);
        break;
      case Kind::kHistogram: {
        const Histogram& h = *series.histogram;
        out += "\"type\":\"histogram\",\"count\":";
        json::AppendInt(h.count(), &out);
        const std::pair<const char*, double> fields[] = {
            {"sum", h.sum()},
            {"min", h.stats().Min()},
            {"max", h.stats().Max()},
            {"mean", h.stats().Mean()},
            {"p50", h.stats().Quantile(0.5)},
            {"p95", h.stats().Quantile(0.95)},
            {"p99", h.stats().Quantile(0.99)}};
        for (const auto& [name, value] : fields) {
          out += ",\"";
          out += name;
          out += "\":";
          json::AppendNumber(value, &out);
        }
        out += ",\"bounds\":[";
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          if (i > 0) out.push_back(',');
          json::AppendNumber(h.bounds()[i], &out);
        }
        out += "],\"bucket_counts\":[";
        for (size_t i = 0; i < h.counts().size(); ++i) {
          if (i > 0) out.push_back(',');
          json::AppendInt(h.counts()[i], &out);
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::vector<std::vector<std::string>> MetricsRegistry::ToTableRows() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "labels", "type", "value", "count", "mean", "p99"});
  for (const auto& [key, series] : series_) {
    std::vector<std::string> row{series.name, LabelString(series.labels)};
    switch (series.kind) {
      case Kind::kCounter:
        row.insert(row.end(),
                   {"counter", std::to_string(series.counter->value()), "", "",
                    ""});
        break;
      case Kind::kGauge:
        row.insert(row.end(),
                   {"gauge", Fmt(series.gauge->value(), 3), "", "", ""});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *series.histogram;
        row.insert(row.end(),
                   {"histogram", Fmt(h.sum(), 3), std::to_string(h.count()),
                    Fmt(h.stats().Mean(), 4), Fmt(h.stats().Quantile(0.99), 4)});
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ckpt
