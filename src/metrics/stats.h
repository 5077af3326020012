// Summary statistics and CDFs for experiment reporting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace ckpt {

// Accumulates samples; keeps them all so exact quantiles are available.
class SummaryStats {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sum_ += x;
    sorted_ = false;
  }

  std::int64_t count() const {
    return static_cast<std::int64_t>(samples_.size());
  }
  double sum() const { return sum_; }
  double Mean() const { return samples_.empty() ? 0.0 : sum_ / count(); }
  double Min() const;
  double Max() const;

  // Exact quantile, p in [0, 1]; linear interpolation between order stats.
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void Sort() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_samples_;
  mutable bool sorted_ = false;
  double sum_ = 0.0;
};

// Empirical CDF over a sample set; the paper's CDF figures print its
// quantiles.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  double Quantile(double p) const;
  std::int64_t count() const {
    return static_cast<std::int64_t>(samples_.size());
  }

 private:
  std::vector<double> samples_;  // sorted
};

}  // namespace ckpt
