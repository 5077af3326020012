#include "metrics/stats.h"

namespace ckpt {

void SummaryStats::Sort() const {
  if (!sorted_) {
    sorted_samples_ = samples_;
    std::sort(sorted_samples_.begin(), sorted_samples_.end());
    sorted_ = true;
  }
}

double SummaryStats::Min() const {
  Sort();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.front();
}

double SummaryStats::Max() const {
  Sort();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.back();
}

double SummaryStats::Quantile(double p) const {
  CKPT_CHECK_GE(p, 0.0);
  CKPT_CHECK_LE(p, 1.0);
  Sort();
  if (sorted_samples_.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted_samples_.size() - 1);
  const auto lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted_samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_samples_[lo] * (1.0 - frac) + sorted_samples_[hi] * frac;
}

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Cdf::Quantile(double p) const {
  CKPT_CHECK_GE(p, 0.0);
  CKPT_CHECK_LE(p, 1.0);
  if (samples_.empty()) return 0.0;
  const double idx = p * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace ckpt
