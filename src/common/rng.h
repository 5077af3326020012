// Deterministic random number generation.
//
// Every stochastic component takes an explicit seed; nothing in the
// repository consults entropy or wall-clock, so all runs are reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace ckpt {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Bernoulli trial with probability p of true.
  bool Bernoulli(double p) { return Uniform() < p; }

  // Exponential with the given mean (not rate).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Pareto (heavy-tailed) with scale x_m > 0 and shape alpha > 0.
  // Used for task durations, which are heavy-tailed in the Google trace.
  double Pareto(double x_m, double alpha) {
    const double u = 1.0 - Uniform();
    return x_m / std::pow(u, 1.0 / alpha);
  }

  // Log-normal parameterized by the mean/sigma of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  // Derive an independent child stream; children with different salts are
  // decorrelated from each other and the parent.
  Rng Fork(std::uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9E3779B97F4A7C15ull));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace ckpt
