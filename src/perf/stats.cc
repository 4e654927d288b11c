#include "src/perf/stats.h"

#include <algorithm>
#include <cmath>

namespace sb7::perf {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) {
    return samples[n / 2];
  }
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double QuantileOf(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double MinOf(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
}

double MaxOf(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
}

size_t MedianIndex(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  const double median = Median(samples);
  size_t best = 0;
  double best_distance = -1.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double distance = std::abs(samples[i] - median);
    if (best_distance < 0 || distance < best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

namespace {

// Coefficient of variation (stddev / mean) of samples[first, first + count).
// Returns a huge sentinel when the mean is ~0 so such windows never qualify.
double WindowCv(const std::vector<double>& samples, size_t first, size_t count) {
  double mean = 0.0;
  for (size_t i = 0; i < count; ++i) {
    mean += samples[first + i];
  }
  mean /= static_cast<double>(count);
  if (mean <= 1e-9) {
    return 1e9;
  }
  double var = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double d = samples[first + i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(count);
  return std::sqrt(var) / mean;
}

}  // namespace

SteadyState DetectSteadyState(const std::vector<double>& t_s,
                              const std::vector<double>& ops_per_s,
                              double cv_threshold, double warmup_s, int window) {
  SteadyState result;
  const size_t n = std::min(t_s.size(), ops_per_s.size());
  result.samples = static_cast<int>(n);
  result.warmup_s = warmup_s;
  if (window < 2 || n < static_cast<size_t>(window)) {
    return result;
  }
  const auto w = static_cast<size_t>(window);
  result.tail_cv = WindowCv(ops_per_s, n - w, w);
  for (size_t first = 0; first + w <= n; ++first) {
    if (WindowCv(ops_per_s, first, w) <= cv_threshold) {
      result.detected = true;
      result.steady_at_s = t_s[first];
      result.warmup_covered = warmup_s >= result.steady_at_s;
      return result;
    }
  }
  return result;
}

}  // namespace sb7::perf
