/// \file
/// Small numeric helpers for the benchmark orchestrator: median-of-N and
/// min/max spread over repetition samples, and the steady-state detector.
/// Every sweep cell runs N repetitions; the report always carries the median
/// together with the spread so a noisy host is visible in the artifact
/// instead of silently polluting the trajectory.

#ifndef STMBENCH7_SRC_PERF_STATS_H_
#define STMBENCH7_SRC_PERF_STATS_H_

#include <cstddef>
#include <vector>

namespace sb7::perf {

/// Median of `samples` (mean of the middle pair for even sizes).
/// Returns 0 for an empty vector. Equals `QuantileOf(samples, 0.5)`.
double Median(std::vector<double> samples);

/// Quantile `q` in [0,1] of `samples`, linearly interpolated between order
/// statistics (the "R-7" convention: rank = q * (n - 1)). This is the same
/// interpolation convention as TtcHistogram::QuantileMillis, so harness
/// percentiles and bench aggregates agree on what a "p50" means.
/// Returns 0 for an empty vector.
double QuantileOf(std::vector<double> samples, double q);

/// Smallest sample, or 0 for an empty vector.
double MinOf(const std::vector<double>& samples);

/// Largest sample, or 0 for an empty vector.
double MaxOf(const std::vector<double>& samples);

/// Index of the sample closest to the median (ties break low). The sweep
/// runner uses it to pick the "median repetition" whose STM counters are
/// reported for the cell. Returns 0 for an empty vector.
size_t MedianIndex(const std::vector<double>& samples);

/// Steady-state verdict over a throughput time series (the live telemetry
/// samples of one repetition). The run is declared steady at the first
/// sample where the trailing `window` samples have a coefficient of
/// variation (stddev / mean) at or below `cv_threshold`.
struct SteadyState {
  int samples = 0;          ///< series length the detector saw
  bool detected = false;    ///< a qualifying window was found
  double steady_at_s = 0.0; ///< run time of the first steady sample (start of window)
  double tail_cv = 0.0;     ///< CV of the final window (noise floor indicator)
  double warmup_s = 0.0;    ///< configured warmup the cell discarded
  /// True when the configured warmup covers the detected settling point —
  /// i.e. the measured window was genuinely steady. False flags cells whose
  /// reported throughput still contains warmup transient.
  bool warmup_covered = false;
};

/// Runs the CV-window detector over `(t_s, ops_per_s)` pairs. `warmup_s` is
/// the warmup the sweep discarded before its measured window (used only for
/// the `warmup_covered` verdict). Series shorter than `window` never detect.
SteadyState DetectSteadyState(const std::vector<double>& t_s,
                              const std::vector<double>& ops_per_s,
                              double cv_threshold, double warmup_s, int window = 5);

}  // namespace sb7::perf

#endif  // STMBENCH7_SRC_PERF_STATS_H_
