// Per-operation measurement containers and result aggregation.

#ifndef STMBENCH7_SRC_HARNESS_METRICS_H_
#define STMBENCH7_SRC_HARNESS_METRICS_H_

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/ops/operation.h"
#include "src/scenario/scenario.h"
#include "src/stm/stm.h"
#include "src/trace/conflict.h"
#include "src/trace/tracer.h"

namespace sb7 {

// Counters for one operation on one thread; merged after the run. The TTC
// histogram records successful completions (Appendix A reports failures as a
// bare count).
struct OpMetrics {
  int64_t success = 0;
  int64_t failed = 0;
  TtcHistogram histogram;

  int64_t started() const { return success + failed; }
  void RecordSuccess(int64_t nanos) {
    ++success;
    histogram.Record(nanos);
  }
  void RecordFailure() { ++failed; }
  void Merge(const OpMetrics& other) {
    success += other.success;
    failed += other.failed;
    histogram.Merge(other.histogram);
  }
};

// Open-loop pacing counters for one phase on one thread; merged after the
// run. Queue delay is how long an operation's start lagged its scheduled
// arrival; backlog_peak estimates the deepest arrival queue observed
// (delay x per-worker rate).
struct PaceMetrics {
  int64_t arrivals = 0;
  // Operations that started more than 1 ms after their scheduled arrival
  // (sub-millisecond lateness is scheduling noise, not queueing).
  int64_t delayed = 0;
  int64_t backlog_peak = 0;
  TtcHistogram queue_delay{200};

  void Merge(const PaceMetrics& other) {
    arrivals += other.arrivals;
    delayed += other.delayed;
    backlog_peak = backlog_peak > other.backlog_peak ? backlog_peak : other.backlog_peak;
    queue_delay.Merge(other.queue_delay);
  }
};

// Results of one scenario phase: the phase's effective configuration, the
// per-operation counters restricted to the phase, open-loop pacing, and the
// STM/hotspot counter deltas over the phase.
struct PhaseResult {
  std::string name;
  double elapsed_seconds = 0.0;

  // Effective phase configuration (after inheriting run-level settings).
  double read_fraction = 0.0;
  int threads = 0;
  ArrivalModel arrival = ArrivalModel::kClosed;
  double target_rate = 0.0;
  double zipf_theta = 0.0;
  double hot_fraction = 0.0;

  std::vector<OpMetrics> per_op;  // parallel to OperationRegistry::all()
  std::vector<double> ratios;
  int64_t total_success = 0;
  int64_t total_started = 0;

  PaceMetrics pace;
  StmStats::View stm = {};  // delta over the phase
  int64_t hot_samples = 0;  // skewed id draws during the phase
  int64_t hot_hits = 0;

  // Conflict attribution over the phase window (tracing runs only;
  // attributed_aborts stays 0 otherwise).
  trace::ConflictSummary conflicts;

  double SuccessThroughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total_success) / elapsed_seconds : 0.0;
  }
  double StartedThroughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total_started) / elapsed_seconds : 0.0;
  }
};

struct BenchResult {
  // Parallel to OperationRegistry::all().
  std::vector<OpMetrics> per_op;
  std::vector<double> ratios;  // configured selection probabilities

  double elapsed_seconds = 0.0;
  int64_t total_success = 0;
  int64_t total_started = 0;

  StmStats::View stm = {};  // zeros for lock strategies

  // One entry per scenario phase, in execution order; empty for plain
  // (non-scenario) runs.
  std::vector<PhaseResult> phases;

  // --- tracing outputs (meaningful only when the run traced) ---
  bool traced = false;
  // Whole-run conflict attribution.
  trace::ConflictSummary conflicts;
  // Latency decomposition indexed by op slot (trace::ConflictOpSlot
  // convention: 0 = no op context, i+1 = registry op i). Empty when not
  // traced.
  std::vector<trace::OpLatencyBreakdown> latency_by_op;
  // Events lost to ring overflow (an honesty signal for the timeline).
  int64_t trace_events_dropped = 0;

  double SuccessThroughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total_success) / elapsed_seconds : 0.0;
  }
  double StartedThroughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total_started) / elapsed_seconds : 0.0;
  }

  // Max successful latency of operation `index`, in milliseconds.
  double MaxLatencyMillis(size_t index) const {
    return static_cast<double>(per_op[index].histogram.max_nanos()) / 1e6;
  }
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_METRICS_H_
