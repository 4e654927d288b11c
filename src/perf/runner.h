/// \file
/// Sweep execution: expands a SweepSpec into cells, runs every cell through
/// the phase-aware BenchmarkRunner, and aggregates per-cell statistics.
///
/// Each cell repetition is executed as a *scenario*: an optional warmup
/// phase (excluded from all statistics) followed by the measure body — a
/// single closed-loop phase for plain cells, or the cell's built-in
/// scenario's phase list. Reusing the scenario engine this way gives the
/// orchestrator warmup windows, phased cells and per-phase accounting
/// without a second execution path. After the last repetition of every cell
/// the structural invariant checker runs: a sweep over a broken backend must
/// fail loudly, not publish garbage numbers.

#ifndef STMBENCH7_SRC_PERF_RUNNER_H_
#define STMBENCH7_SRC_PERF_RUNNER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/perf/stats.h"
#include "src/perf/sweep.h"
#include "src/stm/stm.h"
#include "src/trace/conflict.h"

namespace sb7::perf {

/// One resolved point of the sweep's cartesian product.
struct SweepCell {
  std::string backend;
  int threads = 1;
  std::string workload;  ///< "r" | "rw" | "w"
  std::string scenario;  ///< built-in scenario name, or empty for plain cells
  std::string scale;
  std::string index;     ///< "default" or an index kind name
  std::string cm;        ///< "default" or a contention manager name
  std::string mix;       ///< mix preset name
  /// "inproc" (workers sample operations locally) or "wire" (operations
  /// arrive over loopback TCP via an OpServer and its ingress queue).
  std::string serve = "inproc";
  /// Redo-log fsync policy: "off" (no redo log), "group" or "always"
  /// (mvstm cells run with a scratch redo log and a group-commit sequencer).
  std::string durability = "off";
};

/// Canonical identity of a cell, used to match cells across runs in
/// `--compare`. Fixed key order; empty scenario prints as "-":
///   backend=tl2 threads=4 workload=r scenario=- scale=small index=default
///   cm=default mix=short
/// Wire cells append " serve=wire"; the default inproc mode adds nothing,
/// so pre-serve-axis baselines keep matching their cells. Durability cells
/// likewise append " durability=group|always" only for non-"off" values.
std::string CellKey(const SweepCell& cell);

/// Median/min/max of one latency probe across repetitions. A value of -1
/// means the operation never completed in any repetition.
struct ProbeStats {
  std::string op;
  double max_ms_median = -1.0;
  double max_ms_min = -1.0;
  double max_ms_max = -1.0;
};

/// The "who kills whom" pair with op names resolved against the registry,
/// so the BENCH artifact is readable without re-deriving slot indices.
struct NamedConflictPair {
  std::string victim;
  std::string writer;
  int64_t aborts = 0;
};

/// Per-cell abort attribution (the median repetition's whole-run window,
/// warmup included), collected only under --trace-cells.
struct CellConflicts {
  int64_t total_aborts = 0;
  int64_t attributed_aborts = 0;
  int64_t dropped_events = 0;
  std::vector<trace::ConflictHotLocation> top_locations;
  std::vector<NamedConflictPair> top_pairs;
};

/// Client-side view of a wire cell: the loopback load client's counters and
/// end-to-end (send→response) latency percentiles for the whole run. The
/// server-side numbers in the enclosing CellResult stay the comparable
/// quantities; the gap between p999_ms and this p999 is wire + queueing.
struct WireCellStats {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t op_failed = 0;
  int64_t rejected = 0;
  int64_t bad = 0;
  int64_t lost = 0;
  double client_throughput = 0.0;  ///< (ok + op_failed) / client elapsed
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double p999_ms = -1.0;
  double max_ms = -1.0;
};

/// Aggregated result of one cell: median-of-N throughput with min/max
/// spread, probe latencies, and the STM counter deltas of the median
/// repetition (summed over the measure phases; zeros for lock strategies).
struct CellResult {
  SweepCell cell;
  int reps = 0;
  double elapsed_median_s = 0.0;
  double throughput_median = 0.0;
  double throughput_min = 0.0;
  double throughput_max = 0.0;
  double started_median = 0.0;
  /// p999 of the median repetition's server-side operation latency (all
  /// ops merged over the measure phases); -1 when nothing completed.
  /// Present for every cell, so inproc vs wire tails compare directly.
  double p999_ms = -1.0;
  /// Set for serve="wire" cells; the JSON then carries a "wire" block.
  bool wire = false;
  WireCellStats wire_stats;
  std::vector<ProbeStats> probes;
  bool has_stm = false;
  StmStats::View stm = {};
  /// Set when the sweep ran with trace_cells; the JSON then carries a
  /// "conflicts" block for the cell.
  bool traced = false;
  CellConflicts conflicts;
  /// Set when the cells ran with live telemetry; the JSON then carries a
  /// "steady_state" block — the CV-window detector's verdict over the median
  /// repetition's throughput series (warmup-truncation quality).
  bool telemetry = false;
  SteadyState steady;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<CellResult> cells;
};

struct SweepRunOptions {
  /// Progress log (one line per cell); null = silent.
  std::ostream* log = nullptr;
  /// Install the tracer for every cell repetition and record per-cell
  /// conflict summaries (sb7-bench --trace-cells). Off by default: tracing
  /// costs a few percent and the sweep artifact is a perf trajectory.
  bool trace_cells = false;
  /// Run every cell with live telemetry (in-memory series, no endpoint, no
  /// JSONL): feeds the steady-state detector of the BENCH artifact. On by
  /// default; `sb7-bench --no-telemetry` turns it off for overhead A/B runs.
  bool telemetry = true;
};

struct SweepRunOutcome {
  SweepResult result;
  std::string error;  ///< set on invariant violations or spec errors

  bool ok() const { return error.empty(); }
};

/// Expands the spec's axes into the cell list, in execution order. Exposed
/// separately so tests and `--compare` can enumerate expected cells without
/// running anything.
std::vector<SweepCell> ExpandCells(const SweepSpec& spec);

/// Runs the whole sweep. The spec must already be validated (Validate()).
SweepRunOutcome RunSweep(const SweepSpec& spec, const SweepRunOptions& options);

}  // namespace sb7::perf

#endif  // STMBENCH7_SRC_PERF_RUNNER_H_
