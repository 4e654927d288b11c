// Closed-loop load generator over the STMBench7 library's public entry
// points.
//
// One RunClosedLoop call is one (workload, backend) measurement. It repeats
// what BenchmarkRunner does for a plain closed-loop run, step for step, and
// adds only clocks around the calls into each layer:
//
//   core             DataHolder (built on the calling thread)
//   strategy/stm     MakeStrategy, SyncStrategy::Execute
//   ops              Operation::Run (through a pass-through wrapper, traced)
//   Table-2 mix      ComputeOperationRatios, SampleOperation
//   ebr              EbrDomain::Quiesce (timed when traced)
//   mvstm redo       RedoLogWriter, GroupCommitSequencer, RecoverFromLog
//
// The runner's behaviour is copied on purpose, including what it costs: the
// calling thread registers with EBR while it builds the structure and never
// quiesces again while two workers run, so limbo grows for the whole run.

#ifndef STMBENCH7_PERFBENCH_LOADGEN_H_
#define STMBENCH7_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/mvstm/redo_log.h"
#include "src/stm/stm.h"

namespace sb7::loadgen {

// Structure modifications are always on, as in every workload measured.
struct RunConfig {
  std::string backend = "coarse";  // any MakeStrategy name
  std::string scale = "small";     // every workload; the self-tests use "tiny"
  double read_fraction = 0.9;      // Table-2 read-only share
  bool long_traversals = true;
  int workers = 1;                 // 1 runs on the calling thread
  uint64_t seed = 1;               // structure build and operation stream
  int64_t max_operations = 1000;   // operations started, over all workers
  bool traced = false;             // time Run and Quiesce per call
  // Non-empty: open a group-fsync redo log here (mvstm only), as the
  // runner's constructor does, and check after the run that recovering it
  // reproduces the live world.
  std::string redo_log_path;
};

// Nearest-rank percentile: the smallest sample with at least q of all
// samples at or below it. 0 for no samples.
double Quantile(std::vector<int64_t> samples, double q);

// True when at least ten samples lie beyond quantile q, the rule for
// reporting that percentile (p99 needs 1,000 samples).
bool HasTailSamples(int64_t samples, double q);

// Sums over one run's Execute calls. The traced-only fields stay 0 in an
// untraced run.
struct LayerSums {
  int64_t ops = 0;               // Execute calls that returned or threw
  int64_t spec_failed = 0;       // ... ended in OperationFailed
  int64_t other_failed = 0;      // ... raised anything else
  int64_t execute_ns = 0;        // total Execute latency
  // Traced only.
  int64_t attempts = 0;          // Operation::Run calls
  int64_t run_ns = 0;            // Run time over every attempt
  int64_t committed_run_ns = 0;  // Run time of each Execute's last attempt
  int64_t quiesce_calls = 0;
  int64_t quiesce_ns = 0;

  void Add(const LayerSums& other);
};

struct RecoveryCheck {
  bool ran = false;
  bool ok = false;               // recovered fingerprint == live fingerprint
  int64_t ops_replayed = 0;
  uint64_t fingerprint = 0;
  std::string error;
};

struct RunResult {
  double setup_seconds = 0;      // strategy + redo log + structure
  double elapsed_seconds = 0;    // first worker start to last worker join
  LayerSums sums;
  int64_t latency_samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double peak_rss_mb = 0;        // VmHWM right after the workers join
  StmStats::View stm;            // delta over the run (zero for coarse)
  int64_t limbo_begin = 0;       // EbrDomain::PendingCount around the run
  int64_t limbo_end = 0;
  redo::WriterStats redo;        // zero without a redo log
  bool invariants_ok = false;
  std::string first_violation;
  uint64_t fingerprint = 0;      // DeepFingerprint of the final world
  // Single worker only: rolling hash of every operation's result in order
  // (OperationFailed as kOperationFailedSentinel). Equal across backends
  // for one seed and operation count.
  uint64_t results_hash = 0;
  RecoveryCheck recovery;
};

// Runs one closed-loop measurement on the calling thread (plus workers).
RunResult RunClosedLoop(const RunConfig& config);

// Every per-layer figure of a run, by its BENCHMARK.json name without the
// backend suffix: ops.*, strategy.*, stm.*, ebr.* and redo.*. Only traced
// runs fill the ops, strategy, stm.attempts_per_op, stm.wasted_share and
// ebr.quiesce_us figures; the stm.* counts are 0 for lock strategies and
// the redo.* ones 0 without a redo log.
std::vector<std::pair<std::string, double>> LayerReport(const RunResult& result);

}  // namespace sb7::loadgen

#endif  // STMBENCH7_PERFBENCH_LOADGEN_H_
