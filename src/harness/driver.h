// Benchmark driver: builds the world, spawns uniform worker threads, and
// collects results (§4: "threads are uniform — each picks its next operation
// randomly from the whole pool of 45 operations" with the configured ratios).
//
// The run loop is phase-aware: a plain run is one implicit closed-loop phase,
// a scenario run walks the scenario's phase list, swapping operation ratios,
// active thread count, arrival pacing and hotspot skew at phase boundaries
// without restarting the worker threads. Any worker that observes the current
// phase's deadline (or started-op cap) advances the run to the next phase, so
// the single-threaded mode needs no extra controller thread and stays fully
// deterministic under a fixed seed.

#ifndef STMBENCH7_SRC_HARNESS_DRIVER_H_
#define STMBENCH7_SRC_HARNESS_DRIVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "src/common/hotspot.h"
#include "src/mvstm/group_commit.h"
#include "src/core/data_holder.h"
#include "src/harness/ingress.h"
#include "src/harness/metrics.h"
#include "src/harness/workload.h"
#include "src/scenario/scenario.h"
#include "src/strategy/strategy.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/tracer.h"

namespace sb7 {

struct BenchConfig {
  std::string strategy = "coarse";  // coarse | medium | fine | tl2 | tinystm | norec | astm | mvstm
  std::string contention_manager = "polka";
  std::string scale = "small";  // tiny | small | medium
  // Defaults to DefaultIndexKindFor(strategy) when unset.
  std::optional<IndexKind> index_kind;

  WorkloadType workload = WorkloadType::kReadDominated;
  // Overrides the workload preset's read-only share when set (in [0, 1]).
  std::optional<double> read_fraction;
  int threads = 1;
  double length_seconds = 10.0;
  bool long_traversals = true;
  bool structure_mods = true;
  std::set<std::string> disabled_ops;

  // Scenario driving the run (CLI --scenario). Unset = one implicit
  // closed-loop phase derived from the settings above. Phase overrides win
  // over the run-level settings; the run length is split across phases
  // proportionally to their duration weights.
  std::optional<Scenario> scenario;

  bool ttc_histograms = false;
  // Run the structural invariant checker after the benchmark (CLI --verify).
  bool verify_invariants = false;
  // Record committed read/write sets during the run and check the history
  // for opacity afterwards (CLI --check-opacity; STM strategies only).
  bool check_opacity = false;

  // Install the tracer (src/trace/) for the run: conflict attribution,
  // latency decomposition, and sampled lifecycle events. Implied by a
  // non-empty trace_path; sb7-bench sets it directly for --trace-cells.
  bool trace = false;
  // When non-empty, the CLI writes a Chrome trace-event JSON timeline here
  // (CLI --trace; implies `trace`).
  std::string trace_path;
  // Record every Nth transaction's lifecycle events (CLI --trace-sample).
  uint32_t trace_sample = 1;
  // Per-thread event-ring capacity in events, rounded up to a power of two
  // (CLI --trace-buffer).
  size_t trace_buffer = 1 << 16;
  // Install the live telemetry subsystem (src/telemetry/): background
  // sampler, metrics registry, hardware counters. Implied by a non-empty
  // telemetry_path or a metrics_port >= 0; sb7-bench sets it directly to
  // keep the series in memory for steady-state detection.
  bool telemetry = false;
  // When non-empty, the CLI flushes the sampled series as a versioned JSONL
  // artifact here (CLI --telemetry; implies `telemetry`).
  std::string telemetry_path;
  // Sampler tick interval in seconds (CLI --telemetry-interval).
  double telemetry_interval = 1.0;
  // TCP port for the /metrics + /series exposition endpoint; -1 = off,
  // 0 = ephemeral (CLI --metrics-port; implies `telemetry`).
  int metrics_port = -1;
  // Open perf_event hardware counters for the run (graceful no-op when
  // unavailable); only meaningful with telemetry enabled.
  bool telemetry_hw = true;
  // When non-empty, the CLI writes a machine-readable CSV here.
  std::string csv_path;
  // When non-empty, the CLI writes a machine-readable JSON report here.
  std::string json_path;
  // Durable redo log (mvstm only, docs/DURABILITY.md): when non-empty the
  // runner opens a RedoLogWriter here, attaches a group-commit sequencer to
  // the backend, and closes the log when the run ends (CLI --redo-log).
  std::string redo_log_path;
  // Fsync policy for the redo log: "off" | "group" | "always"
  // (CLI --durability; meaningful only with a redo log).
  std::string durability = "off";
  // Fault injection for the crash-recovery tests (CLI --crash-at): fires the
  // configured crash point when the log reaches `crash_at_group` groups.
  // kNone = disabled. The default on_fire (_Exit(137)) stands in for kill -9.
  redo::CrashPoint crash_point = redo::CrashPoint::kNone;
  uint64_t crash_at_group = 0;
  uint64_t seed = 20070326;

  // Optional cap on started operations (whichever of time/cap hits first);
  // -1 = unlimited. Used by tests and benches for determinism.
  int64_t max_operations = -1;

  // Served run (CLI --listen, sb7-bench wire cells): when set, workers stop
  // sampling operations locally and instead drain admitted client requests
  // from this queue in batches, executing each under the current phase's
  // accounting (per-op metrics, telemetry, queue-delay percentiles) and
  // answering it through IngressQueue::Complete. The queue must outlive
  // the runner; the run ends when the queue is closed and drained, or at
  // the usual wall-clock deadline.
  IngressQueue* ingress = nullptr;
};

class BenchmarkRunner {
 public:
  explicit BenchmarkRunner(const BenchConfig& config);

  // Runs the configured workload to completion. May be called once.
  BenchResult Run();

  const BenchConfig& config() const { return config_; }
  DataHolder& data() { return *data_; }
  SyncStrategy& strategy() const { return *strategy_; }
  const OperationRegistry& registry() const { return registry_; }
  // Phase-duration-weighted mix over the whole run (equals the single
  // phase's ratios for plain runs).
  const std::vector<double>& ratios() const { return ratios_; }
  // Number of worker threads actually spawned (the max active count over
  // all phases; a scenario thread ramp can exceed config().threads).
  int spawned_threads() const { return spawn_threads_; }
  // The run's tracer; null unless the config enabled tracing. Valid for the
  // runner's lifetime — the CLI drains it for the timeline export after
  // Run() returns.
  trace::Tracer* tracer() const { return tracer_.get(); }
  // The run's telemetry facade; null unless the config enabled telemetry.
  // Valid for the runner's lifetime — the CLI starts the exposition server
  // before Run() and flushes the JSONL artifact after; sb7-bench reads the
  // series for steady-state detection.
  telemetry::Telemetry* telemetry() const { return telemetry_.get(); }
  // The run's redo-log writer; null unless config().redo_log_path is set.
  // Valid for the runner's lifetime — the CLI reads the append stats for the
  // run-end durability summary after Run() returns (the log itself is closed
  // by then).
  redo::RedoLogWriter* redo_writer() const { return redo_writer_.get(); }

 private:
  // One scenario phase, resolved against the run-level configuration.
  struct PhaseRuntime {
    PhaseSpec spec;
    std::vector<double> ratios;
    int active_threads = 0;
    double read_fraction = 0.0;
    int64_t duration_nanos = 0;
    std::atomic<int64_t> start_nanos{0};
    // max_ops bookkeeping: claimed admits workers, executed ends the phase.
    std::atomic<int64_t> claimed{0};
    std::atomic<int64_t> executed{0};
  };

  // Counter snapshots taken at the phase's boundaries by whichever thread
  // advanced it (guarded by phase_mutex_).
  struct PhaseAccounting {
    int64_t start_nanos = 0;
    int64_t end_nanos = 0;
    StmStats::View stm_begin = {};
    StmStats::View stm_end = {};
    HotspotCounters hot_begin;
    HotspotCounters hot_end;
    // Conflict-table snapshots at the phase boundaries (tracing runs only).
    trace::ConflictTable::Snapshot conflict_begin;
    trace::ConflictTable::Snapshot conflict_end;
    // Hardware-counter readings at the phase boundaries (telemetry runs
    // with perf_event available only; {available=false} otherwise).
    telemetry::HwSample hw_begin;
    telemetry::HwSample hw_end;
  };

  void WorkerLoop(int worker_index, Rng rng,
                  std::vector<std::vector<OpMetrics>>& metrics,  // [phase][op]
                  std::vector<PaceMetrics>& pace);               // [phase]

  // Closes phase `phase_index` and opens the next one (or ends the run).
  // No-op when another thread already advanced past it.
  void TryAdvancePhase(int phase_index);
  void BeginPhaseLocked(int phase_index);
  void FinishPhaseLocked(int phase_index);
  StmStats::View StmSnapshot() const;

  BenchConfig config_;
  OperationRegistry registry_;
  std::unique_ptr<SyncStrategy> strategy_;
  std::unique_ptr<redo::RedoLogWriter> redo_writer_;
  std::unique_ptr<GroupCommitSequencer> sequencer_;
  std::unique_ptr<DataHolder> data_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::vector<double> ratios_;
  int spawn_threads_ = 1;

  std::vector<std::unique_ptr<PhaseRuntime>> phases_;
  std::vector<PhaseAccounting> accounting_;
  std::mutex phase_mutex_;
  std::atomic<int> current_phase_{0};
  std::atomic<int64_t> started_budget_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_DRIVER_H_
