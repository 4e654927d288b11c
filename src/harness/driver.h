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

  uint64_t seed = 20070326;

  // Optional cap on started operations (whichever of time/cap hits first);
  // -1 = unlimited. Used by tests and benches for determinism.
  int64_t max_operations = -1;
};

// What a caller plugs into a run, built and owned by the caller: every
// pointer is optional and must outlive the runner.
struct RunInstruments {
  // Conflict attribution, latency decomposition and sampled lifecycle
  // events; installed for the duration of Run(). The caller drains the
  // timeline afterwards.
  trace::Tracer* tracer = nullptr;
  // Live telemetry: the runner feeds it STM counters, phase gauges and every
  // operation, and runs its sampler for the duration of Run(). The caller
  // serves /metrics and writes the series.
  telemetry::Telemetry* telemetry = nullptr;
  // Served run: workers stop sampling operations locally and instead drain
  // admitted client requests from this queue in batches, executing each
  // under the current phase's accounting and answering it through
  // IngressQueue::Complete. The run ends when the queue is closed and
  // drained, or at the usual wall-clock deadline.
  IngressQueue* ingress = nullptr;
};

class BenchmarkRunner {
 public:
  explicit BenchmarkRunner(const BenchConfig& config, const RunInstruments& instruments = {});

  // Runs the configured workload to completion. May be called once.
  BenchResult Run();

  const BenchConfig& config() const { return config_; }
  DataHolder& data() { return *data_; }
  SyncStrategy& strategy() const { return *strategy_; }
  const OperationRegistry& registry() const { return registry_; }
  // Number of worker threads actually spawned (the max active count over
  // all phases; a scenario thread ramp can exceed config().threads).
  int spawned_threads() const { return spawn_threads_; }

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
  trace::Tracer* const tracer_;
  telemetry::Telemetry* const telemetry_;
  IngressQueue* const ingress_;
  OperationRegistry registry_;
  std::unique_ptr<SyncStrategy> strategy_;
  std::unique_ptr<DataHolder> data_;
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
