#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "src/check/differential.h"
#include "src/check/fingerprint.h"
#include "src/common/hashing.h"
#include "src/common/hotspot.h"
#include "src/common/timing.h"
#include "src/core/data_holder.h"
#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/workload.h"
#include "src/mvstm/group_commit.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/redo_log.h"
#include "src/strategy/strategy.h"

namespace sb7::loadgen {
namespace {

// Replays of the redo log run under coarse: the fingerprint is
// content-based, so any backend must reproduce the live world, and coarse
// replays fastest.
constexpr const char* kRecoveryBackend = "coarse";

// The runner checks its run length before every operation. Runs here end at
// their operation budget; checking this generous limit keeps the loop the
// same as the runner's.
constexpr int64_t kTimeLimitNanos = int64_t{600} * 1'000'000'000;

uint64_t FoldResult(uint64_t hash, int64_t value) {
  return MixHash(hash ^ MixHash(static_cast<uint64_t>(value) + 0x9e3779b97f4a7c15ull));
}

// Peak resident set of this process in MB (VmHWM), 0 when unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// Operation::Run calls of the Execute in flight on one worker.
struct AttemptClock {
  int64_t attempts = 0;
  int64_t run_ns = 0;
  int64_t last_run_ns = 0;
};

// Pass-through operation with the wrapped one's name, category, read-only
// flag and lock set, so every strategy treats it exactly like the original.
// Times each Run, i.e. each transaction attempt; the last one in an Execute
// is the attempt that committed.
class TimedOperation : public Operation {
 public:
  TimedOperation(const Operation& inner, AttemptClock& clock)
      : Operation(inner.name(), inner.category(), inner.read_only(), inner.locks()),
        inner_(inner),
        clock_(clock) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    // Records on return and on every exception (aborts, OperationFailed).
    struct Record {
      AttemptClock& clock;
      int64_t begin;
      ~Record() {
        const int64_t nanos = NowNanos() - begin;
        clock.attempts += 1;
        clock.run_ns += nanos;
        clock.last_run_ns = nanos;
      }
    } record{clock_, NowNanos()};
    return inner_.Run(dh, rng);
  }

 private:
  const Operation& inner_;
  AttemptClock& clock_;
};

struct Worker {
  Worker(const OperationRegistry& registry, bool traced, int64_t max_operations) {
    // One worker can start every operation of the run, and never more.
    latencies.reserve(static_cast<size_t>(max_operations));
    for (const auto& op : registry.all()) {
      if (traced) {
        timed.push_back(std::make_unique<TimedOperation>(*op, clock));
        ops.push_back(timed.back().get());
      } else {
        ops.push_back(op.get());
      }
    }
  }

  LayerSums sums;
  std::vector<int64_t> latencies;  // Execute latency of every operation, ns
  AttemptClock clock;
  std::vector<std::unique_ptr<TimedOperation>> timed;
  std::vector<const Operation*> ops;  // what Execute is called with
  uint64_t results_hash = 0;
};

// BenchmarkRunner for one closed-loop phase, with clocks around the calls.
class ClosedLoop {
 public:
  // Mirrors the runner's constructor: strategy, then the redo log (writer,
  // file header, group-commit sequencer, attach), then the structure.
  explicit ClosedLoop(const RunConfig& config) : config_(config) {
    SB7_CHECK(config_.workers >= 1);
    SB7_CHECK(config_.max_operations >= 1);
    const int64_t begin = NowNanos();
    strategy_ = MakeStrategy(config_.backend);
    SB7_CHECK(strategy_ != nullptr);
    if (!config_.redo_log_path.empty()) {
      auto* mvstm = dynamic_cast<MvStm*>(strategy_->stm());
      SB7_CHECK(mvstm != nullptr);
      redo_writer_ = std::make_unique<redo::RedoLogWriter>(config_.redo_log_path,
                                                           redo::Durability::kGroup);
      SB7_CHECK(redo_writer_->ok());
      redo_writer_->WriteFileHeader(config_.seed, config_.scale, config_.backend);
      sequencer_ = std::make_unique<GroupCommitSequencer>(redo_writer_.get());
      mvstm->AttachSequencer(sequencer_.get());
    }
    DataHolder::Setup setup;
    setup.params = Parameters::ForName(config_.scale);
    setup.index_kind = DefaultIndexKindFor(config_.backend);
    setup.seed = config_.seed;
    data_ = std::make_unique<DataHolder>(setup);
    ratios_ = ComputeOperationRatios(registry_, config_.read_fraction,
                                     config_.long_traversals, /*structure_mods_enabled=*/true,
                                     {});
    setup_seconds_ = NanosToSeconds(NowNanos() - begin);
  }

  RunResult Run();

 private:
  void WorkerLoop(Worker& worker, Rng rng);
  void Quiesce(Worker& worker) const;
  StmStats::View StmSnapshot() const {
    Stm* stm = strategy_->stm();
    return stm != nullptr ? stm->stats().Snapshot() : StmStats::View{};
  }

  RunConfig config_;
  OperationRegistry registry_;
  std::unique_ptr<SyncStrategy> strategy_;
  std::unique_ptr<redo::RedoLogWriter> redo_writer_;
  std::unique_ptr<GroupCommitSequencer> sequencer_;
  std::unique_ptr<DataHolder> data_;
  std::vector<double> ratios_;
  double setup_seconds_ = 0;
  int64_t deadline_nanos_ = 0;
  std::atomic<int64_t> started_budget_{0};
  std::atomic<bool> stop_{false};
};

void ClosedLoop::Quiesce(Worker& worker) const {
  if (!config_.traced) {
    EbrDomain::Global().Quiesce();
    return;
  }
  const int64_t begin = NowNanos();
  EbrDomain::Global().Quiesce();
  worker.sums.quiesce_ns += NowNanos() - begin;
  worker.sums.quiesce_calls += 1;
}

void ClosedLoop::WorkerLoop(Worker& worker, Rng rng) {
  // The runner registers every worker with EBR before its first operation.
  Quiesce(worker);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (NowNanos() >= deadline_nanos_) {
      stop_.store(true, std::memory_order_relaxed);
      break;
    }
    if (started_budget_.fetch_add(1, std::memory_order_relaxed) >= config_.max_operations) {
      stop_.store(true, std::memory_order_relaxed);
      break;
    }
    const int index = SampleOperation(ratios_, rng);
    const int64_t begin = NowNanos();
    worker.clock = AttemptClock{};
    int64_t value = kOperationFailedSentinel;
    SetTxOpContext(index);
    try {
      value = strategy_->Execute(*worker.ops[index], *data_, rng);
    } catch (const OperationFailed&) {
      worker.sums.spec_failed += 1;
    } catch (...) {
      worker.sums.other_failed += 1;
    }
    const int64_t latency = NowNanos() - begin;
    SetTxOpContext(-1);

    LayerSums& sums = worker.sums;
    sums.ops += 1;
    sums.execute_ns += latency;
    sums.attempts += worker.clock.attempts;
    sums.run_ns += worker.clock.run_ns;
    sums.committed_run_ns += worker.clock.last_run_ns;
    worker.latencies.push_back(latency);
    worker.results_hash = FoldResult(worker.results_hash, value);
    Quiesce(worker);
  }
}

RunResult ClosedLoop::Run() {
  RunResult result;
  result.setup_seconds = setup_seconds_;

  // The benchmark's own buffers are allocated before the first operation
  // and sized by the operation budget, so they are the same on every commit.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < config_.workers; ++w) {
    workers.push_back(std::make_unique<Worker>(registry_, config_.traced,
                                               config_.max_operations));
  }

  Rng seeder(config_.seed ^ 0x9d867b3543aa5391ull);
  SetHotspotPolicy(HotspotPolicy{});
  PrewarmHotspotSamplers({data_->atomic_part_ids().capacity(),
                          data_->composite_part_ids().capacity(),
                          data_->base_assembly_ids().capacity(),
                          data_->complex_assembly_ids().capacity()});
  const StmStats::View stm_begin = StmSnapshot();
  result.limbo_begin = EbrDomain::Global().PendingCount();
  const int64_t start = NowNanos();
  deadline_nanos_ = start + kTimeLimitNanos;

  if (config_.workers == 1) {
    // On the calling thread, like the runner: keeps the stream deterministic.
    WorkerLoop(*workers[0], seeder.Split());
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto& worker : workers) {
      Rng rng = seeder.Split();
      threads.emplace_back([this, &worker, rng]() { WorkerLoop(*worker, rng); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  const int64_t end = NowNanos();
  result.limbo_end = EbrDomain::Global().PendingCount();
  result.stm = StmStats::View::Subtract(StmSnapshot(), stm_begin);
  if (redo_writer_ != nullptr) {
    redo_writer_->Close();
    result.redo = redo_writer_->stats();
  }
  result.peak_rss_mb = PeakRssMb();
  ResetHotspotPolicy();
  EbrDomain::Global().Quiesce();
  EbrDomain::Global().TryReclaim();

  result.elapsed_seconds = NanosToSeconds(end - start);
  std::vector<int64_t> latencies;
  for (const auto& worker : workers) {
    result.sums.Add(worker->sums);
    latencies.insert(latencies.end(), worker->latencies.begin(), worker->latencies.end());
  }
  result.latency_samples = static_cast<int64_t>(latencies.size());
  result.p50_ms = Quantile(latencies, 0.50) / 1e6;
  result.p99_ms = Quantile(std::move(latencies), 0.99) / 1e6;
  if (config_.workers == 1) {
    result.results_hash = workers[0]->results_hash;
  }

  const InvariantReport invariants = CheckInvariants(*data_);
  result.invariants_ok = invariants.ok();
  if (!invariants.ok()) {
    result.first_violation = invariants.violations.front();
  }
  result.fingerprint = DeepFingerprint(*data_);

  if (redo_writer_ != nullptr) {
    const redo::ReplayResult replay =
        redo::RecoverFromLog(config_.redo_log_path, kRecoveryBackend);
    RecoveryCheck& check = result.recovery;
    check.ran = true;
    check.ops_replayed = replay.ops_replayed;
    check.fingerprint = replay.fingerprint;
    check.ok = replay.ok && replay.replayed && replay.summary.clean_close &&
               replay.fingerprint == result.fingerprint;
    if (!replay.ok) {
      check.error = replay.error;
    } else if (!replay.summary.clean_close) {
      check.error = "log has no clean close record";
    } else if (!check.ok) {
      check.error = "recovered fingerprint differs from the live world";
    }
  }
  return result;
}

}  // namespace

double Quantile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  // Rank in 1..n; the slack absorbs rounding in q * n, so that p99 of 1,000
  // samples is exactly the 990th.
  const double n = static_cast<double>(samples.size());
  const double rank = std::clamp(std::ceil(q * n - 1e-9 * n), 1.0, n);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank) - 1;
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

bool HasTailSamples(int64_t samples, double q) {
  constexpr double kMinBeyond = 10;
  return static_cast<double>(samples) * (1.0 - q) + 1e-9 >= kMinBeyond;
}

void LayerSums::Add(const LayerSums& other) {
  ops += other.ops;
  spec_failed += other.spec_failed;
  other_failed += other.other_failed;
  execute_ns += other.execute_ns;
  attempts += other.attempts;
  run_ns += other.run_ns;
  committed_run_ns += other.committed_run_ns;
  quiesce_calls += other.quiesce_calls;
  quiesce_ns += other.quiesce_ns;
}

RunResult RunClosedLoop(const RunConfig& config) { return ClosedLoop(config).Run(); }

std::vector<std::pair<std::string, double>> LayerReport(const RunResult& result) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const LayerSums& sums = result.sums;
  const auto ops = static_cast<double>(sums.ops);
  const auto execute = static_cast<double>(sums.execute_ns);
  const auto overhead = static_cast<double>(sums.execute_ns - sums.run_ns);
  const auto wasted = static_cast<double>(sums.run_ns - sums.committed_run_ns);
  const auto per_op = [&](int64_t count) { return ratio(static_cast<double>(count), ops); };
  const StmStats::View& stm = result.stm;
  const redo::WriterStats& redo = result.redo;
  const auto members = static_cast<double>(redo.members);
  return {
      {"ops.body_us", per_op(sums.committed_run_ns) / 1e3},
      {"ops.spec_failed_frac", per_op(sums.spec_failed)},
      {"strategy.overhead_us", ratio(overhead / 1e3, ops)},
      {"strategy.overhead_share", ratio(overhead, execute)},
      {"stm.attempts_per_op", per_op(sums.attempts)},
      {"stm.wasted_share", ratio(wasted, execute)},
      {"stm.reads_per_op", per_op(stm.reads)},
      {"stm.writes_per_op", per_op(stm.writes)},
      {"stm.validation_steps_per_op", per_op(stm.validation_steps)},
      {"stm.aborts_read_validation_per_op", per_op(stm.aborts_read_validation)},
      {"stm.aborts_write_lock_per_op", per_op(stm.aborts_write_lock)},
      {"stm.ro_aborts", static_cast<double>(stm.ro_aborts)},
      {"ebr.quiesce_us", ratio(static_cast<double>(sums.quiesce_ns) / 1e3,
                               static_cast<double>(sums.quiesce_calls))},
      {"ebr.limbo_growth_per_kop", 1000.0 * per_op(result.limbo_end - result.limbo_begin)},
      {"redo.members_per_group", ratio(members, static_cast<double>(redo.groups))},
      {"redo.fsyncs_per_commit", ratio(static_cast<double>(redo.fsyncs), members)},
      {"redo.bytes_per_commit", ratio(static_cast<double>(redo.bytes), members)},
  };
}

}  // namespace sb7::loadgen
