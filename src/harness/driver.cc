#include "src/harness/driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/timing.h"
#include "src/ebr/ebr.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/redo_log.h"

namespace sb7 {
namespace {

// Sleep granularity of the phase controller paths: short enough that phase
// boundaries and open-loop arrivals land within ~a millisecond.
constexpr int64_t kPollNanos = 1'000'000;

// Requests a worker claims per ingress-queue pop: batching amortizes the
// queue lock without letting one worker starve the others.
constexpr size_t kIngressBatch = 16;

void SleepNanos(int64_t nanos) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

// How many hottest locations / deadliest op pairs phase and run reports
// keep from the conflict table.
constexpr size_t kConflictTopK = 8;

}  // namespace

BenchmarkRunner::BenchmarkRunner(const BenchConfig& config) : config_(config) {
  SB7_CHECK(config_.threads >= 1);
  SB7_CHECK(config_.length_seconds > 0);
  strategy_ = MakeStrategy(config_.strategy, config_.contention_manager);
  SB7_CHECK(strategy_ != nullptr);

  if (!config_.redo_log_path.empty()) {
    // Group commit + redo logging is an mvstm capability (the CLI validates
    // this; programmatic callers get the check below).
    auto* mvstm = dynamic_cast<MvStm*>(strategy_->stm());
    SB7_CHECK(mvstm != nullptr);
    redo::Durability durability = redo::Durability::kOff;
    SB7_CHECK(redo::ParseDurability(config_.durability, &durability));
    redo_writer_ =
        std::make_unique<redo::RedoLogWriter>(config_.redo_log_path, durability);
    SB7_CHECK(redo_writer_->ok());
    if (config_.crash_point != redo::CrashPoint::kNone) {
      redo::CrashConfig crash;
      crash.point = config_.crash_point;
      crash.at_group = config_.crash_at_group;
      redo_writer_->SetCrashConfig(std::move(crash));
    }
    // The header precedes the workers; every later append comes from the
    // group-commit leader, so the writer never needs internal locking.
    redo_writer_->WriteFileHeader(config_.seed, config_.scale, config_.strategy);
    sequencer_ = std::make_unique<GroupCommitSequencer>(redo_writer_.get());
    mvstm->AttachSequencer(sequencer_.get());
  }

  if (config_.trace || !config_.trace_path.empty()) {
    config_.trace = true;
    trace::TraceOptions options;
    options.ring_capacity = config_.trace_buffer;
    options.sample_period = config_.trace_sample > 0 ? config_.trace_sample : 1;
    tracer_ = std::make_unique<trace::Tracer>(options);
  }

  if (config_.telemetry || !config_.telemetry_path.empty() || config_.metrics_port >= 0) {
    config_.telemetry = true;
    telemetry::TelemetryOptions options;
    options.interval_seconds = config_.telemetry_interval;
    options.hw_counters = config_.telemetry_hw;
    options.metrics_port = config_.metrics_port;
    telemetry_ = std::make_unique<telemetry::Telemetry>(options);
    // Hardware counters must open before the worker threads exist —
    // perf_event inherit only covers threads spawned afterwards.
    telemetry_->StartHw();
    telemetry_->SetStmSource([this]() { return StmSnapshot(); });
    if (tracer_ != nullptr) {
      telemetry_->SetTraceDroppedSource([this]() { return tracer_->TotalDropped(); });
    }
  }

  DataHolder::Setup setup;
  setup.params = Parameters::ForName(config_.scale);
  setup.index_kind = config_.index_kind.value_or(DefaultIndexKindFor(config_.strategy));
  setup.seed = config_.seed;
  data_ = std::make_unique<DataHolder>(setup);

  // Resolve the phase list: the configured scenario, or one implicit
  // closed-loop phase mirroring the plain CLI settings.
  Scenario scenario;
  if (config_.scenario.has_value()) {
    scenario = *config_.scenario;
  } else {
    PhaseSpec main_phase;
    main_phase.name = "main";
    scenario.phases.push_back(main_phase);
  }
  const double total_weight = scenario.TotalWeight();
  SB7_CHECK(total_weight > 0);

  const double base_read_fraction =
      config_.read_fraction.value_or(ReadOnlyFraction(config_.workload));
  spawn_threads_ = config_.scenario.has_value() ? 1 : config_.threads;
  for (const PhaseSpec& spec : scenario.phases) {
    auto phase = std::make_unique<PhaseRuntime>();
    phase->spec = spec;
    phase->active_threads = spec.threads.value_or(config_.threads);
    SB7_CHECK(phase->active_threads >= 1);
    spawn_threads_ = std::max(spawn_threads_, phase->active_threads);
    phase->read_fraction = spec.read_fraction.value_or(base_read_fraction);

    std::set<std::string> disabled = config_.disabled_ops;
    disabled.insert(spec.disabled_ops.begin(), spec.disabled_ops.end());
    phase->ratios = ComputeOperationRatios(
        registry_, phase->read_fraction,
        spec.long_traversals.value_or(config_.long_traversals),
        spec.structure_mods.value_or(config_.structure_mods), disabled);

    phase->duration_nanos = static_cast<int64_t>(config_.length_seconds * 1e9 *
                                                 spec.duration_weight / total_weight);
    phases_.push_back(std::move(phase));
  }
  accounting_.resize(phases_.size());

  // Run-level mix: phase ratios weighted by phase duration.
  ratios_.assign(registry_.all().size(), 0.0);
  for (const auto& phase : phases_) {
    const double weight = phase->spec.duration_weight / total_weight;
    for (size_t i = 0; i < ratios_.size(); ++i) {
      ratios_[i] += weight * phase->ratios[i];
    }
  }

  if (telemetry_ != nullptr) {
    telemetry::RunInfo info;
    info.backend = config_.strategy;
    info.scenario = config_.scenario.has_value() ? config_.scenario->name : "-";
    info.scale = config_.scale;
    info.threads = spawn_threads_;
    telemetry_->SetRunInfo(std::move(info));
    // Live phase/arrival-queue state: gauges read the current phase's
    // runtime through the same acquire index the workers use, so a scrape
    // mid-run sees the phase that is actually executing.
    auto current = [this]() -> const PhaseRuntime* {
      const int p = current_phase_.load(std::memory_order_acquire);
      if (p < 0 || p >= static_cast<int>(phases_.size())) {
        return nullptr;
      }
      return phases_[p].get();
    };
    telemetry_->registry().AddGauge(
        "sb7_phase_active_threads", "Worker threads active in the current phase",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr ? static_cast<double>(phase->active_threads) : 0.0;
        });
    telemetry_->registry().AddGauge(
        "sb7_phase_target_rate", "Open-loop arrival rate of the current phase (op/s; 0 = closed loop)",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr && phase->spec.arrival != ArrivalModel::kClosed
                     ? phase->spec.rate_ops_per_sec
                     : 0.0;
        });
    telemetry_->registry().AddGauge(
        "sb7_phase_executed_total", "Operations executed in the current phase",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr ? static_cast<double>(
                                        phase->executed.load(std::memory_order_relaxed))
                                  : 0.0;
        });
  }
}

StmStats::View BenchmarkRunner::StmSnapshot() const {
  Stm* stm = strategy_->stm();
  return stm != nullptr ? stm->stats().Snapshot() : StmStats::View{};
}

void BenchmarkRunner::BeginPhaseLocked(int phase_index) {
  PhaseRuntime& phase = *phases_[phase_index];
  HotspotPolicy policy;
  policy.theta = phase.spec.zipf_theta;
  policy.hot_fraction = phase.spec.hot_fraction;
  SetHotspotPolicy(policy);
  // Pay the O(capacity) sampler construction here, at the phase boundary,
  // not inside the first measured operations of the phase.
  PrewarmHotspotSamplers({data_->atomic_part_ids().capacity(),
                          data_->composite_part_ids().capacity(),
                          data_->base_assembly_ids().capacity(),
                          data_->complex_assembly_ids().capacity()});

  const int64_t now = NowNanos();
  phase.start_nanos.store(now, std::memory_order_relaxed);
  PhaseAccounting& acc = accounting_[phase_index];
  acc.start_nanos = now;
  acc.stm_begin = StmSnapshot();
  acc.hot_begin = ReadHotspotCounters();
  if (tracer_ != nullptr) {
    acc.conflict_begin = tracer_->ConflictSnapshot();
  }
  if (telemetry_ != nullptr) {
    acc.hw_begin = telemetry_->HwNow();
    telemetry_->SetPhase(phase_index, phase.spec.name);
  }
}

void BenchmarkRunner::FinishPhaseLocked(int phase_index) {
  PhaseAccounting& acc = accounting_[phase_index];
  acc.end_nanos = NowNanos();
  acc.stm_end = StmSnapshot();
  acc.hot_end = ReadHotspotCounters();
  if (tracer_ != nullptr) {
    acc.conflict_end = tracer_->ConflictSnapshot();
  }
  if (telemetry_ != nullptr) {
    acc.hw_end = telemetry_->HwNow();
  }
}

void BenchmarkRunner::TryAdvancePhase(int phase_index) {
  std::lock_guard<std::mutex> lock(phase_mutex_);
  if (current_phase_.load(std::memory_order_relaxed) != phase_index) {
    return;  // someone else advanced it first
  }
  FinishPhaseLocked(phase_index);
  const int next = phase_index + 1;
  if (next < static_cast<int>(phases_.size())) {
    BeginPhaseLocked(next);
  } else {
    ResetHotspotPolicy();
  }
  current_phase_.store(next, std::memory_order_release);
}

void BenchmarkRunner::WorkerLoop(int worker_index, Rng rng,
                                 std::vector<std::vector<OpMetrics>>& metrics,
                                 std::vector<PaceMetrics>& pace) {
  const auto& ops = registry_.all();
  const int64_t budget = config_.max_operations;
  const int phase_count = static_cast<int>(phases_.size());
  IngressQueue* const ingress = config_.ingress;
  std::vector<ArrivalSchedule> schedules(phases_.size());
  // This iteration's operations: a batch of admitted client requests in a
  // served run, otherwise one locally sampled operation (request_id 0, due
  // at its scheduled arrival).
  std::vector<IngressRequest> work;

  // Come online in the EBR domain before the first operation: a worker must
  // be visible to reclamation before it can chase optimistic pointers.
  EbrDomain::Global().Quiesce();

  while (!stop_.load(std::memory_order_relaxed)) {
    const int p = current_phase_.load(std::memory_order_acquire);
    if (p >= phase_count) {
      break;
    }
    PhaseRuntime& phase = *phases_[p];

    // Phase end conditions: wall-clock deadline or started-op cap. Every
    // worker — active or idle — may flip the phase, so a boundary is
    // observed as soon as any worker is between operations.
    const int64_t phase_start = phase.start_nanos.load(std::memory_order_relaxed);
    const bool over_time = NowNanos() >= phase_start + phase.duration_nanos;
    const bool over_cap =
        phase.spec.max_ops >= 0 &&
        phase.executed.load(std::memory_order_relaxed) >= phase.spec.max_ops;
    if (over_time || over_cap) {
      TryAdvancePhase(p);
      continue;
    }

    if (worker_index >= phase.active_threads) {
      // Parked for this phase (thread ramp). Stay quiescent so EBR
      // reclamation keeps making progress.
      EbrDomain::Global().Quiesce();
      SleepNanos(kPollNanos / 4);
      continue;
    }

    work.clear();
    // Whether the operations record how late they started, and the rate
    // that lateness is read against for the backlog estimate (0 = none).
    bool paced = false;
    double pace_rate = 0.0;
    if (ingress != nullptr) {
      // Served run: drain admitted client requests in batches instead of
      // sampling operations locally. The phase checks above still apply, so
      // a scenario can reshape thread count / hotspot skew mid-serve; the
      // arrival process itself lives on the clients, so a request is due
      // when it was admitted and the backlog is the queue depth itself.
      if (ingress->PopBatch(&work, kIngressBatch, /*timeout_ms=*/5) == 0) {
        if (ingress->closed()) {
          break;  // drained and no more producers: run is over
        }
        continue;  // idle tick; re-check phase deadline at the loop top
      }
      pace[p].backlog_peak =
          std::max(pace[p].backlog_peak, static_cast<int64_t>(ingress->size()));
      paced = true;
    } else {
      // Claim a phase slot before touching the global budget: workers
      // waiting out a capped phase must not burn budget that later phases
      // still need.
      if (phase.spec.max_ops >= 0 &&
          phase.claimed.fetch_add(1, std::memory_order_relaxed) >= phase.spec.max_ops) {
        SleepNanos(kPollNanos / 4);  // cap reached; wait for the phase to flip
        continue;
      }
      if (budget >= 0 && started_budget_.fetch_add(1, std::memory_order_relaxed) >= budget) {
        stop_.store(true, std::memory_order_relaxed);
        break;
      }

      IngressRequest sampled;
      if (phase.spec.arrival != ArrivalModel::kClosed) {
        // Open-loop pacing: wait for this worker's next scheduled arrival.
        ArrivalSchedule& schedule = schedules[p];
        if (!schedule.started()) {
          // First arrival of this phase for this worker: start the process
          // at the later of phase start and now — a worker entering late
          // (still finishing the previous phase's operation) must not count
          // its own lateness as queue delay.
          schedule.Start(phase.spec.arrival,
                         phase.spec.rate_ops_per_sec / static_cast<double>(phase.active_threads),
                         phase.spec.burst_size, std::max(phase_start, NowNanos()), rng);
        }
        sampled.accepted_nanos = schedule.Next(rng);

        // Wait for the arrival, but never past the phase deadline: with a
        // low rate every active worker can be parked here, and someone must
        // still reach the loop top in time to advance the phase.
        const int64_t phase_deadline = phase_start + phase.duration_nanos;
        bool interrupted = false;
        int64_t now = 0;
        while ((now = NowNanos()) < sampled.accepted_nanos) {
          if (now >= phase_deadline || current_phase_.load(std::memory_order_relaxed) != p ||
              stop_.load(std::memory_order_relaxed)) {
            interrupted = true;
            break;
          }
          SleepNanos(std::min(sampled.accepted_nanos - now, kPollNanos));
        }
        if (interrupted) {
          // The phase ended while we waited: drop the arrival and hand its
          // global-budget claim back — the operation never started.
          if (budget >= 0) {
            started_budget_.fetch_sub(1, std::memory_order_relaxed);
          }
          continue;
        }
        paced = true;
        pace_rate = schedule.rate();
      }
      sampled.op_index = static_cast<uint16_t>(SampleOperation(phase.ratios, rng));
      work.push_back(sampled);
    }

    bool budget_hit = false;
    for (const IngressRequest& request : work) {
      if (ingress != nullptr &&
          (budget_hit || (budget >= 0 && started_budget_.fetch_add(
                                             1, std::memory_order_relaxed) >= budget))) {
        // Out of budget: the popped request must still be answered, and
        // kRejected is the honest outcome — it was never executed.
        budget_hit = true;
        ingress->Complete(request, IngressStatus::kRejected, 0);
        continue;
      }
      const int64_t begin = NowNanos();
      if (paced) {
        RecordArrivalDelay(pace[p], begin - request.accepted_nanos, pace_rate);
      }
      if (request.op_index >= ops.size()) {
        // Only a client can name an operation the registry does not have.
        ingress->Complete(request, IngressStatus::kBadRequest, 0);
        continue;
      }
      const int index = request.op_index;
      SetTxOpContext(index);
      // Tag the attempt context so the redo log's member records carry the
      // client's request id — what makes `acked ⊆ durable` checkable
      // against a recovered log (tests/recovery_test.cc).
      redo::SetCaptureClientTag(request.request_id);
      IngressStatus status = IngressStatus::kOk;
      int64_t latency = 0;
      try {
        strategy_->Execute(*ops[index], *data_, rng);
        latency = NowNanos() - begin;
        metrics[p][index].RecordSuccess(latency);
      } catch (const OperationFailed&) {
        latency = NowNanos() - begin;
        metrics[p][index].RecordFailure();
        status = IngressStatus::kOpFailed;
      }
      if (telemetry_ != nullptr) {
        telemetry_->RecordOp(status == IngressStatus::kOk,
                             status == IngressStatus::kOk ? latency : 0);
      }
      SetTxOpContext(-1);
      redo::SetCaptureClientTag(0);
      phase.executed.fetch_add(1, std::memory_order_relaxed);
      if (ingress != nullptr) {
        ingress->Complete(request, status, latency);
      }
    }
    EbrDomain::Global().Quiesce();
    if (budget_hit) {
      stop_.store(true, std::memory_order_relaxed);
    }
  }
}

BenchResult BenchmarkRunner::Run() {
  const size_t op_count = registry_.all().size();
  const size_t phase_count = phases_.size();
  std::vector<std::vector<std::vector<OpMetrics>>> per_thread(
      spawn_threads_, std::vector<std::vector<OpMetrics>>(
                          phase_count, std::vector<OpMetrics>(op_count)));
  std::vector<std::vector<PaceMetrics>> per_thread_pace(
      spawn_threads_, std::vector<PaceMetrics>(phase_count));

  Rng seeder(config_.seed ^ 0x9d867b3543aa5391ull);
  if (tracer_ != nullptr) {
    tracer_->Install();
  }
  {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    BeginPhaseLocked(0);
  }
  current_phase_.store(0, std::memory_order_release);
  const int64_t start = accounting_[0].start_nanos;
  if (telemetry_ != nullptr) {
    telemetry_->Start();
  }

  if (spawn_threads_ == 1) {
    // In-thread execution keeps single-threaded runs fully deterministic,
    // which the cross-backend equivalence tests require.
    WorkerLoop(0, seeder.Split(), per_thread[0], per_thread_pace[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(spawn_threads_);
    for (int t = 0; t < spawn_threads_; ++t) {
      Rng rng = seeder.Split();
      workers.emplace_back([this, t, rng, &per_thread, &per_thread_pace]() mutable {
        WorkerLoop(t, rng, per_thread[t], per_thread_pace[t]);
      });
    }
    // This thread reads nothing shared until the workers are done. Left
    // online (by an earlier one-worker run, or by the Quiesce that ends every
    // run), its stale announcement would pin the epoch for this whole run.
    EbrDomain::Global().Offline();
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const int64_t end = NowNanos();

  {
    // If the run stopped early (global op cap), the live phase was never
    // closed by a worker; close it so its accounting window is valid.
    std::lock_guard<std::mutex> lock(phase_mutex_);
    const int p = current_phase_.load(std::memory_order_relaxed);
    if (p < static_cast<int>(phase_count)) {
      FinishPhaseLocked(p);
      current_phase_.store(static_cast<int>(phase_count), std::memory_order_relaxed);
    }
  }
  if (config_.ingress != nullptr) {
    // The run is over: close the queue so the front-end's TryPush turns
    // every later arrival into an immediate typed rejection, then reject
    // whatever was admitted but never popped — a closed-loop client must
    // never be left waiting on a request no worker will execute.
    config_.ingress->Close();
    std::vector<IngressRequest> stranded;
    config_.ingress->PopBatch(&stranded, config_.ingress->capacity(), /*timeout_ms=*/0);
    for (const IngressRequest& request : stranded) {
      config_.ingress->Complete(request, IngressStatus::kRejected, 0);
    }
  }
  if (redo_writer_ != nullptr) {
    // Workers are joined: no commit can race the close record. A writer a
    // crash point killed stays frozen in its crash state (Close is dropped).
    redo_writer_->Close();
  }
  if (telemetry_ != nullptr) {
    // Takes the tail sample, joins the sampler and shuts the exposition
    // server; the sampled series stays readable (and flushable as JSONL)
    // for the runner's lifetime.
    telemetry_->Stop();
  }
  if (tracer_ != nullptr) {
    tracer_->Uninstall();
  }
  ResetHotspotPolicy();

  BenchResult result;
  result.per_op.resize(op_count);
  result.phases.resize(config_.scenario.has_value() ? phase_count : 0);
  for (size_t p = 0; p < phase_count; ++p) {
    const PhaseRuntime& phase = *phases_[p];
    const PhaseAccounting& acc = accounting_[p];
    PhaseResult scratch;
    PhaseResult& pr = p < result.phases.size() ? result.phases[p] : scratch;
    pr.name = phase.spec.name;
    pr.read_fraction = phase.read_fraction;
    pr.threads = phase.active_threads;
    pr.arrival = phase.spec.arrival;
    pr.target_rate = phase.spec.rate_ops_per_sec;
    pr.zipf_theta = phase.spec.zipf_theta;
    pr.hot_fraction = phase.spec.hot_fraction;
    pr.ratios = phase.ratios;
    pr.per_op.resize(op_count);
    for (int t = 0; t < spawn_threads_; ++t) {
      for (size_t i = 0; i < op_count; ++i) {
        pr.per_op[i].Merge(per_thread[t][p][i]);
      }
      pr.pace.Merge(per_thread_pace[t][p]);
    }
    for (size_t i = 0; i < op_count; ++i) {
      pr.total_success += pr.per_op[i].success;
      pr.total_started += pr.per_op[i].started();
      result.per_op[i].Merge(pr.per_op[i]);
    }
    pr.elapsed_seconds =
        acc.end_nanos > acc.start_nanos ? NanosToSeconds(acc.end_nanos - acc.start_nanos) : 0.0;
    pr.stm = StmStats::View::Subtract(acc.stm_end, acc.stm_begin);
    pr.hot_samples = acc.hot_end.samples - acc.hot_begin.samples;
    pr.hot_hits = acc.hot_end.hot_hits - acc.hot_begin.hot_hits;
    pr.hw = telemetry::HwSample::Delta(acc.hw_end, acc.hw_begin);
    if (tracer_ != nullptr) {
      pr.conflicts = tracer_->SummarizeWindow(acc.conflict_end, acc.conflict_begin, kConflictTopK);
    }
  }
  for (const OpMetrics& metrics : result.per_op) {
    result.total_success += metrics.success;
    result.total_started += metrics.started();
  }
  result.ratios = ratios_;
  result.elapsed_seconds = NanosToSeconds(end - start);
  if (Stm* stm = strategy_->stm()) {
    result.stm = stm->stats().Snapshot();
  }
  // Whole-run hardware window: first begun phase to last finished phase (a
  // global op cap can leave trailing phases that never began).
  for (auto it = accounting_.rbegin(); it != accounting_.rend(); ++it) {
    if (it->end_nanos != 0) {
      result.hw = telemetry::HwSample::Delta(it->hw_end, accounting_.front().hw_begin);
      break;
    }
  }
  if (tracer_ != nullptr) {
    result.traced = true;
    result.conflicts = tracer_->SummarizeWindow(tracer_->ConflictSnapshot(),
                                                trace::ConflictTable::Snapshot{}, kConflictTopK);
    result.latency_by_op = tracer_->LatencyByOp();
    result.trace_events_dropped = tracer_->TotalDropped();
  }
  EbrDomain::Global().Quiesce();
  EbrDomain::Global().TryReclaim();
  return result;
}

}  // namespace sb7
