#include "src/telemetry/telemetry.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "src/common/timing.h"
#include "src/ebr/ebr.h"

namespace sb7::telemetry {

Telemetry::Telemetry(TelemetryOptions options)
    : options_(options), ring_(options.series_capacity) {
  RegisterBuiltinMetrics();
}

Telemetry::~Telemetry() { Stop(); }

int64_t Telemetry::Now() {
  return options_.clock != nullptr ? options_.clock->NowNanos() : NowNanos();
}

void Telemetry::SetRunInfo(RunInfo info) {
  run_info_ = std::move(info);
  run_info_.interval_s = options_.interval_seconds;
}

void Telemetry::SetPhase(int index, const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    phase_name_ = name;
  }
  // mo: release — pairs with the sampler's acquire load so a sampler that
  // sees the new index also sees the new name (the name write precedes).
  phase_index_.store(index, std::memory_order_release);
}

void Telemetry::SetStmSource(std::function<StmStats::View()> source) {
  stm_source_ = std::move(source);
  registry_.AddProvider([this](std::vector<MetricPoint>& out) {
    if (!stm_source_) {
      return;
    }
    const StmStats::View view = stm_source_();
    view.ForEachField([&out](const char* name, int64_t value) {
      out.push_back({std::string("sb7_stm_") + name + "_total", "",
                     "StmStats counter (cumulative)", MetricKind::kCounter,
                     static_cast<double>(value)});
    });
  });
}

void Telemetry::SetTraceDroppedSource(std::function<int64_t()> source) {
  trace_dropped_source_ = std::move(source);
  registry_.AddCounter("sb7_trace_events_dropped_total",
                       "Trace events lost to ring overflow", [this]() {
                         return trace_dropped_source_ ? static_cast<double>(
                                                            trace_dropped_source_())
                                                      : 0.0;
                       });
}

void Telemetry::StartHw() {
  if (!options_.hw_counters) {
    hw_detail_ = "disabled by configuration";
    return;
  }
  std::string detail;
  if (!hw_.Start(&detail)) {
    hw_detail_ = detail;
  }
}

bool Telemetry::StartServer(std::string* error) {
  if (options_.metrics_port < 0) {
    return false;
  }
  server_.Handle("/metrics", "text/plain; version=0.0.4; charset=utf-8",
                 [this]() { return RenderPrometheus(); });
  server_.Handle("/series", "application/json",
                 [this]() { return RenderSeriesJson(); });
  return server_.Start(options_.metrics_port, error);
}

void Telemetry::Start() {
  {
    std::lock_guard<std::mutex> lock(sample_mutex_);
    t0_nanos_ = Now();
    started_ = true;
    next_seq_ = 0;
    prev_t_s_ = 0.0;
    prev_completed_ = 0;
    prev_latency_ = TtcHistogram();
  }
  if (!options_.background) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = false;
  }
  sampler_ = std::thread([this]() { SamplerLoop(); });
}

void Telemetry::SamplerLoop() {
  const auto interval = std::chrono::duration<double>(options_.interval_seconds);
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, interval, [this]() { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void Telemetry::Stop() {
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (!stop_requested_ && sampler_.joinable()) {
      stop_requested_ = true;
      was_running = true;
    }
  }
  if (was_running) {
    stop_cv_.notify_all();
  }
  if (sampler_.joinable()) {
    sampler_.join();
  }
  if (was_running && started_) {
    // Tail sample so short runs always leave at least one data point and
    // the series covers the run right up to shutdown.
    SampleNow();
    started_ = false;
  }
  server_.Stop();
  hw_.Stop();
}

void Telemetry::SampleNow() {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  Sample sample;
  sample.seq = next_seq_++;
  sample.t_s = static_cast<double>(Now() - t0_nanos_) / 1e9;
  sample.interval_s = sample.t_s - prev_t_s_;

  // mo: acquire — pairs with SetPhase's release so the name read below is
  // the one written with (or after) this index.
  sample.phase_index = phase_index_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> phase_lock(phase_mutex_);
    sample.phase = phase_name_;
  }

  // mo: relaxed — monotonic tallies; no cross-counter consistency needed.
  sample.completed = completed_.load(std::memory_order_relaxed);
  sample.failed = failed_.load(std::memory_order_relaxed);
  sample.started = sample.completed + sample.failed;
  if (sample.interval_s > 0) {
    sample.ops_per_s =
        static_cast<double>(sample.completed - prev_completed_) / sample.interval_s;
  }

  const TtcHistogram cumulative = latency_.Snapshot();
  const TtcHistogram window = TtcHistogram::Delta(cumulative, prev_latency_);
  sample.lat_count = window.total_count();
  sample.p50_ms = window.QuantileMillis(0.5);
  sample.p90_ms = window.QuantileMillis(0.9);
  sample.p99_ms = window.QuantileMillis(0.99);
  sample.p999_ms = window.QuantileMillis(0.999);
  sample.max_ms = static_cast<double>(cumulative.max_nanos()) / 1e6;

  if (stm_source_) {
    sample.has_stm = true;
    sample.stm = stm_source_();
  }
  if (trace_dropped_source_) {
    sample.trace_dropped = trace_dropped_source_();
  }
  sample.hw = hw_.Read();

  prev_t_s_ = sample.t_s;
  prev_completed_ = sample.completed;
  prev_latency_ = cumulative;
  ring_.Push(std::move(sample));
}

void Telemetry::RegisterBuiltinMetrics() {
  registry_.AddCounter("sb7_ops_completed_total", "Successfully completed operations",
                       [this]() {
                         // mo: relaxed — monotonic tally read for exposition.
                         return static_cast<double>(
                             completed_.load(std::memory_order_relaxed));
                       });
  registry_.AddCounter("sb7_ops_failed_total", "Operations that raised OperationFailed",
                       [this]() {
                         // mo: relaxed — monotonic tally read for exposition.
                         return static_cast<double>(failed_.load(std::memory_order_relaxed));
                       });
  registry_.AddGauge("sb7_phase_index", "Current scenario phase index (-1 before start)",
                     [this]() {
                       // mo: acquire — same pairing as SampleNow.
                       return static_cast<double>(
                           phase_index_.load(std::memory_order_acquire));
                     });
  // A flat epoch under a climbing pending count is an online thread that
  // stopped announcing and pins reclamation.
  registry_.AddGauge("sb7_ebr_pending", "Objects retired to EBR and not yet freed", []() {
    return static_cast<double>(EbrDomain::Global().PendingCount());
  });
  registry_.AddGauge("sb7_ebr_epoch", "EBR global epoch", []() {
    return static_cast<double>(EbrDomain::Global().global_epoch());
  });
  registry_.AddProvider([this](std::vector<MetricPoint>& out) {
    const TtcHistogram snapshot = latency_.Snapshot();
    const char* name = "sb7_latency_ms";
    const char* help = "Operation latency quantiles (cumulative), milliseconds";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
    for (const auto& [label, q] : quantiles) {
      out.push_back({name, std::string("q=\"") + label + "\"", help, MetricKind::kGauge,
                     snapshot.QuantileMillis(q)});
    }
    out.push_back({"sb7_latency_max_ms", "", "Max operation latency, milliseconds",
                   MetricKind::kGauge,
                   static_cast<double>(snapshot.max_nanos()) / 1e6});
  });
  registry_.AddProvider([this](std::vector<MetricPoint>& out) {
    const HwSample hw = hw_.Read();
    if (!hw.available) {
      return;
    }
    out.push_back({"sb7_hw_cycles_total", "", "CPU cycles (user, all worker threads)",
                   MetricKind::kCounter, static_cast<double>(hw.cycles)});
    out.push_back({"sb7_hw_instructions_total", "", "Retired instructions",
                   MetricKind::kCounter, static_cast<double>(hw.instructions)});
    out.push_back({"sb7_hw_llc_misses_total", "", "Last-level cache misses",
                   MetricKind::kCounter, static_cast<double>(hw.llc_misses)});
    out.push_back({"sb7_hw_stalled_cycles_total", "", "Backend-stalled cycles",
                   MetricKind::kCounter, static_cast<double>(hw.stalled_cycles)});
  });
  registry_.AddGauge("sb7_telemetry_samples", "Samples currently in the series ring",
                     [this]() { return static_cast<double>(ring_.size()); });
  registry_.AddCounter("sb7_telemetry_samples_dropped_total",
                       "Samples evicted from the series ring",
                       [this]() { return static_cast<double>(ring_.dropped()); });
  registry_.AddProvider([this](std::vector<MetricPoint>& out) {
    const std::string labels = "backend=" + MetricsRegistry::LabelValue(run_info_.backend) +
                               ",scenario=" +
                               MetricsRegistry::LabelValue(run_info_.scenario) +
                               ",scale=" + MetricsRegistry::LabelValue(run_info_.scale);
    out.push_back({"sb7_run_info", labels, "Run identity (value is always 1)",
                   MetricKind::kGauge, 1.0});
  });
}

void Telemetry::WriteJsonl(std::ostream& out) const {
  RunInfo info = run_info_;
  info.hw_available = hw_.available();
  WriteTelemetryJsonl(out, info, ring_.Snapshot(), ring_.dropped());
}

std::string Telemetry::RenderSeriesJson() const {
  const std::vector<Sample> samples = ring_.Snapshot();
  std::ostringstream out;
  out.precision(12);
  out << "{\"schema\": " << kTelemetrySchemaVersion << ", \"backend\": \""
      << run_info_.backend << "\", \"interval_s\": " << run_info_.interval_s
      << ", \"samples_dropped\": " << ring_.dropped() << ", \"samples\": [";
  for (size_t i = 0; i < samples.size(); ++i) {
    out << (i == 0 ? "" : ", ") << SampleToJson(samples[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace sb7::telemetry
