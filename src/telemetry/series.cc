#include "src/telemetry/series.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "src/common/diag.h"
#include "src/common/json_string.h"
#include "src/common/json.h"

namespace sb7::telemetry {

SeriesRing::SeriesRing(size_t capacity) : capacity_(capacity) {
  SB7_CHECK(capacity > 0);
}

void SeriesRing::Push(Sample sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.size() < capacity_) {
    samples_.push_back(std::move(sample));
    size_ = samples_.size();
    return;
  }
  samples_[start_] = std::move(sample);
  start_ = (start_ + 1) % capacity_;
  dropped_ += 1;
}

std::vector<Sample> SeriesRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(samples_[(start_ + i) % samples_.size()]);
  }
  return out;
}

size_t SeriesRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

int64_t SeriesRing::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string SampleToJson(const Sample& sample) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"kind\": \"sample\", \"seq\": " << sample.seq << ", \"t_s\": " << sample.t_s
      << ", \"interval_s\": " << sample.interval_s
      << ", \"phase_index\": " << sample.phase_index
      << ", \"phase\": " << JsonString(sample.phase) << ", \"started\": " << sample.started
      << ", \"completed\": " << sample.completed << ", \"failed\": " << sample.failed
      << ", \"ops_per_s\": " << sample.ops_per_s << ", \"latency_ms\": {\"count\": "
      << sample.lat_count << ", \"p50\": " << sample.p50_ms << ", \"p90\": " << sample.p90_ms
      << ", \"p99\": " << sample.p99_ms << ", \"p999\": " << sample.p999_ms
      << ", \"max\": " << sample.max_ms << "}";
  if (sample.has_stm) {
    out << ", \"stm\": {";
    bool first = true;
    sample.stm.ForEachField([&out, &first](const char* name, int64_t value) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    });
    out << "}";
  }
  out << ", \"trace_dropped\": " << sample.trace_dropped << "}";
  return out.str();
}

void WriteTelemetryJsonl(std::ostream& out, const RunInfo& info,
                         const std::vector<Sample>& samples, int64_t samples_dropped) {
  std::ostringstream header;
  header.precision(12);
  header << "{\"schema\": " << kTelemetrySchemaVersion
         << ", \"kind\": \"header\", \"tool\": \"stmbench7\", \"backend\": "
         << JsonString(info.backend) << ", \"scenario\": " << JsonString(info.scenario)
         << ", \"scale\": " << JsonString(info.scale) << ", \"threads\": " << info.threads
         << ", \"interval_s\": " << info.interval_s << ", \"stats_fields\": [";
  bool first = true;
  StmStats::View{}.ForEachField([&header, &first](const char* name, int64_t) {
    header << (first ? "" : ", ") << "\"" << name << "\"";
    first = false;
  });
  header << "]}";
  out << header.str() << "\n";
  for (const Sample& sample : samples) {
    out << SampleToJson(sample) << "\n";
  }
  out << "{\"kind\": \"footer\", \"samples\": " << samples.size()
      << ", \"samples_dropped\": " << samples_dropped << "}\n";
}

namespace {

std::string LineError(size_t line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

}  // namespace

std::string ValidateTelemetryJsonl(std::istream& in) {
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;
  bool saw_footer = false;
  int64_t samples = 0;
  int64_t prev_seq = -1;
  double prev_t = -1.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (saw_footer) {
      return LineError(line_no, "content after the footer record");
    }
    const JsonParseResult parsed = ParseJson(line);
    if (!parsed.error.empty()) {
      return LineError(line_no, "invalid JSON: " + parsed.error);
    }
    const JsonValue& record = parsed.value;
    if (!record.is_object()) {
      return LineError(line_no, "record is not an object");
    }
    const JsonValue* kind = record.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return LineError(line_no, "missing \"kind\"");
    }
    if (!saw_header) {
      if (kind->AsString() != "header") {
        return LineError(line_no, "first record must be the header");
      }
      const JsonValue* schema = record.Find("schema");
      if (schema == nullptr || !schema->is_number()) {
        return LineError(line_no, "header lacks a numeric \"schema\"");
      }
      const int version = static_cast<int>(schema->AsNumber());
      if (version < 1 || version > kTelemetrySchemaVersion) {
        return LineError(line_no, "unsupported schema version " + std::to_string(version));
      }
      for (const char* key : {"backend", "scenario", "scale"}) {
        const JsonValue* value = record.Find(key);
        if (value == nullptr || !value->is_string()) {
          return LineError(line_no, std::string("header lacks string \"") + key + "\"");
        }
      }
      for (const char* key : {"threads", "interval_s"}) {
        const JsonValue* value = record.Find(key);
        if (value == nullptr || !value->is_number()) {
          return LineError(line_no, std::string("header lacks numeric \"") + key + "\"");
        }
      }
      const JsonValue* fields = record.Find("stats_fields");
      if (fields == nullptr || !fields->is_array()) {
        return LineError(line_no, "header lacks the \"stats_fields\" array");
      }
      saw_header = true;
      continue;
    }
    if (kind->AsString() == "footer") {
      const JsonValue* count = record.Find("samples");
      if (count == nullptr || !count->is_number()) {
        return LineError(line_no, "footer lacks a numeric \"samples\"");
      }
      if (static_cast<int64_t>(count->AsNumber()) != samples) {
        return LineError(line_no, "footer sample count " +
                                      std::to_string(static_cast<int64_t>(count->AsNumber())) +
                                      " != " + std::to_string(samples) + " sample records");
      }
      if (const JsonValue* drops = record.Find("samples_dropped");
          drops == nullptr || !drops->is_number()) {
        return LineError(line_no, "footer lacks a numeric \"samples_dropped\"");
      }
      saw_footer = true;
      continue;
    }
    if (kind->AsString() != "sample") {
      return LineError(line_no, "unknown record kind \"" + kind->AsString() + "\"");
    }
    for (const char* key : {"seq", "t_s", "interval_s", "phase_index", "started",
                            "completed", "failed", "ops_per_s", "trace_dropped"}) {
      const JsonValue* value = record.Find(key);
      if (value == nullptr || !value->is_number()) {
        return LineError(line_no, std::string("sample lacks numeric \"") + key + "\"");
      }
    }
    const JsonValue* latency = record.Find("latency_ms");
    if (latency == nullptr || !latency->is_object()) {
      return LineError(line_no, "sample lacks the \"latency_ms\" object");
    }
    for (const char* key : {"count", "p50", "p90", "p99", "p999", "max"}) {
      const JsonValue* value = latency->Find(key);
      if (value == nullptr || !value->is_number()) {
        return LineError(line_no, std::string("latency_ms lacks numeric \"") + key + "\"");
      }
    }
    const auto seq = static_cast<int64_t>(record.Find("seq")->AsNumber());
    const double t_s = record.Find("t_s")->AsNumber();
    if (seq <= prev_seq) {
      return LineError(line_no, "seq not strictly increasing");
    }
    if (t_s < prev_t) {
      return LineError(line_no, "t_s decreased");
    }
    prev_seq = seq;
    prev_t = t_s;
    ++samples;
  }
  if (!saw_header) {
    return "empty stream: no header record";
  }
  if (!saw_footer) {
    return "truncated stream: no footer record";
  }
  return "";
}

}  // namespace sb7::telemetry
