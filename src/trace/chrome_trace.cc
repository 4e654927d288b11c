#include "src/trace/chrome_trace.h"

#include <algorithm>
#include <cstdint>

#include "src/common/json_string.h"

namespace sb7::trace {
namespace {

// Reserved chrome://tracing color names (cname). Perfetto ignores unknown
// names gracefully, so these are a hint, not a contract.
const char* CauseColor(AbortCause cause) {
  switch (cause) {
    case AbortCause::kReadValidation:
      return "bad";
    case AbortCause::kWriteLock:
      return "terrible";
    case AbortCause::kKill:
      return "yellow";
    case AbortCause::kSnapshotTooOld:
      return "olive";
    case AbortCause::kUnknown:
      break;
  }
  return "grey";
}

std::string MicrosString(int64_t nanos) {
  // Fixed-point microseconds with nanosecond resolution; avoids float
  // formatting drift in golden tests.
  const int64_t micros = nanos / 1000;
  const int64_t frac = nanos % 1000;
  std::string text = std::to_string(micros);
  text.push_back('.');
  text.push_back(static_cast<char>('0' + frac / 100));
  text.push_back(static_cast<char>('0' + frac / 10 % 10));
  text.push_back(static_cast<char>('0' + frac % 10));
  return text;
}

class EventWriter {
 public:
  EventWriter(std::ostream& out, const ChromeTraceOptions& options)
      : out_(out), options_(options) {}

  void Emit(const std::string& body) {
    out_ << (first_ ? "\n  {" : ",\n  {") << body << "}";
    first_ = false;
  }

  std::string OpName(int16_t op) const {
    if (op >= 0 && static_cast<size_t>(op) < options_.op_names.size()) {
      return options_.op_names[op];
    }
    return "(no-op)";
  }

 private:
  std::ostream& out_;
  const ChromeTraceOptions& options_;
  bool first_ = true;
};

}  // namespace

void WriteChromeTrace(std::ostream& out, const std::vector<Tracer::ThreadStream>& streams,
                      const ChromeTraceOptions& options) {
  // Normalize timestamps to the earliest event so the timeline starts at 0.
  int64_t t0 = INT64_MAX;
  int64_t dropped = 0;
  for (const Tracer::ThreadStream& stream : streams) {
    dropped += stream.dropped;
    if (!stream.events.empty()) {
      t0 = std::min(t0, stream.events.front().nanos);
    }
  }
  if (t0 == INT64_MAX) {
    t0 = 0;
  }

  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  EventWriter writer(out, options);
  for (const Tracer::ThreadStream& stream : streams) {
    const std::string tid = std::to_string(stream.tid);
    writer.Emit("\"ph\": \"M\", \"pid\": 1, \"tid\": " + tid +
                ", \"name\": \"thread_name\", \"args\": {\"name\": \"worker-" + tid + "\"}");

    // Pending begin of the current attempt on this thread's track; spans
    // close at the matching commit/abort. A begin lost to ring overflow
    // orphans its closing event, which is then skipped.
    bool open = false;
    TraceEvent begin{};
    for (const TraceEvent& event : stream.events) {
      switch (event.kind) {
        case EventKind::kBegin:
          open = true;
          begin = event;
          break;
        case EventKind::kCommit:
        case EventKind::kAbort: {
          if (!open) {
            break;
          }
          open = false;
          const bool committed = event.kind == EventKind::kCommit;
          std::string name;
          if (committed) {
            name = writer.OpName(begin.op);
          } else {
            name = writer.OpName(begin.op);
            name += " abort:";
            name += AbortCauseName(event.cause);
          }
          std::string body = "\"ph\": \"X\", \"pid\": 1, \"tid\": " + tid +
                             ", \"ts\": " + MicrosString(begin.nanos - t0) +
                             ", \"dur\": " + MicrosString(event.nanos - begin.nanos) +
                             ", \"name\": " + JsonString(name);
          body += ", \"cat\": \"tx\", \"cname\": \"";
          body += committed ? "good" : CauseColor(event.cause);
          body += "\", \"args\": {\"op\": " + JsonString(writer.OpName(begin.op));
          body += ", \"outcome\": \"";
          body += committed ? "commit" : "abort";
          body += "\", \"retry\": " + std::to_string(event.arg);
          if (!committed) {
            body += ", \"cause\": \"";
            body += AbortCauseName(event.cause);
            body += "\"";
          }
          body += "}";
          writer.Emit(body);
          break;
        }
        case EventKind::kValidation:
          writer.Emit("\"ph\": \"i\", \"pid\": 1, \"tid\": " + tid +
                      ", \"ts\": " + MicrosString(event.nanos - t0) +
                      ", \"s\": \"t\", \"name\": \"validation\", \"cat\": \"tx\", "
                      "\"args\": {\"steps\": " +
                      std::to_string(event.arg) + "}");
          break;
        case EventKind::kBackoff:
          writer.Emit("\"ph\": \"i\", \"pid\": 1, \"tid\": " + tid +
                      ", \"ts\": " + MicrosString(event.nanos - t0) +
                      ", \"s\": \"t\", \"name\": \"backoff\", \"cat\": \"tx\", "
                      "\"args\": {\"attempt\": " +
                      std::to_string(event.arg) + "}");
          break;
      }
    }
  }
  out << "\n],\n\"otherData\": {\"tool\": \"stmbench7\", \"dropped_events\": " << dropped
      << "}\n}\n";
}

}  // namespace sb7::trace
