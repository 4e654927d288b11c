#include "src/net/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/timing.h"
#include "src/harness/workload.h"
#include "src/net/net.h"
#include "src/net/wire.h"

namespace sb7::net {

namespace {

/// Sleep granularity while waiting for a scheduled arrival.
constexpr int64_t kPaceSleepNanos = 200'000;

/// Per-I/O deadline (handshake, sends, final response drain).
constexpr int kIoTimeoutMs = 5000;

struct ConnState {
  ClientResult result;
  /// request_id → reference nanos (send time for closed loop, scheduled
  /// arrival for open loop) for every unanswered request.
  std::unordered_map<uint64_t, int64_t> outstanding;
  std::string inbuf;
};

/// Reads one whole frame (header + payload) with the remaining budget.
bool ReadFrame(int fd, std::string* payload, int timeout_ms) {
  unsigned char header[4];
  if (!ReadFull(fd, header, sizeof(header), timeout_ms)) {
    return false;
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (length > kMaxFrameBytes) {
    return false;
  }
  payload->resize(length);
  return length == 0 || ReadFull(fd, payload->data(), length, timeout_ms);
}

void CountResponse(ConnState& state, const OpResponse& response,
                   int64_t now_nanos) {
  auto it = state.outstanding.find(response.request_id);
  if (it == state.outstanding.end()) {
    return;  // duplicate or unknown id; nothing sane to account it to
  }
  const int64_t reference = it->second;
  state.outstanding.erase(it);
  switch (response.status) {
    case Status::kOk:
      ++state.result.ok;
      break;
    case Status::kOpFailed:
      ++state.result.op_failed;
      break;
    case Status::kRejected:
      ++state.result.rejected;
      return;  // rejected: no latency sample — it was never executed
    case Status::kBadRequest:
      ++state.result.bad;
      return;
  }
  const int64_t latency = now_nanos - reference;
  state.result.latency.Record(latency > 0 ? latency : 0);
  state.result.server_latency.Record(response.server_nanos);
}

/// Drains whatever response bytes are available without blocking.
/// Returns false on a dead connection.
bool DrainResponses(int fd, ConnState& state) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ReadSome(fd, buffer, sizeof(buffer));
    if (n > 0) {
      state.inbuf.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;  // EOF or hard error
  }
  std::string payload;
  for (;;) {
    const FrameStatus status = TryExtractFrame(&state.inbuf, &payload);
    if (status == FrameStatus::kNeedMore) {
      return true;
    }
    if (status == FrameStatus::kTooLarge) {
      return false;
    }
    OpResponse response;
    if (DecodeResponse(payload, &response)) {
      CountResponse(state, response, NowNanos());
    }
  }
}

void RunConnection(const ClientOptions& options, int64_t op_budget, Rng rng,
                   ConnState& state) {
  ConnectResult conn = ConnectTcp(options.host, options.port);
  if (!conn.ok()) {
    state.result.error = conn.error;
    return;
  }
  const int fd = conn.fd.get();
  // Non-blocking end to end: every wait below goes through the poll-based
  // deadline helpers, so a dead server times out instead of hanging.
  if (!SetNonBlocking(fd)) {
    state.result.error = "fcntl(O_NONBLOCK) failed";
    return;
  }

  std::string frame;
  AppendFrame(&frame, EncodeHello(Hello{}));
  if (!WriteAll(fd, frame, kIoTimeoutMs)) {
    state.result.error = "handshake write failed";
    return;
  }
  std::string payload;
  if (!ReadFrame(fd, &payload, kIoTimeoutMs)) {
    state.result.error = "handshake read failed";
    return;
  }
  HelloAck ack;
  if (!DecodeHelloAck(payload, &ack) || ack.version != kWireVersion) {
    state.result.error = "handshake rejected (version mismatch?)";
    return;
  }
  if (static_cast<size_t>(ack.op_count) != options.ratios.size()) {
    state.result.error = "operation registry size mismatch with server";
    return;
  }

  const bool open_loop = options.arrival != ArrivalModel::kClosed;
  const int64_t start = NowNanos();
  const int64_t deadline =
      start + static_cast<int64_t>(options.seconds * 1e9);
  ArrivalSchedule schedule;
  if (open_loop) {
    schedule.Start(options.arrival,
                   options.rate_ops_per_sec / std::max(1, options.connections),
                   options.burst_size, start, rng);
  }
  uint64_t next_id = 1;

  while (NowNanos() < deadline &&
         (op_budget < 0 || state.result.sent < op_budget)) {
    int64_t reference;
    if (open_loop) {
      const int64_t arrival = schedule.Next(rng);
      int64_t now;
      bool expired = false;
      while ((now = NowNanos()) < arrival) {
        if (now >= deadline) {
          expired = true;
          break;
        }
        // Use the wait to keep the response pipe drained.
        if (!DrainResponses(fd, state)) {
          state.result.error = "connection lost mid-run";
          return;
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min(arrival - now, kPaceSleepNanos)));
      }
      if (expired) {
        break;
      }
      RecordArrivalDelay(state.result.pace, NowNanos() - arrival, schedule.rate());
      reference = arrival;  // sojourn time: scheduled arrival → response
    } else {
      reference = NowNanos();  // service time: send → response
    }

    OpRequest request;
    request.request_id = next_id++;
    request.op_index =
        static_cast<uint16_t>(SampleOperation(options.ratios, rng));
    frame.clear();
    AppendFrame(&frame, EncodeRequest(request));
    if (!WriteAll(fd, frame, kIoTimeoutMs)) {
      state.result.error = "request write failed";
      return;
    }
    state.outstanding[request.request_id] = reference;
    ++state.result.sent;

    if (open_loop) {
      if (!DrainResponses(fd, state)) {
        state.result.error = "connection lost mid-run";
        return;
      }
    } else {
      // Closed loop: block (deadline-bounded) until this request's
      // response arrives before issuing the next one.
      while (!state.outstanding.empty()) {
        if (!ReadFrame(fd, &payload, kIoTimeoutMs)) {
          state.result.error = "response read failed";
          return;
        }
        OpResponse response;
        if (DecodeResponse(payload, &response)) {
          CountResponse(state, response, NowNanos());
        }
      }
    }
  }

  // Final drain: give in-flight requests one I/O timeout to come home;
  // whatever is still unanswered counts as lost.
  const int64_t drain_deadline =
      NowNanos() + static_cast<int64_t>(kIoTimeoutMs) * 1'000'000;
  while (!state.outstanding.empty() && NowNanos() < drain_deadline) {
    if (!ReadFrame(fd, &payload, 50)) {
      if (!DrainResponses(fd, state)) {
        break;
      }
      continue;
    }
    OpResponse response;
    if (DecodeResponse(payload, &response)) {
      CountResponse(state, response, NowNanos());
    }
  }
  state.result.lost = static_cast<int64_t>(state.outstanding.size());
  state.result.elapsed_seconds =
      static_cast<double>(NowNanos() - start) / 1e9;
}

}  // namespace

ClientResult RunLoadClient(const ClientOptions& options) {
  ClientResult merged;
  if (options.connections < 1) {
    merged.error = "connections must be >= 1";
    return merged;
  }
  if (options.ratios.empty()) {
    merged.error = "empty operation mix";
    return merged;
  }

  const int conns = options.connections;
  std::vector<ConnState> states(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  Rng seeder(options.seed ^ 0xc1ee75e5b7ull);
  for (int c = 0; c < conns; ++c) {
    // Split the total budget across connections; the first few absorb the
    // remainder so the sum is exact.
    int64_t budget = -1;
    if (options.max_ops >= 0) {
      budget = options.max_ops / conns + (c < options.max_ops % conns ? 1 : 0);
    }
    Rng rng = seeder.Split();
    threads.emplace_back([&options, budget, rng, &states, c]() mutable {
      RunConnection(options, budget, rng, states[c]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (ConnState& state : states) {
    if (!state.result.Ok() && merged.error.empty()) {
      merged.error = state.result.error;
    }
    merged.sent += state.result.sent;
    merged.ok += state.result.ok;
    merged.op_failed += state.result.op_failed;
    merged.rejected += state.result.rejected;
    merged.bad += state.result.bad;
    merged.lost += state.result.lost;
    merged.latency.Merge(state.result.latency);
    merged.server_latency.Merge(state.result.server_latency);
    merged.pace.Merge(state.result.pace);
    merged.elapsed_seconds =
        std::max(merged.elapsed_seconds, state.result.elapsed_seconds);
  }
  return merged;
}

}  // namespace sb7::net
