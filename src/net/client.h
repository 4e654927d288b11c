// Load-generator client for served runs (stmbench7 --connect): the remote
// counterpart of the scenario engine's arrival models. Each connection runs
// its own thread speaking the wire.h protocol; the arrival process is either
// closed-loop (next request after the previous response) or open-loop
// Poisson / bursty, paced by the driver's ArrivalSchedule so a
// `--arrival poisson --rate R` client run is directly comparable to the
// same in-process scenario phase. Open-loop latency is the full sojourn
// time (scheduled arrival → response), so server-side queueing shows up in
// the percentiles the way the paper's open-loop analysis expects.

#ifndef STMBENCH7_SRC_NET_CLIENT_H_
#define STMBENCH7_SRC_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/metrics.h"
#include "src/scenario/scenario.h"

namespace sb7::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 1;
  double seconds = 5.0;

  ArrivalModel arrival = ArrivalModel::kClosed;
  /// Aggregate target rate across all connections (open-loop models only).
  double rate_ops_per_sec = 1000.0;
  int burst_size = 32;

  /// Operation mix, parallel to the server's registry (ComputeOperationRatios
  /// output). Its size must equal the op_count the server advertises.
  std::vector<double> ratios;

  uint64_t seed = 20070326;
  /// Total request budget across connections; -1 = until `seconds` elapse.
  int64_t max_ops = -1;
};

struct ClientResult {
  std::string error;  ///< non-empty = the run failed to start or mid-flight
  double elapsed_seconds = 0.0;

  int64_t sent = 0;
  int64_t ok = 0;
  int64_t op_failed = 0;
  int64_t rejected = 0;  ///< typed backpressure responses
  int64_t bad = 0;       ///< kBadRequest responses (should be zero)
  int64_t lost = 0;      ///< sent but never answered (drain deadline hit)

  /// End-to-end latency of answered requests: send→response for closed
  /// loop, scheduled-arrival→response (sojourn) for open loop.
  TtcHistogram latency;
  /// Server-reported execute latency (the wire's server_nanos field);
  /// latency minus this is wire + queueing overhead.
  TtcHistogram server_latency;
  /// Client-side pacing accounting (open-loop models only).
  PaceMetrics pace;

  bool Ok() const { return error.empty(); }
  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(ok + op_failed) / elapsed_seconds : 0.0;
  }
};

/// Runs the load client to completion (blocks). Thread-per-connection;
/// the result merges all connections.
ClientResult RunLoadClient(const ClientOptions& options);

}  // namespace sb7::net

#endif  // STMBENCH7_SRC_NET_CLIENT_H_
