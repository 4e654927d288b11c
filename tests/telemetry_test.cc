// Tests for the live telemetry subsystem (src/telemetry/):
//  - ConcurrentTtcHistogram agreeing with serial recording under concurrent
//    producers, and TtcHistogram merge/delta correctness (the sampler's
//    window math),
//  - the metrics registry's Prometheus rendering,
//  - sampler determinism under the paused ManualClock seam (background off,
//    exact t_s / ops_per_s / seq),
//  - SeriesRing drop-oldest accounting,
//  - the JSONL artifact round-tripping through its own validator, and the
//    validator rejecting corrupted streams,
//  - the HTTP exposition endpoint on an ephemeral port (/metrics text,
//    /series JSON, 404),
//  - hardware-counter graceful degradation,
//  - an end-to-end driver run with telemetry enabled.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/harness/driver.h"
#include "src/perf/json.h"
#include "src/telemetry/telemetry.h"

namespace sb7 {
namespace {

using telemetry::HwSample;
using telemetry::ManualClock;
using telemetry::MetricsHttpServer;
using telemetry::MetricsRegistry;
using telemetry::RunInfo;
using telemetry::Sample;
using telemetry::SeriesRing;
using telemetry::Telemetry;
using telemetry::TelemetryOptions;

constexpr int64_t kMs = 1'000'000;  // nanos per millisecond

// ---------------------------------------------------- concurrent histogram --

TEST(ConcurrentHistogramTest, SnapshotMatchesSerialRecording) {
  ConcurrentTtcHistogram concurrent(100);
  TtcHistogram serial(100);

  // Deterministic per-thread latency streams; every value also recorded
  // serially so the two histograms should agree bucket-for-bucket.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<int64_t>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      streams[t].push_back(((t * 131 + i * 17) % 900) * kMs + i % 997);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &streams, t] {
      for (int64_t nanos : streams[t]) concurrent.Record(nanos);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& stream : streams) {
    for (int64_t nanos : stream) serial.Record(nanos);
  }

  const TtcHistogram snapshot = concurrent.Snapshot();
  EXPECT_EQ(snapshot.total_count(), serial.total_count());
  EXPECT_EQ(snapshot.sum_nanos(), serial.sum_nanos());
  EXPECT_EQ(snapshot.max_nanos(), serial.max_nanos());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(snapshot.QuantileMillis(q), serial.QuantileMillis(q)) << "q=" << q;
  }
  EXPECT_EQ(snapshot.Format(), serial.Format());
}

TEST(ConcurrentHistogramTest, SnapshotWhileRecordingStaysConsistent) {
  ConcurrentTtcHistogram histogram(100);
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      histogram.Record((i++ % 50) * kMs);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const TtcHistogram snapshot = histogram.Snapshot();
    // total is derived from bucket counts, so a quantile can never land
    // outside the recorded range even mid-record.
    EXPECT_GE(snapshot.QuantileMillis(1.0), snapshot.QuantileMillis(0.5));
    EXPECT_LE(snapshot.QuantileMillis(1.0),
              static_cast<double>(snapshot.max_nanos()) / kMs + 1.0);
  }
  stop.store(true, std::memory_order_relaxed);
  recorder.join();
}

// -------------------------------------------------------- merge and delta --

TEST(HistogramMergeTest, MergedQuantilesMatchSingleHistogram) {
  TtcHistogram a(100);
  TtcHistogram b(100);
  TtcHistogram whole(100);
  for (int i = 0; i < 600; ++i) {
    const int64_t nanos = (i % 80) * kMs + 250'000;
    a.Record(nanos);
    whole.Record(nanos);
  }
  for (int i = 0; i < 400; ++i) {
    const int64_t nanos = (i % 95) * kMs + 750'000;
    b.Record(nanos);
    whole.Record(nanos);
  }
  a.Merge(b);
  EXPECT_EQ(a.total_count(), whole.total_count());
  EXPECT_EQ(a.sum_nanos(), whole.sum_nanos());
  EXPECT_EQ(a.max_nanos(), whole.max_nanos());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.QuantileMillis(q), whole.QuantileMillis(q)) << "q=" << q;
  }
}

TEST(HistogramMergeTest, MergingEmptyIsIdentity) {
  TtcHistogram a(100);
  TtcHistogram empty(100);
  a.Record(5 * kMs);
  a.Record(7 * kMs);
  const double p50_before = a.QuantileMillis(0.5);
  a.Merge(empty);
  EXPECT_EQ(a.total_count(), 2);
  EXPECT_DOUBLE_EQ(a.QuantileMillis(0.5), p50_before);

  // And merging into an empty histogram adopts the other side wholesale.
  TtcHistogram target(100);
  target.Merge(a);
  EXPECT_EQ(target.total_count(), 2);
  EXPECT_EQ(target.max_nanos(), a.max_nanos());
  EXPECT_DOUBLE_EQ(target.QuantileMillis(0.5), p50_before);
}

TEST(HistogramMergeTest, OverflowBucketsSurviveMerge) {
  TtcHistogram a(100);
  TtcHistogram b(100);
  // Values past the linear range land in geometric buckets: 100 ms linear
  // range, so 150 ms is in the first overflow bucket, 350 ms in the second.
  a.Record(150 * kMs);
  b.Record(350 * kMs);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 2);
  EXPECT_EQ(a.max_nanos(), 350 * kMs);
  // p100 clamps to the recorded max, not the open-ended bucket bound.
  EXPECT_DOUBLE_EQ(a.QuantileMillis(1.0), 350.0);
  EXPECT_GE(a.QuantileMillis(0.25), 100.0);  // first value is in overflow too
}

TEST(HistogramDeltaTest, DeltaIsolatesTheWindow) {
  TtcHistogram begin(100);
  for (int i = 0; i < 100; ++i) begin.Record(10 * kMs);
  TtcHistogram end = begin;
  for (int i = 0; i < 50; ++i) end.Record(40 * kMs);

  const TtcHistogram window = TtcHistogram::Delta(end, begin);
  EXPECT_EQ(window.total_count(), 50);
  // Every record in the window was 40 ms; the interpolated quantiles stay in
  // that bucket.
  EXPECT_GE(window.QuantileMillis(0.5), 40.0);
  EXPECT_LT(window.QuantileMillis(0.5), 41.0);
  // max carries over from `end` (cumulative), not the window.
  EXPECT_EQ(window.max_nanos(), end.max_nanos());
}

TEST(HistogramDeltaTest, EmptyWindowDeltaIsEmpty) {
  TtcHistogram begin(100);
  begin.Record(3 * kMs);
  const TtcHistogram window = TtcHistogram::Delta(begin, begin);
  EXPECT_EQ(window.total_count(), 0);
  EXPECT_DOUBLE_EQ(window.QuantileMillis(0.5), 0.0);
}

// ----------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, RendersPrometheusTextFormat) {
  MetricsRegistry registry;
  registry.AddCounter("sb7_test_ops_total", "Operations", [] { return 42.0; });
  registry.AddGauge("sb7_test_depth", "Queue depth", [] { return 7.5; });
  registry.AddProvider([](std::vector<telemetry::MetricPoint>& out) {
    out.push_back({"sb7_test_labeled", "op=\"T1\"", "Labeled point",
                   telemetry::MetricKind::kGauge, 1.0});
  });

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP sb7_test_ops_total Operations\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sb7_test_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("sb7_test_ops_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sb7_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sb7_test_depth 7.5\n"), std::string::npos);
  EXPECT_NE(text.find("sb7_test_labeled{op=\"T1\"} 1\n"), std::string::npos);
}

TEST(MetricsRegistryTest, LabelValueEscapesTheExpositionSet) {
  EXPECT_EQ(MetricsRegistry::LabelValue("plain"), "\"plain\"");
  EXPECT_EQ(MetricsRegistry::LabelValue("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(MetricsRegistry::LabelValue("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(MetricsRegistry::LabelValue("a\nb"), "\"a\\nb\"");
}

// ------------------------------------------------------------- series ring --

TEST(SeriesRingTest, DropsOldestWhenFullAndCountsDrops) {
  SeriesRing ring(3);
  for (int i = 0; i < 5; ++i) {
    Sample sample;
    sample.seq = i;
    ring.Push(sample);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2);
  const std::vector<Sample> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].seq, 2);  // oldest first, oldest two dropped
  EXPECT_EQ(kept[1].seq, 3);
  EXPECT_EQ(kept[2].seq, 4);
}

// ------------------------------------------------------ sampler determinism --

// Builds a facade in manual mode: no sampler thread, no hardware counters,
// time advanced only by the test.
std::unique_ptr<Telemetry> ManualTelemetry(ManualClock* clock) {
  TelemetryOptions options;
  options.background = false;
  options.hw_counters = false;
  options.clock = clock;
  options.interval_seconds = 1.0;
  return std::make_unique<Telemetry>(options);
}

TEST(TelemetrySamplerTest, ManualClockMakesSamplesDeterministic) {
  ManualClock clock;
  auto telemetry = ManualTelemetry(&clock);
  RunInfo info;
  info.backend = "tl2";
  info.scenario = "-";
  info.scale = "tiny";
  info.threads = 2;
  info.interval_s = 1.0;
  telemetry->SetRunInfo(info);
  telemetry->SetPhase(0, "measure");
  telemetry->Start();

  for (int i = 0; i < 10; ++i) telemetry->RecordOp(true, 2 * kMs);
  telemetry->RecordOp(false, 0);
  clock.AdvanceSeconds(1.0);
  telemetry->SampleNow();

  for (int i = 0; i < 30; ++i) telemetry->RecordOp(true, 4 * kMs);
  clock.AdvanceSeconds(2.0);
  telemetry->SampleNow();

  const std::vector<Sample> series = telemetry->SeriesSnapshot();
  ASSERT_EQ(series.size(), 2u);

  EXPECT_EQ(series[0].seq, 0);
  EXPECT_DOUBLE_EQ(series[0].t_s, 1.0);
  EXPECT_DOUBLE_EQ(series[0].interval_s, 1.0);
  EXPECT_EQ(series[0].completed, 10);
  EXPECT_EQ(series[0].failed, 1);
  EXPECT_DOUBLE_EQ(series[0].ops_per_s, 10.0);
  EXPECT_EQ(series[0].lat_count, 10);
  EXPECT_EQ(series[0].phase_index, 0);
  EXPECT_EQ(series[0].phase, "measure");
  // All window latencies were 2 ms: the interpolated p50 stays in-bucket.
  EXPECT_GE(series[0].p50_ms, 2.0);
  EXPECT_LT(series[0].p50_ms, 3.0);

  EXPECT_EQ(series[1].seq, 1);
  EXPECT_DOUBLE_EQ(series[1].t_s, 3.0);
  EXPECT_DOUBLE_EQ(series[1].interval_s, 2.0);
  EXPECT_EQ(series[1].completed, 40);  // cumulative
  EXPECT_DOUBLE_EQ(series[1].ops_per_s, 15.0);  // 30 ops over 2 s
  EXPECT_EQ(series[1].lat_count, 30);  // window-only count
  EXPECT_GE(series[1].p50_ms, 4.0);

  // Two identical runs produce identical series — the determinism the
  // ManualClock seam exists for.
  ManualClock clock2;
  auto replay = ManualTelemetry(&clock2);
  replay->SetRunInfo(info);
  replay->SetPhase(0, "measure");
  replay->Start();
  for (int i = 0; i < 10; ++i) replay->RecordOp(true, 2 * kMs);
  replay->RecordOp(false, 0);
  clock2.AdvanceSeconds(1.0);
  replay->SampleNow();
  for (int i = 0; i < 30; ++i) replay->RecordOp(true, 4 * kMs);
  clock2.AdvanceSeconds(2.0);
  replay->SampleNow();
  const std::vector<Sample> series2 = replay->SeriesSnapshot();
  ASSERT_EQ(series2.size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(telemetry::SampleToJson(series2[i]), telemetry::SampleToJson(series[i]));
  }
}

// ------------------------------------------------------------------- JSONL --

TEST(TelemetryJsonlTest, WriteValidateRoundTrip) {
  ManualClock clock;
  auto telemetry = ManualTelemetry(&clock);
  RunInfo info;
  info.backend = "coarse";
  info.scenario = "-";
  info.scale = "tiny";
  info.threads = 1;
  info.interval_s = 0.5;
  telemetry->SetRunInfo(info);
  telemetry->Start();
  for (int tick = 0; tick < 4; ++tick) {
    for (int i = 0; i < 5; ++i) telemetry->RecordOp(true, (tick + 1) * kMs);
    clock.AdvanceSeconds(0.5);
    telemetry->SampleNow();
  }

  std::ostringstream out;
  telemetry->WriteJsonl(out);
  const std::string jsonl = out.str();

  // Header, four samples, footer.
  std::istringstream in(jsonl);
  EXPECT_EQ(telemetry::ValidateTelemetryJsonl(in), "");

  // Every line is also standalone-parseable JSON with the expected kinds.
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(lines, line)) {
    const perf::JsonParseResult parsed = perf::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error << " in: " << line;
    const perf::JsonValue* kind = parsed.value.Find("kind");
    if (kind != nullptr) {
      kinds.push_back(kind->AsString());
    } else {
      // The first line carries schema/tool instead of a kind-only marker.
      EXPECT_NE(parsed.value.Find("schema"), nullptr);
      kinds.push_back("header");
    }
  }
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds.front(), "header");
  EXPECT_EQ(kinds.back(), "footer");
  for (size_t i = 1; i + 1 < kinds.size(); ++i) EXPECT_EQ(kinds[i], "sample");
}

TEST(TelemetryJsonlTest, ValidatorRejectsCorruptedStreams) {
  ManualClock clock;
  auto telemetry = ManualTelemetry(&clock);
  RunInfo info;
  info.backend = "coarse";
  info.scale = "tiny";
  info.threads = 1;
  telemetry->SetRunInfo(info);
  telemetry->Start();
  for (int tick = 0; tick < 2; ++tick) {
    telemetry->RecordOp(true, kMs);
    clock.AdvanceSeconds(1.0);
    telemetry->SampleNow();
  }
  std::ostringstream out;
  telemetry->WriteJsonl(out);
  const std::string good = out.str();

  {  // empty stream
    std::istringstream in("");
    EXPECT_NE(telemetry::ValidateTelemetryJsonl(in), "");
  }
  {  // missing header
    const std::string body = good.substr(good.find('\n') + 1);
    std::istringstream in(body);
    EXPECT_NE(telemetry::ValidateTelemetryJsonl(in), "");
  }
  {  // truncated: footer gone
    const std::string truncated = good.substr(0, good.rfind('\n', good.size() - 2) + 1);
    std::istringstream in(truncated);
    EXPECT_NE(telemetry::ValidateTelemetryJsonl(in), "");
  }
  {  // malformed JSON mid-stream
    std::string broken = good;
    const size_t pos = broken.find("\"kind\": \"sample\"");
    ASSERT_NE(pos, std::string::npos);
    broken[pos] = '!';
    std::istringstream in(broken);
    EXPECT_NE(telemetry::ValidateTelemetryJsonl(in), "");
  }
  {  // future schema version
    std::string future = good;
    const size_t pos = future.find("\"schema\": 1");
    ASSERT_NE(pos, std::string::npos);
    future.replace(pos, std::strlen("\"schema\": 1"), "\"schema\": 99");
    std::istringstream in(future);
    EXPECT_NE(telemetry::ValidateTelemetryJsonl(in), "");
  }
}

// -------------------------------------------------------------- HTTP server --

// One blocking HTTP/1.0 GET against localhost; returns the raw response.
std::string HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(MetricsEndpointTest, ServesMetricsSeriesAnd404) {
  ManualClock clock;
  TelemetryOptions options;
  options.background = false;
  options.hw_counters = false;
  options.clock = &clock;
  options.metrics_port = 0;  // ephemeral
  Telemetry telemetry(options);
  RunInfo info;
  info.backend = "tl2";
  info.scenario = "-";
  info.scale = "tiny";
  info.threads = 2;
  telemetry.SetRunInfo(info);
  std::string error;
  ASSERT_TRUE(telemetry.StartServer(&error)) << error;
  ASSERT_TRUE(telemetry.server_running());
  const int port = telemetry.server_port();
  ASSERT_GT(port, 0);

  telemetry.Start();
  for (int i = 0; i < 25; ++i) telemetry.RecordOp(true, 3 * kMs);
  clock.AdvanceSeconds(1.0);
  telemetry.SampleNow();

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("sb7_ops_completed_total 25"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sb7_ops_completed_total counter"), std::string::npos);
  EXPECT_NE(metrics.find("backend=\"tl2\""), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sb7_ebr_pending gauge"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sb7_ebr_epoch gauge"), std::string::npos);

  const std::string series_response = HttpGet(port, "/series");
  EXPECT_NE(series_response.find("200 OK"), std::string::npos);
  const size_t body_at = series_response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const perf::JsonParseResult parsed = perf::ParseJson(series_response.substr(body_at + 4));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const perf::JsonValue* samples = parsed.value.Find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->Items().size(), 1u);
  EXPECT_DOUBLE_EQ(samples->Items()[0].Find("completed")->AsNumber(), 25.0);

  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  telemetry.Stop();
  EXPECT_FALSE(telemetry.server_running());
}

// Connects a raw blocking socket to localhost:`port`; -1 on failure.
int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// One blocking HTTP/1.0 request with an arbitrary method; raw response.
std::string HttpRequest(int port, const std::string& method, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string request = method + " " + path + " HTTP/1.0\r\n\r\n";
  (void)!write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// Parses the Content-Length header out of a raw response; -1 when absent.
long ContentLength(const std::string& response) {
  const std::string key = "Content-Length: ";
  const size_t at = response.find(key);
  if (at == std::string::npos) return -1;
  return std::stol(response.substr(at + key.size()));
}

// Builds a started telemetry facade with one recorded sample, serving on an
// ephemeral port — the shared fixture for the endpoint-robustness tests.
struct ServingTelemetry {
  ManualClock clock;
  std::unique_ptr<Telemetry> telemetry;
  int port = -1;

  ServingTelemetry() {
    TelemetryOptions options;
    options.background = false;
    options.hw_counters = false;
    options.clock = &clock;
    options.metrics_port = 0;
    telemetry = std::make_unique<Telemetry>(options);
    RunInfo info;
    info.backend = "tl2";
    info.scale = "tiny";
    info.threads = 2;
    telemetry->SetRunInfo(info);
    std::string error;
    if (!telemetry->StartServer(&error)) return;
    port = telemetry->server_port();
    telemetry->Start();
    for (int i = 0; i < 10; ++i) telemetry->RecordOp(true, 2 * kMs);
    clock.AdvanceSeconds(1.0);
    telemetry->SampleNow();
  }
};

TEST(MetricsEndpointTest, HeadAdvertisesTheGetBodyLength) {
  ServingTelemetry serving;
  ASSERT_GT(serving.port, 0);

  for (const std::string path : {"/metrics", "/series"}) {
    const std::string get = HttpRequest(serving.port, "GET", path);
    const std::string head = HttpRequest(serving.port, "HEAD", path);
    ASSERT_NE(get.find("200 OK"), std::string::npos) << path;
    ASSERT_NE(head.find("200 OK"), std::string::npos) << path;

    const size_t body_at = get.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const long body_size = static_cast<long>(get.size() - body_at - 4);
    EXPECT_EQ(ContentLength(get), body_size) << path;

    // The regression: HEAD used to advertise the empty body it sent
    // (Content-Length: 0) instead of the length the GET body would have.
    EXPECT_EQ(ContentLength(head), body_size) << path;
    EXPECT_GT(ContentLength(head), 0) << path;
    // ... while sending no body bytes at all.
    const size_t head_body_at = head.find("\r\n\r\n");
    ASSERT_NE(head_body_at, std::string::npos);
    EXPECT_EQ(head.size(), head_body_at + 4) << path;
  }
  serving.telemetry->Stop();
}

TEST(MetricsEndpointTest, SurvivesAScraperDisconnectStorm) {
  ServingTelemetry serving;
  ASSERT_GT(serving.port, 0);

  // Each client sends a scrape and slams the connection shut without
  // reading: the server's response write hits a dead peer every time. With
  // a plain send() this raises SIGPIPE and kills the process (the original
  // bug); with MSG_NOSIGNAL it is just a failed write on a doomed socket.
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  for (int i = 0; i < 50; ++i) {
    const int fd = ConnectLoopback(serving.port);
    ASSERT_GE(fd, 0);
    (void)!write(fd, request.data(), request.size());
    struct linger hard_close = {1, 0};  // RST on close: the rudest disconnect
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
    close(fd);
  }

  // The endpoint (and the process) is still alive and serving.
  const std::string after = HttpGet(serving.port, "/metrics");
  EXPECT_NE(after.find("200 OK"), std::string::npos);
  EXPECT_NE(after.find("sb7_ops_completed_total"), std::string::npos);
  serving.telemetry->Stop();
}

TEST(MetricsEndpointTest, SlowClientDoesNotBlockConcurrentScrapes) {
  ServingTelemetry serving;
  ASSERT_GT(serving.port, 0);

  // A client that connects, dribbles half a request line and stalls. It
  // owns one handler thread for the I/O budget — the accept loop and other
  // scrapers must not wait behind it.
  const int slow = ConnectLoopback(serving.port);
  ASSERT_GE(slow, 0);
  const std::string partial = "GET /met";
  (void)!write(slow, partial.data(), partial.size());

  const auto start = std::chrono::steady_clock::now();
  const std::string metrics = HttpGet(serving.port, "/metrics");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  // Well under the 2 s per-connection I/O budget the stalled client eats.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1500);

  close(slow);
  serving.telemetry->Stop();
}

// ------------------------------------------------------- hardware counters --

TEST(HwCountersTest, DegradesGracefullyAndDeltaRespectsAvailability) {
  // Whether perf_event works here depends on the kernel/container; either
  // way construction and reads must not crash, and unavailability must come
  // with a human-readable detail.
  TelemetryOptions options;
  options.background = false;
  Telemetry telemetry(options);
  telemetry.StartHw();
  const HwSample now = telemetry.HwNow();
  if (!telemetry.hw_available()) {
    EXPECT_FALSE(now.available);
    EXPECT_FALSE(telemetry.hw_detail().empty());
  } else {
    EXPECT_TRUE(now.available);
  }

  HwSample begin;
  HwSample end;
  end.available = true;
  end.cycles = 100;
  // One side unavailable: the delta carries no information.
  EXPECT_FALSE(HwSample::Delta(end, begin).available);
  begin.available = true;
  begin.cycles = 40;
  const HwSample delta = HwSample::Delta(end, begin);
  EXPECT_TRUE(delta.available);
  EXPECT_EQ(delta.cycles, 60);
}

// ------------------------------------------------------------- end to end --

TEST(TelemetryEndToEndTest, DriverRunProducesAValidSeries) {
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 0.4;
  config.seed = 77;
  config.telemetry = true;
  config.telemetry_interval = 0.05;
  config.telemetry_hw = false;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  EXPECT_GT(result.total_success, 0);

  ASSERT_NE(runner.telemetry(), nullptr);
  const std::vector<Sample> series = runner.telemetry()->SeriesSnapshot();
  ASSERT_GE(series.size(), 2u);  // Stop() takes a final sample
  int64_t last_seq = -1;
  double last_t = -1.0;
  for (const Sample& sample : series) {
    EXPECT_EQ(sample.seq, last_seq + 1);
    EXPECT_GT(sample.t_s, last_t);
    last_seq = sample.seq;
    last_t = sample.t_s;
  }
  EXPECT_EQ(series.back().completed, runner.telemetry()->CompletedOps());
  EXPECT_EQ(series.back().completed, result.total_success);

  std::ostringstream out;
  runner.telemetry()->WriteJsonl(out);
  std::istringstream in(out.str());
  EXPECT_EQ(telemetry::ValidateTelemetryJsonl(in), "");
}

}  // namespace
}  // namespace sb7
