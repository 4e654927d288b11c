// Tests for the hardened socket layer (src/net/):
//  - wire framing: round-trips, arbitrarily fragmented (dribbled) input,
//    back-to-back frames, and oversize-prefix rejection,
//  - payload codecs for all four message types, including wrong-type and
//    truncation rejection,
//  - the SIGPIPE regression: WriteAll against a closed peer must fail with
//    an error, not kill the process (the PR-8 metrics-server bug),
//  - EINTR resilience: ReadFull/WriteAll completing under a signal pepper,
//    and PollRetry re-arming its deadline instead of stretching it,
//  - IngressQueue backpressure: bounded admission, typed rejection
//    accounting, close-then-drain semantics,
//  - OpServer protocol behaviour over real loopback TCP: handshake,
//    queue-full rejection, out-of-range op bounce, oversize-frame drop,
//  - an end-to-end loopback run: BenchmarkRunner in ingress mode fed by the
//    load client, with nothing lost or malformed.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/driver.h"
#include "src/harness/ingress.h"
#include "src/net/client.h"
#include "src/net/net.h"
#include "src/net/server.h"
#include "src/net/wire.h"

namespace sb7 {
namespace {

using net::AppendFrame;
using net::FrameStatus;
using net::Hello;
using net::HelloAck;
using net::MsgType;
using net::OpRequest;
using net::OpResponse;
using net::OpServer;
using net::Status;
using net::TryExtractFrame;

// ----------------------------------------------------------------- framing --

TEST(WireFramingTest, RoundTripsASingleFrame) {
  std::string buffer;
  AppendFrame(&buffer, "hello frame");
  EXPECT_EQ(buffer.size(), 4 + 11u);  // u32 length prefix + payload

  std::string payload;
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "hello frame");
  EXPECT_TRUE(buffer.empty());  // frame fully consumed
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kNeedMore);
}

TEST(WireFramingTest, ExtractsBackToBackFrames) {
  std::string buffer;
  AppendFrame(&buffer, "first");
  AppendFrame(&buffer, "");  // empty payloads are legal frames
  AppendFrame(&buffer, "third");

  std::string payload;
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "third");
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kNeedMore);
}

TEST(WireFramingTest, ReassemblesDribbledPartialReads) {
  // A TCP read can return any fragmentation of the stream; the extractor
  // must produce identical frames when bytes arrive one at a time.
  std::string stream;
  const std::vector<std::string> sent = {"a", "payload two", std::string(100, 'x')};
  for (const std::string& payload : sent) AppendFrame(&stream, payload);

  std::string buffer;
  std::vector<std::string> received;
  for (char byte : stream) {
    buffer.push_back(byte);
    std::string payload;
    const FrameStatus status = TryExtractFrame(&buffer, &payload);
    if (status == FrameStatus::kFrame) {
      received.push_back(payload);
      // With single-byte feeding at most one frame completes per byte.
      EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kNeedMore);
    } else {
      EXPECT_EQ(status, FrameStatus::kNeedMore);
    }
  }
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFramingTest, RejectsOversizeLengthPrefixes) {
  // A garbage length prefix must not drive an allocation: the extractor
  // flags the session for dropping before any payload bytes arrive.
  const uint32_t huge = net::kMaxFrameBytes + 1;
  std::string buffer;
  for (int shift = 0; shift < 32; shift += 8) {
    buffer.push_back(static_cast<char>((huge >> shift) & 0xFF));
  }
  std::string payload;
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kTooLarge);

  // Exactly kMaxFrameBytes is still legal.
  std::string ok_buffer;
  AppendFrame(&ok_buffer, std::string(net::kMaxFrameBytes, 'y'));
  EXPECT_EQ(TryExtractFrame(&ok_buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload.size(), net::kMaxFrameBytes);
}

// ------------------------------------------------------------------ codecs --

TEST(WireCodecTest, AllMessageTypesRoundTrip) {
  Hello hello;
  Hello hello_out;
  ASSERT_TRUE(net::DecodeHello(net::EncodeHello(hello), &hello_out));
  EXPECT_EQ(hello_out.magic, net::kWireMagic);
  EXPECT_EQ(hello_out.version, net::kWireVersion);

  HelloAck ack;
  ack.op_count = 45;
  HelloAck ack_out;
  ASSERT_TRUE(net::DecodeHelloAck(net::EncodeHelloAck(ack), &ack_out));
  EXPECT_EQ(ack_out.version, net::kWireVersion);
  EXPECT_EQ(ack_out.op_count, 45);

  OpRequest request;
  request.request_id = 0x1122334455667788ULL;
  request.op_index = 0xBEEF;
  OpRequest request_out;
  ASSERT_TRUE(net::DecodeRequest(net::EncodeRequest(request), &request_out));
  EXPECT_EQ(request_out.request_id, 0x1122334455667788ULL);
  EXPECT_EQ(request_out.op_index, 0xBEEF);

  OpResponse response;
  response.request_id = 7;
  response.status = Status::kRejected;
  response.server_nanos = 123456;
  OpResponse response_out;
  ASSERT_TRUE(net::DecodeResponse(net::EncodeResponse(response), &response_out));
  EXPECT_EQ(response_out.request_id, 7u);
  EXPECT_EQ(response_out.status, Status::kRejected);
  EXPECT_EQ(response_out.server_nanos, 123456u);

  EXPECT_EQ(net::PeekType(net::EncodeHello(hello)),
            static_cast<uint8_t>(MsgType::kHello));
  EXPECT_EQ(net::PeekType(net::EncodeRequest(request)),
            static_cast<uint8_t>(MsgType::kRequest));
}

TEST(WireCodecTest, DecodersRejectWrongTypeAndTruncation) {
  OpRequest request;
  request.request_id = 42;
  const std::string encoded = net::EncodeRequest(request);

  // Wrong message type byte.
  OpResponse response_out;
  EXPECT_FALSE(net::DecodeResponse(encoded, &response_out));
  Hello hello_out;
  EXPECT_FALSE(net::DecodeHello(encoded, &hello_out));

  // Every truncation of a valid payload must be rejected, not misread.
  for (size_t len = 0; len < encoded.size(); ++len) {
    OpRequest out;
    EXPECT_FALSE(net::DecodeRequest(encoded.substr(0, len), &out)) << "len=" << len;
  }
}

// ------------------------------------------------------- socket hardening --

// The SIGPIPE regression (the original PR-8 bug): writing a response to a
// scraper that already disconnected must surface as a failed write. With a
// plain send() the kernel raises SIGPIPE, whose default disposition kills
// the whole benchmark process — this test would not fail but die.
TEST(SocketHardeningTest, WriteAllSurvivesAClosedPeerWithoutSigpipe) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[1]);  // peer disconnects before the response goes out

  const std::string response(64 * 1024, 'r');
  bool wrote = true;
  for (int i = 0; i < 4 && wrote; ++i) {
    wrote = net::WriteAll(fds[0], response, /*timeout_ms=*/1000);
  }
  EXPECT_FALSE(wrote);  // EPIPE reported as failure, process still alive

  // The single-shot helper reports the same condition via errno.
  errno = 0;
  EXPECT_EQ(net::WriteSome(fds[0], response.data(), response.size()), -1);
  EXPECT_EQ(errno, EPIPE);
  close(fds[0]);
}

// Installed without SA_RESTART so blocked syscalls genuinely return EINTR
// (the failure mode the retry loops exist for).
void InstallInterruptingHandler() {
  struct sigaction action = {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &action, nullptr), 0);
}

TEST(SocketHardeningTest, ReadFullAndWriteAllSurviveAnEintrPepper) {
  InstallInterruptingHandler();
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // A transfer far larger than the socket buffer, so both sides must block
  // (and get interrupted) many times mid-transfer.
  const size_t kBytes = 4 * 1024 * 1024;
  std::string outgoing(kBytes, '\0');
  for (size_t i = 0; i < kBytes; ++i) outgoing[i] = static_cast<char>(i * 131);

  std::atomic<bool> writer_ok{false};
  std::atomic<bool> reader_ok{false};
  std::string incoming(kBytes, '\0');
  std::thread writer([&] {
    writer_ok = net::WriteAll(fds[0], outgoing, /*timeout_ms=*/-1);
  });
  std::thread reader([&] {
    reader_ok = net::ReadFull(fds[1], incoming.data(), kBytes, /*timeout_ms=*/-1);
  });

  // Pepper both threads with signals while the transfer is in flight. A
  // `n <= 0` treated-as-fatal recv/send (the seeded bug) fails here.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    pthread_kill(writer.native_handle(), SIGUSR1);
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  writer.join();
  reader.join();

  EXPECT_TRUE(writer_ok);
  EXPECT_TRUE(reader_ok);
  EXPECT_EQ(incoming, outgoing);
  close(fds[0]);
  close(fds[1]);
}

TEST(SocketHardeningTest, PollRetryReArmsItsDeadlineUnderSignals) {
  InstallInterruptingHandler();
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  std::atomic<int> poll_result{-2};
  std::thread poller([&] {
    pollfd pfd{};
    pfd.fd = fds[0];
    pfd.events = POLLIN;  // never becomes readable: nothing is written
    poll_result = net::PollRetry(&pfd, 1, /*timeout_ms=*/250);
  });
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    pthread_kill(poller.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  poller.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Interrupted waits re-arm with the *remaining* budget: the poll still
  // times out (0), near its deadline, despite ~100 interruptions.
  EXPECT_EQ(poll_result, 0);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 200);
  close(fds[0]);
  close(fds[1]);
}

// ----------------------------------------------------------- ingress queue --

TEST(IngressQueueTest, BoundedAdmissionRejectsWhenFull) {
  IngressQueue queue(2);
  IngressRequest request;
  request.op_index = 1;
  EXPECT_TRUE(queue.TryPush(request));
  EXPECT_TRUE(queue.TryPush(request));
  EXPECT_FALSE(queue.TryPush(request));  // full: typed backpressure
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.rejected(), 1u);

  // Popping frees capacity again.
  std::vector<IngressRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 8, /*timeout_ms=*/0), 2u);
  EXPECT_TRUE(queue.TryPush(request));
  EXPECT_EQ(queue.accepted(), 3u);
}

TEST(IngressQueueTest, PopBatchAppendsAndHonorsTheBatchLimit) {
  IngressQueue queue(8);
  for (uint64_t i = 0; i < 5; ++i) {
    IngressRequest request;
    request.request_id = i;
    ASSERT_TRUE(queue.TryPush(request));
  }
  std::vector<IngressRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 2, /*timeout_ms=*/0), 2u);
  EXPECT_EQ(queue.PopBatch(&batch, 2, /*timeout_ms=*/0), 2u);
  EXPECT_EQ(queue.PopBatch(&batch, 2, /*timeout_ms=*/0), 1u);
  // PopBatch appends — the workers reuse one vector across pops.
  ASSERT_EQ(batch.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i].request_id, i);
}

TEST(IngressQueueTest, CloseDrainsThenRefusesAdmission) {
  IngressQueue queue(4);
  IngressRequest request;
  ASSERT_TRUE(queue.TryPush(request));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(request));  // late arrival: typed rejection
  EXPECT_EQ(queue.rejected(), 1u);

  // Already-admitted work is still drainable; then 0 + closed() signals the
  // consumer to exit (no indefinite wait even with a timeout).
  std::vector<IngressRequest> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 8, /*timeout_ms=*/50), 1u);
  EXPECT_EQ(queue.PopBatch(&batch, 8, /*timeout_ms=*/50), 0u);
  EXPECT_TRUE(queue.closed());
}

// --------------------------------------------------------------- op server --

// Blocking single-frame I/O for the raw test client (ConnectTcp sockets are
// blocking; ReadFull/WriteAll handle the rest).
bool SendOneFrame(int fd, const std::string& payload) {
  std::string frame;
  AppendFrame(&frame, payload);
  return net::WriteAll(fd, frame, /*timeout_ms=*/2000);
}

bool ReadOneFrame(int fd, std::string* payload) {
  char prefix[4];
  if (!net::ReadFull(fd, prefix, sizeof(prefix), /*timeout_ms=*/2000)) return false;
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<uint8_t>(prefix[i]);
  }
  if (length > net::kMaxFrameBytes) return false;
  payload->resize(length);
  return length == 0 ||
         net::ReadFull(fd, payload->data(), length, /*timeout_ms=*/2000);
}

// Connects and completes the Hello handshake; returns the advertised
// op_count through `ack`.
net::ConnectResult HandshakeClient(int port, HelloAck* ack) {
  net::ConnectResult conn = net::ConnectTcp("127.0.0.1", port);
  if (!conn.ok()) return conn;
  if (!SendOneFrame(conn.fd.get(), net::EncodeHello(Hello{}))) {
    conn.error = "hello send failed";
    return conn;
  }
  std::string payload;
  if (!ReadOneFrame(conn.fd.get(), &payload) || !net::DecodeHelloAck(payload, ack)) {
    conn.error = "hello ack failed";
  }
  return conn;
}

TEST(OpServerTest, HandshakesRejectsWhenFullAndBouncesBadIndexes) {
  IngressQueue queue(1);  // capacity 1: the second in-flight request is rejected
  OpServer server(/*port=*/0, &queue, /*op_count=*/10);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  HelloAck ack;
  net::ConnectResult conn = HandshakeClient(server.port(), &ack);
  ASSERT_TRUE(conn.ok()) << conn.error;
  EXPECT_EQ(ack.op_count, 10);

  // No consumer pops the queue: request 1 is admitted (and stays pending),
  // requests 2 and 3 hit the bound and come back kRejected immediately.
  for (uint64_t id = 1; id <= 3; ++id) {
    OpRequest request;
    request.request_id = id;
    request.op_index = 4;
    ASSERT_TRUE(SendOneFrame(conn.fd.get(), net::EncodeRequest(request)));
  }
  for (uint64_t id = 2; id <= 3; ++id) {
    std::string payload;
    OpResponse response;
    ASSERT_TRUE(ReadOneFrame(conn.fd.get(), &payload));
    ASSERT_TRUE(net::DecodeResponse(payload, &response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kRejected);
    EXPECT_EQ(response.server_nanos, 0u);
  }
  EXPECT_GE(server.stats().rejected, 2u);

  // An out-of-range op index bounces as kBadRequest without touching the
  // (full) queue.
  OpRequest bad;
  bad.request_id = 99;
  bad.op_index = 10;  // registry holds indexes [0, 10)
  ASSERT_TRUE(SendOneFrame(conn.fd.get(), net::EncodeRequest(bad)));
  std::string payload;
  OpResponse response;
  ASSERT_TRUE(ReadOneFrame(conn.fd.get(), &payload));
  ASSERT_TRUE(net::DecodeResponse(payload, &response));
  EXPECT_EQ(response.request_id, 99u);
  EXPECT_EQ(response.status, Status::kBadRequest);

  // Complete the one admitted request the way a worker would; the response
  // lands on the same session with the reported execute latency.
  std::vector<IngressRequest> batch;
  ASSERT_EQ(queue.PopBatch(&batch, 8, /*timeout_ms=*/1000), 1u);
  EXPECT_EQ(batch[0].request_id, 1u);
  server.Complete(batch[0], Status::kOk, /*server_nanos=*/123);
  ASSERT_TRUE(ReadOneFrame(conn.fd.get(), &payload));
  ASSERT_TRUE(net::DecodeResponse(payload, &response));
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.server_nanos, 123u);

  server.Stop();
}

TEST(OpServerTest, DropsSessionsThatSendOversizeFrames) {
  IngressQueue queue(8);
  OpServer server(/*port=*/0, &queue, /*op_count=*/10);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HelloAck ack;
  net::ConnectResult conn = HandshakeClient(server.port(), &ack);
  ASSERT_TRUE(conn.ok()) << conn.error;

  // A length prefix past kMaxFrameBytes is a protocol violation: the server
  // drops the session instead of allocating, and the client sees EOF.
  const uint32_t huge = net::kMaxFrameBytes + 1;
  std::string prefix;
  for (int shift = 0; shift < 32; shift += 8) {
    prefix.push_back(static_cast<char>((huge >> shift) & 0xFF));
  }
  ASSERT_TRUE(net::WriteAll(conn.fd.get(), prefix, /*timeout_ms=*/2000));
  char byte;
  EXPECT_FALSE(net::ReadFull(conn.fd.get(), &byte, 1, /*timeout_ms=*/2000));

  // The drop counter increments just after the close the client saw as
  // EOF, so allow the event loop a moment to get there.
  net::ServerStats stats = server.stats();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (stats.sessions_dropped == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.stats();
  }
  EXPECT_GE(stats.bad_frames, 1u);
  EXPECT_GE(stats.sessions_dropped, 1u);
  EXPECT_EQ(stats.sessions_closed, 0u);
  EXPECT_EQ(queue.accepted(), 0u);
  server.Stop();
}

TEST(OpServerTest, CountsAnOrderlyCloseAsClosedNotDropped) {
  IngressQueue queue(8);
  OpServer server(/*port=*/0, &queue, /*op_count=*/10);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  HelloAck ack;
  net::ConnectResult conn = HandshakeClient(server.port(), &ack);
  ASSERT_TRUE(conn.ok()) << conn.error;
  conn.fd.reset();  // a clean close: the server reads EOF

  net::ServerStats stats = server.stats();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (stats.sessions_closed == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.stats();
  }
  EXPECT_EQ(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.sessions_dropped, 0u);
  EXPECT_EQ(stats.bad_frames, 0u);
  server.Stop();
}

// -------------------------------------------------------------- end to end --

TEST(NetEndToEndTest, LoopbackServeRunLosesNothing) {
  IngressQueue ingress(256);
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 0.3;
  config.seed = 99;
  RunInstruments instruments;
  instruments.ingress = &ingress;

  BenchmarkRunner runner(config, instruments);
  OpServer server(/*port=*/0, &ingress,
                  static_cast<uint16_t>(runner.registry().all().size()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  net::ClientOptions options;
  options.port = server.port();
  options.connections = 2;
  options.seconds = 0.3;
  options.ratios.assign(runner.registry().all().size(),
                        1.0 / static_cast<double>(runner.registry().all().size()));
  options.seed = 7;

  BenchResult result;
  std::thread runner_thread([&runner, &result] { result = runner.Run(); });
  const net::ClientResult client = net::RunLoadClient(options);
  runner_thread.join();
  server.Stop();

  ASSERT_TRUE(client.Ok()) << client.error;
  EXPECT_GT(client.sent, 0);
  EXPECT_GT(client.ok, 0);
  EXPECT_EQ(client.bad, 0);
  // The run-end drain: every admitted-but-unexecuted request is rejected,
  // never stranded — a closed-loop client must not hang on a dead request.
  EXPECT_EQ(client.lost, 0);
  EXPECT_EQ(client.sent, client.ok + client.op_failed + client.rejected);
  EXPECT_GT(result.total_success, 0);
  EXPECT_GT(client.latency.total_count(), 0);
  EXPECT_GE(server.stats().frames_in, static_cast<uint64_t>(client.sent));
}

}  // namespace
}  // namespace sb7
