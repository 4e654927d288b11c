// The front-end of a served run (stmbench7 --listen, sb7-bench wire cells):
// an event loop (epoll on Linux, poll elsewhere) that accepts TCP clients
// speaking the wire.h protocol, admits their operation requests into a
// bounded IngressQueue, and writes responses back as the BenchmarkRunner's
// workers complete them.
//
// Threading model: one event-loop thread owns accept + reads + admission;
// worker threads answer through IngressQueue::Complete, which the server
// routes to Complete() to write responses directly to the session socket.
// Writes and the final close are serialized per-session by a mutex, so a
// worker can never write into an fd the event loop just recycled.

#ifndef STMBENCH7_SRC_NET_SERVER_H_
#define STMBENCH7_SRC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/harness/ingress.h"
#include "src/net/net.h"
#include "src/net/wire.h"

namespace sb7::net {

struct ServerOptions {
  int port = 0;  ///< 0 = ephemeral; read the bound port via port()
  /// Budget for writing one response to a slow client before the session
  /// is declared dead and dropped (the slow-consumer backstop).
  int write_timeout_ms = 2000;
};

struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_closed = 0;   ///< the client closed its end (EOF)
  uint64_t sessions_dropped = 0;  ///< protocol violations + dead writers
  uint64_t frames_in = 0;
  uint64_t bad_frames = 0;  ///< oversize/undecodable frames (drops session)
  uint64_t rejected = 0;    ///< kRejected responses (queue full / closed)
};

class OpServer {
 public:
  /// `ingress` must outlive the server; the server installs itself as the
  /// queue's completion, so the runner draining it answers through
  /// Complete(). `op_count` is the size of the operation registry,
  /// advertised in the HelloAck and used to bounce out-of-range op indexes
  /// as kBadRequest before they reach a worker.
  OpServer(const ServerOptions& options, IngressQueue* ingress,
           uint16_t op_count);
  ~OpServer();

  OpServer(const OpServer&) = delete;
  OpServer& operator=(const OpServer&) = delete;

  /// Binds, listens and spawns the event-loop thread. False + `*error` on
  /// failure.
  bool Start(std::string* error);

  /// Stops the event loop and closes every session. Idempotent. Does NOT
  /// close the ingress queue — the run's shutdown order is: close queue,
  /// join runner, then Stop() so late arrivals still get typed rejections
  /// while workers drain.
  void Stop();

  /// Writes the response for one admitted request. Thread-safe; called
  /// from BenchmarkRunner workers through the ingress queue. A write
  /// failure (or timeout) marks the session dead; the event loop reaps it.
  void Complete(const IngressRequest& request, Status status,
                int64_t server_nanos);

  int port() const { return port_; }
  ServerStats stats() const;

 private:
  struct Session;
  class Poller;

  /// What servicing a session left it as.
  enum class SessionState { kOpen, kClosed, kBroken };

  void EventLoop();
  void AcceptNewSessions(Poller* poller);
  /// Drains readable bytes and frames from one session: kClosed when the
  /// client closed its end, kBroken on a read error or protocol violation.
  SessionState ServiceSession(Session& session);
  bool HandleFrame(Session& session, const std::string& payload);
  /// Serialized frame write; marks the session dead on failure.
  bool SendFrame(Session& session, const std::string& payload);
  /// Closes and forgets a session, counted as closed or as dropped.
  void DropSession(uint64_t session_id, Poller* poller, SessionState how);

  const ServerOptions options_;
  IngressQueue* const ingress_;
  const uint16_t op_count_;

  UniqueFd listen_fd_;
  int port_ = -1;
  std::thread loop_thread_;
  // mo: start/stop handshake only — the loop re-checks every tick and
  // Stop() joins the thread, so relaxed visibility timing is enough.
  std::atomic<bool> running_{false};

  mutable std::mutex sessions_mutex_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace sb7::net

#endif  // STMBENCH7_SRC_NET_SERVER_H_
