#include "src/net/server.h"

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "src/common/timing.h"

#if defined(__linux__)
#include <sys/epoll.h>
#endif

namespace sb7::net {

namespace {

/// How long the event loop sleeps when nothing is ready; bounds shutdown
/// latency and the reap delay for sessions killed by a worker's write.
constexpr int kLoopTickMs = 50;

/// Budget for writing one response to a slow client before the session is
/// declared dead and dropped (the slow-consumer backstop).
constexpr int kWriteTimeoutMs = 2000;

}  // namespace

#if defined(__linux__)

/// epoll-backed readiness watcher (the common production path).
class OpServer::Poller {
 public:
  Poller() : epfd_(::epoll_create1(0)) {}

  bool ok() const { return epfd_.valid(); }

  void Add(int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev);
  }

  void Remove(int fd) {
    epoll_event ev{};
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
  }

  /// Fills `ready` with readable fds, EINTR-retrying like PollRetry.
  void Wait(std::vector<int>* ready, int timeout_ms) {
    epoll_event events[64];
    int n;
    do {
      n = ::epoll_wait(epfd_.get(), events, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    for (int i = 0; i < n; ++i) {
      ready->push_back(events[i].data.fd);
    }
  }

 private:
  UniqueFd epfd_;
};

#else  // !__linux__

/// poll(2) fallback: rebuilds the fd list per wait. Fine for the session
/// counts a benchmark front-end sees.
class OpServer::Poller {
 public:
  bool ok() const { return true; }

  void Add(int fd) { fds_.push_back(fd); }

  void Remove(int fd) {
    fds_.erase(std::remove(fds_.begin(), fds_.end(), fd), fds_.end());
  }

  void Wait(std::vector<int>* ready, int timeout_ms) {
    std::vector<pollfd> pfds;
    pfds.reserve(fds_.size());
    for (int fd : fds_) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfds.push_back(pfd);
    }
    const int n =
        PollRetry(pfds.data(), static_cast<int>(pfds.size()), timeout_ms);
    if (n <= 0) {
      return;
    }
    for (const pollfd& pfd : pfds) {
      if (pfd.revents != 0) {
        ready->push_back(pfd.fd);
      }
    }
  }

 private:
  std::vector<int> fds_;
};

#endif  // __linux__

struct OpServer::Session {
  uint64_t id = 0;
  UniqueFd fd;
  std::string inbuf;
  bool hello_done = false;
  // Serializes worker-thread response writes against each other and
  // against the event loop's final close — a worker can never write into
  // an fd number the kernel has already recycled.
  std::mutex write_mutex;
  // mo: release/acquire pairs the killing thread's write failure with the
  // event loop's reap check; the fd itself is protected by write_mutex.
  std::atomic<bool> dead{false};
};

OpServer::OpServer(int port, IngressQueue* ingress, uint16_t op_count)
    : requested_port_(port), ingress_(ingress), op_count_(op_count) {
  ingress_->SetCompletion([this](const IngressRequest& request, Status status,
                                 int64_t server_nanos) {
    Complete(request, status, server_nanos);
  });
}

OpServer::~OpServer() {
  Stop();
  ingress_->SetCompletion(nullptr);
}

bool OpServer::Start(std::string* error) {
  ListenResult listen = ListenTcp(requested_port_);
  if (!listen.ok()) {
    if (error != nullptr) {
      *error = listen.error;
    }
    return false;
  }
  listen_fd_ = std::move(listen.fd);
  port_ = listen.port;
  // mo: start handshake with the loop thread; thread creation below is the
  // real synchronization point.
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return true;
}

void OpServer::Stop() {
  // mo: loop exit flag; the join below is the real synchronization.
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  if (was_running) {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [id, session] : sessions_) {
      std::lock_guard<std::mutex> write_lock(session->write_mutex);
      session->fd.reset();
    }
    sessions_.clear();
  }
  listen_fd_.reset();
}

ServerStats OpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void OpServer::Complete(const IngressRequest& request, Status status,
                        int64_t server_nanos) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(request.session_id);
    if (it == sessions_.end()) {
      return;  // session already dropped; nobody is waiting for the answer
    }
    session = it->second;
  }
  OpResponse response;
  response.request_id = request.request_id;
  response.status = status;
  // The wire field is u32 nanos (~4.29 s); anything longer saturates.
  response.server_nanos =
      server_nanos < 0
          ? 0
          : static_cast<uint32_t>(std::min<int64_t>(server_nanos, UINT32_MAX));
  SendFrame(*session, EncodeResponse(response));
}

bool OpServer::SendFrame(Session& session, const std::string& payload) {
  std::string frame;
  AppendFrame(&frame, payload);
  std::lock_guard<std::mutex> lock(session.write_mutex);
  if (!session.fd.valid()) {
    return false;
  }
  if (!WriteAll(session.fd.get(), frame, kWriteTimeoutMs)) {
    // mo: publish the death; the event loop's acquire reap check pairs
    // with this release.
    session.dead.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void OpServer::EventLoop() {
  Poller poller;
  if (!poller.ok()) {
    return;
  }
  poller.Add(listen_fd_.get());
  std::vector<int> ready;
  // mo: plain run/stop flag re-checked every tick; Stop() joins.
  while (running_.load(std::memory_order_acquire)) {
    ready.clear();
    poller.Wait(&ready, kLoopTickMs);

    for (int fd : ready) {
      if (fd == listen_fd_.get()) {
        AcceptNewSessions(&poller);
        break;
      }
    }

    // Snapshot the ready sessions once; servicing happens outside the
    // table lock so Complete() calls never contend with slow reads.
    std::vector<std::shared_ptr<Session>> to_service;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (int fd : ready) {
        if (fd == listen_fd_.get()) {
          continue;
        }
        for (auto& [id, session] : sessions_) {
          if (session->fd.valid() && session->fd.get() == fd) {
            to_service.push_back(session);
            break;
          }
        }
      }
    }
    for (auto& session : to_service) {
      // mo: acquire pairs with the release in SendFrame's failure path.
      const SessionState state = session->dead.load(std::memory_order_acquire)
                                     ? SessionState::kBroken
                                     : ServiceSession(*session);
      if (state != SessionState::kOpen) {
        DropSession(session->id, &poller, state);
      }
    }

    // Reap sessions killed by worker-thread response writes this tick.
    std::vector<uint64_t> reap;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (auto& [id, session] : sessions_) {
        // mo: acquire pairs with the release in SendFrame's failure path.
        if (session->dead.load(std::memory_order_acquire)) {
          reap.push_back(id);
        }
      }
    }
    for (uint64_t id : reap) {
      DropSession(id, &poller, SessionState::kBroken);
    }
  }
}

void OpServer::AcceptNewSessions(Poller* poller) {
  for (;;) {
    const int client = AcceptRetry(listen_fd_.get());
    if (client < 0) {
      // EAGAIN: backlog drained (or the pending client vanished between
      // poll readiness and accept — the exact race the old blocking
      // telemetry accept could wedge on).
      return;
    }
    if (!SetNonBlocking(client)) {
      CloseFd(client);
      continue;
    }
    auto session = std::make_shared<Session>();
    session->fd = UniqueFd(client);
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      session->id = next_session_id_++;
      sessions_[session->id] = session;
    }
    poller->Add(client);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.sessions_accepted;
  }
}

OpServer::SessionState OpServer::ServiceSession(Session& session) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ReadSome(session.fd.get(), buffer, sizeof(buffer));
    if (n > 0) {
      session.inbuf.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return SessionState::kClosed;  // orderly EOF
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // drained for now
    }
    return SessionState::kBroken;  // hard error
  }

  std::string payload;
  for (;;) {
    const FrameStatus status = TryExtractFrame(&session.inbuf, &payload);
    if (status == FrameStatus::kNeedMore) {
      return SessionState::kOpen;
    }
    if (status == FrameStatus::kTooLarge) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.bad_frames;
      return SessionState::kBroken;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_in;
    }
    if (!HandleFrame(session, payload)) {
      return SessionState::kBroken;
    }
  }
}

bool OpServer::HandleFrame(Session& session, const std::string& payload) {
  if (!session.hello_done) {
    Hello hello;
    if (!DecodeHello(payload, &hello) || hello.magic != kWireMagic ||
        hello.version != kWireVersion) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.bad_frames;
      return false;
    }
    session.hello_done = true;
    HelloAck ack;
    ack.op_count = op_count_;
    return SendFrame(session, EncodeHelloAck(ack));
  }

  OpRequest request;
  if (!DecodeRequest(payload, &request)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.bad_frames;
    return false;
  }

  OpResponse immediate;
  immediate.request_id = request.request_id;
  if (request.op_index >= op_count_) {
    immediate.status = Status::kBadRequest;
    return SendFrame(session, EncodeResponse(immediate));
  }

  IngressRequest admit;
  admit.session_id = session.id;
  admit.request_id = request.request_id;
  admit.op_index = request.op_index;
  admit.accepted_nanos = NowNanos();
  if (!ingress_->TryPush(admit)) {
    // Admission control: the bounded queue is full (or the run is over).
    // The typed rejection goes out immediately — backpressure the client
    // can act on, instead of silent buffering or a dropped connection.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
    }
    immediate.status = Status::kRejected;
    return SendFrame(session, EncodeResponse(immediate));
  }
  return true;
}

void OpServer::DropSession(uint64_t session_id, Poller* poller, SessionState how) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return;
    }
    session = std::move(it->second);
    sessions_.erase(it);
  }
  {
    // Closing under write_mutex: an in-flight Complete() finishes its
    // write first, and later ones see the invalid fd and bail. Unregister
    // from the poller before close so the fd is never watched while dead
    // (the poll fallback would spin on POLLNVAL otherwise).
    std::lock_guard<std::mutex> lock(session->write_mutex);
    if (session->fd.valid()) {
      poller->Remove(session->fd.get());
    }
    session->fd.reset();
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++(how == SessionState::kClosed ? stats_.sessions_closed : stats_.sessions_dropped);
}

}  // namespace sb7::net
