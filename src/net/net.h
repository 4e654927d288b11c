// Hardened socket primitives shared by every network surface of the tree:
// the served-run front-end and load client (src/net/server.*, src/net/client.*)
// and the telemetry /metrics endpoint (src/telemetry/http.*).
//
// The layer exists because the first socket ingress (PR-8's metrics server)
// shipped the classic robustness bugs one at a time: send() without
// MSG_NOSIGNAL (a scraper disconnecting mid-response SIGPIPEs the whole
// benchmark process), `n <= 0` checks that treat EINTR as a dead peer, and
// blocking accept/recv that let one stalled client wedge the poll loop.
// Every helper here retries EINTR, never raises SIGPIPE, and works on
// non-blocking fds by polling for readiness up to a caller-supplied
// deadline — so a caller cannot reintroduce those bugs by construction.
//
// Everything is plain POSIX sockets; on platforms without them the listener
// and connect helpers fail with a message instead of compiling the callers
// out (matching the telemetry server's stub behaviour).

#ifndef STMBENCH7_SRC_NET_NET_H_
#define STMBENCH7_SRC_NET_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define SB7_HAVE_SOCKETS 1
#include <poll.h>
#endif

namespace sb7::net {

/// Move-only RAII owner of a file descriptor; closes (EINTR-aware) on
/// destruction. `release()` hands the fd out without closing.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Closes `fd` without retrying on EINTR: POSIX leaves the fd state
/// unspecified after an interrupted close, and on Linux the descriptor is
/// already gone — a retry could close an fd another thread just opened.
void CloseFd(int fd);

/// Marks `fd` O_NONBLOCK. Returns false (errno preserved) on failure.
bool SetNonBlocking(int fd);

#if defined(SB7_HAVE_SOCKETS)

/// poll(2) retrying EINTR with the remaining timeout re-armed, so a signal
/// burst cannot silently stretch a bounded wait. Negative timeout = forever.
int PollRetry(pollfd* fds, int nfds, int timeout_ms);

/// One recv(2) retrying EINTR only. Returns the (possibly short) byte
/// count, 0 on orderly EOF, or -1 with errno (EAGAIN on a drained
/// non-blocking fd).
ssize_t ReadSome(int fd, void* buffer, size_t length);

/// One send(2) with MSG_NOSIGNAL, retrying EINTR only. Returns the
/// (possibly short) byte count or -1 with errno. Never raises SIGPIPE: a
/// vanished peer surfaces as EPIPE instead.
ssize_t WriteSome(int fd, const void* buffer, size_t length);

/// accept(2) retrying EINTR only. Returns the client fd, or -1 with errno
/// (EAGAIN when a non-blocking listener has drained its backlog — e.g. the
/// pending client dropped between poll readiness and the accept).
int AcceptRetry(int listen_fd);

/// Reads exactly `length` bytes, polling for readability on non-blocking
/// fds and retrying EINTR throughout. `timeout_ms` bounds the *total* wait
/// (negative = no deadline). Returns false on EOF, error, or timeout.
bool ReadFull(int fd, void* buffer, size_t length, int timeout_ms);

/// Writes all of `data`, polling for writability on non-blocking fds and
/// retrying EINTR throughout; SIGPIPE-free. `timeout_ms` bounds the total
/// wait (negative = no deadline) — the slow-consumer backstop: a response
/// that cannot drain within the budget fails instead of wedging the writer.
bool WriteAll(int fd, const void* data, size_t length, int timeout_ms);
bool WriteAll(int fd, const std::string& data, int timeout_ms);

#endif  // SB7_HAVE_SOCKETS

struct ListenResult {
  UniqueFd fd;        ///< non-blocking listening socket
  int port = -1;      ///< actually-bound port (resolves port 0)
  std::string error;  ///< set iff !ok()

  bool ok() const { return error.empty(); }
};

/// Binds and listens on `port` (0 = ephemeral) on all interfaces with
/// SO_REUSEADDR; the returned socket is non-blocking so an accept after a
/// dropped client can never wedge an event loop.
ListenResult ListenTcp(int port, int backlog = 64);

struct ConnectResult {
  UniqueFd fd;        ///< connected blocking socket with TCP_NODELAY
  std::string error;  ///< set iff !ok()

  bool ok() const { return error.empty(); }
};

/// Connects to `host:port` (IPv4 dotted quad or "localhost"). TCP_NODELAY
/// is set: the serve protocol is small request/response frames where
/// Nagle's algorithm would serialize the closed loop on delayed ACKs.
ConnectResult ConnectTcp(const std::string& host, int port);

}  // namespace sb7::net

#endif  // STMBENCH7_SRC_NET_NET_H_
