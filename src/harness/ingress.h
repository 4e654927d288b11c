// Bounded admission queue between a network front-end (producer) and the
// BenchmarkRunner worker threads (consumers). The bound IS the
// admission-control policy: when the queue is full the front-end rejects
// the request immediately with IngressStatus::kRejected instead of
// buffering unbounded work — backpressure reaches the client as a typed
// error, and queue depth (and thus queue delay) stays bounded.
//
// Admitted requests flow to the workers through PopBatch; their outcomes
// flow back through Complete to the front-end that admitted them.

#ifndef STMBENCH7_SRC_HARNESS_INGRESS_H_
#define STMBENCH7_SRC_HARNESS_INGRESS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace sb7 {

/// Queue bound of a served run: deep enough that a closed-loop client (one
/// outstanding request per connection) never sees backpressure, small
/// enough that a wedged runner surfaces as rejections, not buffering.
constexpr size_t kIngressCapacity = 1024;

/// Outcome of one admitted request (sent to the client as one byte).
enum class IngressStatus : uint8_t {
  kOk = 0,          ///< executed, committed
  kOpFailed = 1,    ///< executed, operation reported failure
  kRejected = 2,    ///< admission control: ingress queue full, not executed
  kBadRequest = 3,  ///< malformed request (e.g. op index out of range)
};

/// One admitted operation request, queued for a worker.
struct IngressRequest {
  uint64_t session_id = 0;      ///< which client session to answer on
  uint64_t request_id = 0;      ///< client-chosen id, echoed back
  uint16_t op_index = 0;        ///< index into the operation registry
  int64_t accepted_nanos = 0;   ///< steady-clock admit time (queue delay)
};

/// MPMC bounded FIFO (mutex + condvars). Throughput is dominated by the
/// transactions the requests trigger, not by queue ops, so a lock-free
/// ring would buy nothing here; correctness under many producers and
/// consumers is what matters.
class IngressQueue {
 public:
  /// Receives each request's outcome and its server-side execute latency.
  using Completion = std::function<void(const IngressRequest&, IngressStatus, int64_t)>;

  explicit IngressQueue(size_t capacity) : capacity_(capacity) {}

  /// Installs where Complete() delivers outcomes. The front-end sets it
  /// before its first TryPush and clears it when it goes away (OpServer
  /// does both); it must not change while workers drain the queue.
  void SetCompletion(Completion completion) { completion_ = std::move(completion); }

  /// Answers one popped request. Called from worker threads; a no-op when
  /// no completion is installed.
  void Complete(const IngressRequest& request, IngressStatus status, int64_t nanos) const {
    if (completion_) {
      completion_(request, status, nanos);
    }
  }

  /// Non-blocking admit. Returns false when the queue is full (caller
  /// sends kRejected) or closed.
  bool TryPush(const IngressRequest& request);

  /// Pops up to `max_batch` requests, waiting up to `timeout_ms` for the
  /// first one. Returns the number popped; 0 with closed()==true means
  /// drain-complete and the consumer should exit.
  size_t PopBatch(std::vector<IngressRequest>* out, size_t max_batch,
                  int timeout_ms);

  /// Wakes all waiters; subsequent TryPush fails, PopBatch drains the
  /// remaining items and then returns 0.
  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t accepted() const;
  uint64_t rejected() const;

 private:
  const size_t capacity_;
  Completion completion_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<IngressRequest> queue_;
  bool closed_ = false;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_INGRESS_H_
