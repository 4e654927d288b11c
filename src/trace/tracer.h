/// \file
/// The tracer: a TxObserver that turns the observation seam into three
/// instruments at once —
///
///   1. per-thread event rings of sampled transaction lifecycle events
///      (begin / validation / backoff / abort / commit), timestamped with
///      the monotonic clock and tagged with the executing operation;
///   2. the conflict table (src/trace/conflict.h): every transactional
///      write updates a last-writer entry, every attributed abort lands in
///      a bucket and the (victim op × writer op) pair matrix;
///   3. per-op latency decomposition, accumulated from the retry loop's
///      TxAttemptTiming callbacks (read-set build / validation / commit /
///      backoff).
///
/// The tracer composes with the correctness oracle through the
/// multi-observer registry: both install side by side, neither sees the
/// other. Thread streams follow the oracle's owner-tagged thread-local
/// pattern, so states survive worker exit and a second tracer in the same
/// process cannot inherit another tracer's slots.

#ifndef STMBENCH7_SRC_TRACE_TRACER_H_
#define STMBENCH7_SRC_TRACE_TRACER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/stm/field.h"
#include "src/trace/conflict.h"
#include "src/trace/ring.h"

namespace sb7::trace {

struct TraceOptions {
  /// Per-thread event ring capacity (events; rounded up to a power of two).
  size_t ring_capacity = 1 << 16;
  /// Record the lifecycle events of every Nth transaction (1 = all).
  /// Sampling is per transaction, not per attempt: a sampled transaction
  /// keeps all its retries, so abort chains stay intact in the timeline.
  uint32_t sample_period = 1;
};

/// Per-op latency decomposition, merged across threads. Slot convention as
/// in ConflictOpSlot: 0 = no op context, i+1 = registry op i.
struct OpLatencyBreakdown {
  int64_t attempts = 0;
  int64_t commits = 0;
  int64_t aborts = 0;
  int64_t read_nanos = 0;
  int64_t validation_nanos = 0;
  int64_t commit_nanos = 0;
  int64_t backoff_nanos = 0;
};

class Tracer : public TxObserver {
 public:
  explicit Tracer(TraceOptions options = {});
  ~Tracer() override;

  /// Install/Uninstall only while no transactions are in flight (observer
  /// registry contract). Install turns the global timing flag on for the
  /// per-attempt latency decomposition (clock reads in the retry loop);
  /// Uninstall turns it off.
  void Install();
  void Uninstall();
  bool installed() const { return installed_; }

  /// One worker thread's drained event stream. `tid` is the tracer-assigned
  /// sequential id (registration order).
  struct ThreadStream {
    int tid = 0;
    std::vector<TraceEvent> events;
    int64_t dropped = 0;
  };
  /// Drains every thread's ring. Call after the traced workers joined (or
  /// are otherwise quiescent); safe to call repeatedly.
  std::vector<ThreadStream> DrainEvents();

  /// Total events dropped across all rings so far.
  int64_t TotalDropped() const;

  /// Conflict-table access: snapshots for phase windows, summaries for
  /// reports.
  ConflictTable::Snapshot ConflictSnapshot() const { return conflicts_.TakeSnapshot(); }
  ConflictSummary SummarizeWindow(const ConflictTable::Snapshot& end,
                                  const ConflictTable::Snapshot& begin,
                                  size_t top_k) const {
    return SummarizeConflicts(ConflictTable::Delta(end, begin), top_k);
  }

  /// Latency decomposition merged across threads, indexed by op slot
  /// (kConflictOpSlots entries). Empty breakdowns for untouched ops.
  std::vector<OpLatencyBreakdown> LatencyByOp() const;

  // --- TxObserver implementation (called from worker threads) ---
  // noexcept per the TxObserver contract (enforced by sb7-lint): a throw
  // here would unwind through a transaction's commit/abort path.
  void OnTxBegin(bool read_only) noexcept override;
  void OnTxCommit() noexcept override;
  void OnTxAbort(const TxAbortInfo& info) noexcept override;
  void OnTxWrite(const TxFieldBase& field, uint64_t word) noexcept override;
  void OnTxValidation(size_t steps) noexcept override;
  void OnTxBackoff(int attempt) noexcept override;
  void OnTxAttemptTiming(const TxAttemptTiming& timing, bool committed) noexcept override;

 private:
  struct ThreadState {
    explicit ThreadState(const TraceOptions& options)
        : ring(options.ring_capacity), by_op(kConflictOpSlots) {}
    int tid = 0;
    EventRing ring;
    uint64_t tx_counter = 0;   // transactions started on this thread
    bool sampled = false;      // current transaction is being recorded
    uint32_t retries = 0;      // aborts of the current transaction so far
    std::vector<OpLatencyBreakdown> by_op;
  };

  ThreadState& LocalState();
  void PushEvent(ThreadState& state, EventKind kind, uint32_t arg,
                 AbortCause cause = AbortCause::kUnknown);

  const TraceOptions options_;
  /// Process-unique id tagging this tracer's thread-local slots; never
  /// reused, unlike the tracer's address (see tracer.cc TlsSlot).
  const uint64_t instance_id_;
  bool installed_ = false;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadState>> states_;

  ConflictTable conflicts_;
};

}  // namespace sb7::trace

#endif  // STMBENCH7_SRC_TRACE_TRACER_H_
