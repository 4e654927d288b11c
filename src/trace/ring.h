/// \file
/// Per-thread trace event ring buffer.
///
/// Single-producer (the owning worker thread) bounded ring with drop-new
/// overflow: a full ring drops the incoming event and counts it, never
/// overwriting unconsumed slots. That policy is what makes concurrent
/// draining safe — the producer only writes slots the consumer has already
/// released — and it biases a saturated trace toward the *old* events that
/// explain how the window began, which is what a post-mortem wants.
///
/// Memory ordering: the producer fills the slot, then publishes it with a
/// release store of head; the consumer acquires head before reading slots
/// and releases tail after consuming, which hands the slots back to the
/// producer.

#ifndef STMBENCH7_SRC_TRACE_RING_H_
#define STMBENCH7_SRC_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/stm/field.h"

namespace sb7::trace {

/// Trace event kinds, one per transaction-lifecycle edge the TxObserver
/// seam reports.
enum class EventKind : uint8_t {
  kBegin = 0,   // attempt started            (arg = retry index, 0 = first)
  kValidation,  // backend validation pass    (arg = read-set entries checked)
  kBackoff,     // backoff before a retry     (arg = attempt index >= 1)
  kAbort,       // attempt aborted            (arg = retry index; cause set)
  kCommit,      // attempt committed          (arg = retry index)
};

/// One sampled lifecycle event: 16 bytes, trivially copyable.
struct TraceEvent {
  int64_t nanos = 0;                           // sb7::NowNanos() at the event
  EventKind kind = EventKind::kBegin;
  AbortCause cause = AbortCause::kUnknown;     // kAbort only
  int16_t op = -1;                             // registry op index; -1 = none
  uint32_t arg = 0;                            // kind-specific (see EventKind)
};
static_assert(sizeof(TraceEvent) == 16, "TraceEvent is copied in bulk; keep it dense");

/// SPSC drop-new ring. Push from the owning thread only; Drain from one
/// thread at a time (concurrently with Push is fine).
class EventRing {
 public:
  explicit EventRing(size_t capacity) {
    size_t rounded = 1;
    while (rounded < capacity) {
      rounded <<= 1;
    }
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  void Push(const TraceEvent& event) {
    // mo: relaxed — head is producer-owned; only this thread advances it.
    const uint64_t head = head_.load(std::memory_order_relaxed);
    // mo: acquire — pairs with the consumer's release of tail: a released
    // slot may be rewritten only after the consumer is done reading it.
    if (head - tail_.load(std::memory_order_acquire) >= slots_.size()) {
      // mo: relaxed — overflow tally; read after the run quiesces.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[head & mask_] = event;
    // mo: release — publishes the filled slot before the new head.
    head_.store(head + 1, std::memory_order_release);
  }

  /// Appends all currently published events to `out`; returns how many.
  size_t Drain(std::vector<TraceEvent>& out) {
    // mo: acquire on head (pairs with the producer's release — slot
    // contents are visible); relaxed on tail (consumer-owned).
    const uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    const size_t count = static_cast<size_t>(head - tail);
    out.reserve(out.size() + count);
    while (tail != head) {
      out.push_back(slots_[tail & mask_]);
      ++tail;
    }
    // mo: release — hands the consumed slots back to the producer.
    tail_.store(tail, std::memory_order_release);
    return count;
  }

  // mo: relaxed — tally; read after the run quiesces.
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<TraceEvent> slots_;
  size_t mask_ = 0;
  std::atomic<uint64_t> head_{0};  // next slot to write (producer-owned)
  std::atomic<uint64_t> tail_{0};  // next slot to read (consumer-owned)
  std::atomic<int64_t> dropped_{0};
};

}  // namespace sb7::trace

#endif  // STMBENCH7_SRC_TRACE_RING_H_
