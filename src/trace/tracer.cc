#include "src/trace/tracer.h"

#include "src/common/diag.h"
#include "src/common/timing.h"

namespace sb7::trace {
namespace {

// Owner-tagged thread-local slot (the HistoryRecorder pattern, hardened):
// a worker's state pointer is only trusted when the owner tag matches the
// installed tracer, so sequential tracers in one process never cross-talk
// and states owned by the tracer survive worker-thread exit. The tag is a
// process-unique instance id rather than the tracer's address — unlike the
// recorder's thread-owned buffers, the slot points into tracer-owned heap
// state, and a later tracer constructed where a destroyed one lived must
// not inherit a freed pointer through address reuse.
struct TlsSlot {
  uint64_t owner = 0;
  void* state = nullptr;
};
thread_local TlsSlot tls_slot;

// mo: relaxed — id allocation only needs uniqueness, not ordering.
std::atomic<uint64_t> g_next_tracer_id{1};

// Conflict key of a field: the address of its lock word, matching the keys
// backends attach to aborts.
uintptr_t KeyOf(const TxFieldBase& field) {
  // raw-ok: the address is only a key; the lock word is never loaded here.
  return reinterpret_cast<uintptr_t>(&field.LockWord());
}

}  // namespace

Tracer::Tracer(TraceOptions options)
    : options_(options),
      // mo: relaxed — the id only needs uniqueness, not ordering.
      instance_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  if (installed_) {
    Uninstall();
  }
}

void Tracer::Install() {
  SB7_CHECK(!installed_);
  SetTxTimingEnabled(true);
  SB7_CHECK(InstallTxObserver(this));
  installed_ = true;
}

void Tracer::Uninstall() {
  SB7_CHECK(installed_);
  SB7_CHECK(RemoveTxObserver(this));
  SetTxTimingEnabled(false);
  installed_ = false;
}

Tracer::ThreadState& Tracer::LocalState() {
  if (tls_slot.owner != instance_id_) {
    auto state = std::make_unique<ThreadState>(options_);
    ThreadState* raw = state.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      raw->tid = static_cast<int>(states_.size());
      states_.push_back(std::move(state));
    }
    tls_slot = TlsSlot{instance_id_, raw};
  }
  return *static_cast<ThreadState*>(tls_slot.state);
}

void Tracer::PushEvent(ThreadState& state, EventKind kind, uint32_t arg, AbortCause cause) {
  TraceEvent event;
  event.nanos = NowNanos();
  event.kind = kind;
  event.cause = cause;
  const int op = TxOpContext();
  event.op = static_cast<int16_t>(op >= -1 && op < INT16_MAX ? op : -1);
  event.arg = arg;
  state.ring.Push(event);
}

void Tracer::OnTxBegin(bool /*read_only*/) noexcept {
  ThreadState& state = LocalState();
  if (state.retries == 0) {
    // First attempt of a new transaction: roll the sampling dice once; the
    // decision sticks across its retries.
    state.sampled = (state.tx_counter++ % options_.sample_period) == 0;
  }
  if (state.sampled) {
    PushEvent(state, EventKind::kBegin, state.retries);
  }
}

void Tracer::OnTxCommit() noexcept {
  ThreadState& state = LocalState();
  if (state.sampled) {
    PushEvent(state, EventKind::kCommit, state.retries);
  }
  state.retries = 0;
}

void Tracer::OnTxAbort(const TxAbortInfo& info) noexcept {
  ThreadState& state = LocalState();
  conflicts_.RecordAbort(info.conflict_key, TxOpContext());
  if (state.sampled) {
    PushEvent(state, EventKind::kAbort, state.retries, info.cause);
  }
  ++state.retries;
}

void Tracer::OnTxWrite(const TxFieldBase& field, uint64_t /*word*/) noexcept {
  // Last-writer tracking is what abort attribution pairs victims against.
  conflicts_.RecordWrite(KeyOf(field), TxOpContext());
}

void Tracer::OnTxValidation(size_t steps) noexcept {
  ThreadState& state = LocalState();
  if (state.sampled) {
    PushEvent(state, EventKind::kValidation,
              static_cast<uint32_t>(steps < UINT32_MAX ? steps : UINT32_MAX));
  }
}

void Tracer::OnTxBackoff(int attempt) noexcept {
  ThreadState& state = LocalState();
  if (state.sampled) {
    PushEvent(state, EventKind::kBackoff, static_cast<uint32_t>(attempt));
  }
}

void Tracer::OnTxAttemptTiming(const TxAttemptTiming& timing, bool committed) noexcept {
  ThreadState& state = LocalState();
  OpLatencyBreakdown& slot = state.by_op[ConflictOpSlot(TxOpContext())];
  slot.attempts += 1;
  (committed ? slot.commits : slot.aborts) += 1;
  slot.read_nanos += timing.read_nanos;
  slot.validation_nanos += timing.validation_nanos;
  slot.commit_nanos += timing.commit_nanos;
  slot.backoff_nanos += timing.backoff_nanos;
}

std::vector<Tracer::ThreadStream> Tracer::DrainEvents() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadStream> streams;
  streams.reserve(states_.size());
  for (const auto& state : states_) {
    ThreadStream stream;
    stream.tid = state->tid;
    state->ring.Drain(stream.events);
    stream.dropped = state->ring.dropped();
    streams.push_back(std::move(stream));
  }
  return streams;
}

int64_t Tracer::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& state : states_) {
    total += state->ring.dropped();
  }
  return total;
}

std::vector<OpLatencyBreakdown> Tracer::LatencyByOp() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<OpLatencyBreakdown> merged(kConflictOpSlots);
  for (const auto& state : states_) {
    for (int i = 0; i < kConflictOpSlots; ++i) {
      const OpLatencyBreakdown& from = state->by_op[i];
      OpLatencyBreakdown& into = merged[i];
      into.attempts += from.attempts;
      into.commits += from.commits;
      into.aborts += from.aborts;
      into.read_nanos += from.read_nanos;
      into.validation_nanos += from.validation_nanos;
      into.commit_nanos += from.commit_nanos;
      into.backoff_nanos += from.backoff_nanos;
    }
  }
  return merged;
}

}  // namespace sb7::trace
