#include "src/stm/stm.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/ebr/ebr.h"
#include "src/mc/sync_point.h"

namespace sb7 {
namespace {

// mo: relaxed — id allocation only needs uniqueness, not ordering.
std::atomic<uint64_t> g_stm_instance_counter{1};

// Cache of transaction objects, keyed by STM instance id so that a recreated
// Stm at a recycled address cannot pick up a stale implementation.
//
// Lifetime: transaction objects are reachable from *other* threads — the
// ASTM contention managers follow unit.astm_owner to read the enemy's status
// and priority — so a thread exiting must not free its cached transactions
// outright (the classic descriptor use-after-free). Instead they are retired
// through EBR, which defers the free until every online thread has passed
// a quiescent state and thus dropped any owner pointer it was chasing.
struct TxCacheEntry {
  uint64_t instance_id = 0;
  std::unique_ptr<TxImplBase> tx;

  TxCacheEntry(uint64_t id, std::unique_ptr<TxImplBase> t) : instance_id(id), tx(std::move(t)) {}
  // Move-construction (vector growth) leaves the source empty, so only the
  // final owner retires. Move-assignment would plain-delete the overwritten
  // descriptor behind EBR's back — deleted until a call site needs it.
  TxCacheEntry(TxCacheEntry&&) = default;
  TxCacheEntry& operator=(TxCacheEntry&&) = delete;
  ~TxCacheEntry() {
    if (tx != nullptr) {
      EbrDomain::Global().RetireObject(tx.release());
    }
  }
};

thread_local std::vector<TxCacheEntry> tls_tx_cache;

// An attempt body runs with the attempt installed as the thread's current
// transaction and with a capture scope open (field.h), so the objects it
// constructs are served without the STM until the attempt ends. Every exit
// from the body closes both.
void EnterAttemptBody(Transaction& tx) {
  SetCurrentTx(&tx);
  OpenCaptureScope();
}

void LeaveAttemptBody() {
  SetCurrentTx(nullptr);
  CloseCaptureScope();
}

Rng& BackoffRng() {
  thread_local Rng rng(0x9bc0ffeeull ^
                       std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return rng;
}

}  // namespace

void Backoff::Pause(int attempt) {
  if (attempt <= 0) {
    return;
  }
  if (sp::UnderMcScheduler()) {
    // Under the interleaving explorer, wall-clock waits are meaningless (the
    // scheduler alone decides who runs) and real sleeps would stall the whole
    // exploration. One yield sync point keeps backoff a scheduling point.
    sp::SyncPoint(nullptr, sp::OpKind::kYield);
    return;
  }
  if (attempt < 3) {
    // Brief spin: the conflicting commit is usually a few instructions away.
    const int spins = 1 << (4 + attempt);
    for (int i = 0; i < spins; ++i) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    return;
  }
  if (attempt < 10) {
    std::this_thread::yield();
    return;
  }
  // Exponential sleep with jitter, capped at 1 ms.
  const int exp = attempt < 20 ? attempt - 10 : 10;
  const uint64_t cap = std::min<uint64_t>(1000, 1ull << exp);
  const uint64_t micros = 1 + BackoffRng().NextBounded(cap);
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

// mo: relaxed — the id only needs uniqueness, not ordering with anything.
Stm::Stm() : instance_id_(g_stm_instance_counter.fetch_add(1, std::memory_order_relaxed)) {}

TxImplBase& Stm::LocalTx() {
  // First transactional access on this thread: go online in the EBR domain
  // (a quiescent point — no shared references are held yet) so reclamation
  // accounts for this thread from its very first operation. Evaluated before
  // tls_tx_cache is first touched: thread-locals are destroyed in reverse
  // construction order, and the cache's destructor retires into EBR, so the
  // EBR per-thread state must be constructed first (destroyed last).
  thread_local bool ebr_registered = (EbrDomain::Global().Quiesce(), true);
  (void)ebr_registered;
  for (auto& entry : tls_tx_cache) {
    if (entry.instance_id == instance_id_) {
      return *entry.tx;
    }
  }
  tls_tx_cache.emplace_back(instance_id_, CreateTx());
  return *tls_tx_cache.back().tx;
}

void Stm::RunAtomically(const std::function<void(Transaction&)>& body, bool read_only) {
  TxImplBase& tx = LocalTx();
  tx.SetReadOnly(read_only);
  // mo: relaxed — StmStats tallies; read only after workers are joined.
  stats_.starts.fetch_add(1, std::memory_order_relaxed);
  if (read_only) {
    stats_.ro_starts.fetch_add(1, std::memory_order_relaxed);
  }
  for (int attempt = 0;; ++attempt) {
    // `timing` is re-sampled per attempt but effectively run-constant (the
    // flag only flips while no transactions are in flight). When off, the
    // loop takes no timestamps at all.
    const bool timing = TxTimingEnabled();
    int64_t backoff_nanos = 0;
    if (attempt > 0 && HasTxObservers()) {
      NotifyTxObservers([&](TxObserver& observer) { observer.OnTxBackoff(attempt); });
    }
    if (timing) {
      const int64_t backoff_start = NowNanos();
      Backoff::Pause(attempt);
      backoff_nanos = NowNanos() - backoff_start;
    } else {
      Backoff::Pause(attempt);
    }
    // Observed before BeginAttempt so the recorded begin event precedes any
    // attempt state (e.g. the TL2-family clock read): the attempt's
    // serialization point then provably lies inside its recorded
    // [begin, commit] interval, which the opacity checker's search exploits.
    if (HasTxObservers()) {
      NotifyTxObservers([&](TxObserver& observer) { observer.OnTxBegin(read_only); });
    }
    tx.BeginAttempt();
    EnterAttemptBody(tx);
    if (timing) {
      internal::tls_tx_validation_nanos = 0;
    }
    const int64_t body_start = timing ? NowNanos() : 0;
    // Timing landmarks for the attempt; filled in as the attempt unwinds.
    // body_validation is the validation time spent inside the body, so the
    // commit bucket can be charged only the validation done during TryCommit.
    int64_t body_end = 0;
    int64_t body_validation = 0;
    int64_t commit_end = 0;
    const auto emit_timing = [&](bool committed) {
      if (!timing || !HasTxObservers()) {
        return;
      }
      TxAttemptTiming t;
      t.backoff_nanos = backoff_nanos;
      t.validation_nanos = internal::tls_tx_validation_nanos;
      t.read_nanos = std::max<int64_t>(0, (body_end - body_start) - body_validation);
      t.commit_nanos = std::max<int64_t>(
          0, (commit_end - body_end) -
                 (internal::tls_tx_validation_nanos - body_validation));
      NotifyTxObservers(
          [&](TxObserver& observer) { observer.OnTxAttemptTiming(t, committed); });
    };
    try {
      body(tx);
      LeaveAttemptBody();
      if (timing) {
        body_end = NowNanos();
        body_validation = internal::tls_tx_validation_nanos;
      }
      if (tx.TryCommit()) {
        // mo: relaxed — StmStats tallies (see above).
        stats_.commits.fetch_add(1, std::memory_order_relaxed);
        if (read_only) {
          stats_.ro_commits.fetch_add(1, std::memory_order_relaxed);
        }
        if (HasTxObservers()) {
          if (timing) {
            commit_end = NowNanos();
          }
          emit_timing(true);
          NotifyTxObservers([&](TxObserver& observer) { observer.OnTxCommit(); });
        }
        return;
      }
      if (timing) {
        commit_end = NowNanos();
      }
    } catch (const TxAborted&) {
      LeaveAttemptBody();
      tx.AbortSelf();
      if (timing) {
        // The body threw mid-flight: everything until now is body time.
        body_end = NowNanos();
        body_validation = internal::tls_tx_validation_nanos;
        commit_end = body_end;
      }
    } catch (...) {
      // Operation-level failure: commit what was read so the failure is based
      // on a consistent snapshot, then propagate it.
      LeaveAttemptBody();
      if (timing) {
        body_end = NowNanos();
        body_validation = internal::tls_tx_validation_nanos;
      }
      if (tx.TryCommit()) {
        // mo: relaxed — StmStats tallies (see above).
        stats_.commits.fetch_add(1, std::memory_order_relaxed);
        if (read_only) {
          stats_.ro_commits.fetch_add(1, std::memory_order_relaxed);
        }
        if (HasTxObservers()) {
          if (timing) {
            commit_end = NowNanos();
          }
          emit_timing(true);
          NotifyTxObservers([&](TxObserver& observer) { observer.OnTxCommit(); });
        }
        throw;
      }
      if (timing) {
        commit_end = NowNanos();
      }
    }
    // mo: relaxed — StmStats tallies (see above).
    stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    if (read_only) {
      stats_.ro_aborts.fetch_add(1, std::memory_order_relaxed);
    }
    const TxAbortInfo abort_info = ConsumeTxAbortInfo();
    stats_.AddAbortCause(abort_info.cause);
    if (HasTxObservers()) {
      emit_timing(false);
      NotifyTxObservers(
          [&](TxObserver& observer) { observer.OnTxAbort(abort_info); });
    }
  }
}

}  // namespace sb7
