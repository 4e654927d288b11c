/// \file
/// Transactional field and object model.
///
/// This header defines the seam between the benchmark's data structure and
/// the concurrency-control strategies, playing the role AspectJ weaving
/// plays in the original Java benchmark:
///
///   * `TxField<T>` — a mutable shared field. Get/Set consult the
///     thread-local current transaction. With no transaction installed (the
///     coarse- and medium-grained locking strategies), accesses compile down
///     to plain acquire/release atomics; with a transaction installed they
///     are routed through the STM, except for fields of objects that the
///     running STM attempt built itself (captured memory, below).
///   * `TmUnit` — the per-object header: a registry of the object's fields
///     (a list threaded through the fields themselves), the capture stamp
///     of the attempt that built it, and the metadata the object-granular
///     (ASTM-like) STM needs. Word-based STMs ignore the latter.
///   * `Transaction` — the interface every STM implements.
///   * `TxObserver` — the observation seam the correctness oracle and the
///     tracer (src/trace/) record through; a fixed-capacity multi-observer
///     registry dispatches to every installed observer.
///
/// The core benchmark code therefore contains no concurrency control at
/// all; strategies are injected orthogonally, as §4 of the paper requires.
///
/// Captured memory (Dragojević, Ni & Adl-Tabatabai, SPAA 2009): no other
/// thread can reach an object that the running STM attempt constructed
/// before the commit that links it publishes, and the attempt's abort hooks
/// free it if the attempt dies. Its fields therefore need no barrier. Every
/// unit records the capture stamp of the attempt that constructed it (0
/// outside attempts); Get/Set serve a field whose unit carries the running
/// attempt's stamp straight from its word with a relaxed load or store:
/// no Transaction::Read/Write call, no read-set, write-log or lock entry,
/// no mvstm version. Observers are still notified, so the oracle and the
/// tracer see every access. Stamps are 64-bit and never reused; an attempt
/// draws one lazily, when it constructs its first object, from a per-thread
/// block of one global counter. Only Stm::RunAtomically opens a capture
/// scope, so a transaction installed any other way (the fine strategy's
/// audit) never skips the STM. Since a captured field has no undo, an
/// aborted attempt leaves its objects holding their last values.

#ifndef STMBENCH7_SRC_STM_FIELD_H_
#define STMBENCH7_SRC_STM_FIELD_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/diag.h"
#include "src/common/timing.h"
#include "src/ebr/ebr.h"
#include "src/mc/sync_point.h"

namespace sb7 {

class TxFieldBase;
class TxText;
class AstmTx;

/// Thrown by STM read/write/commit paths to unwind an aborted transaction
/// back to the retry loop. Never escapes Stm::RunAtomically.
struct TxAborted {};

namespace internal {

// Capture scope of the calling thread (see the file comment). Outside an
// STM attempt it is kCaptureOff; inside one it is kCaptureUndrawn until the
// attempt constructs its first unit, then the attempt's stamp. Units built
// outside attempts carry stamp 0, and real stamps start at 1 and stay below
// both sentinels.
inline constexpr uint64_t kCaptureOff = ~uint64_t{0};
inline constexpr uint64_t kCaptureUndrawn = ~uint64_t{0} - 1;
inline thread_local uint64_t tls_capture_stamp = kCaptureOff;

// Stamps are handed out in per-thread blocks of this many, so drawing one
// touches the shared counter once per block, not once per attempt.
inline constexpr uint64_t kCaptureStampBlock = 1024;
inline std::atomic<uint64_t> g_capture_stamp_counter{1};

inline uint64_t DrawCaptureStamp() {
  thread_local uint64_t next = 0;
  thread_local uint64_t end = 0;
  if (next == end) {
    // mo: relaxed — stamps need uniqueness only; a thread compares stamps
    // against its own, never against another thread's.
    next = g_capture_stamp_counter.fetch_add(kCaptureStampBlock, std::memory_order_relaxed);
    end = next + kCaptureStampBlock;
  }
  return next++;
}

// The stamp a unit constructed now records: 0 outside attempts, else the
// running attempt's stamp, drawn here if this is its first unit.
inline uint64_t CaptureStampForNewUnit() {
  uint64_t& stamp = tls_capture_stamp;
  if (stamp == kCaptureOff) {
    return 0;
  }
  if (stamp == kCaptureUndrawn) {
    stamp = DrawCaptureStamp();
  }
  return stamp;
}

}  // namespace internal

/// Opens the calling thread's capture scope for one STM attempt; objects it
/// constructs until CloseCaptureScope() are captured by that attempt. Only
/// Stm::RunAtomically calls these.
inline void OpenCaptureScope() { internal::tls_capture_stamp = internal::kCaptureUndrawn; }
inline void CloseCaptureScope() { internal::tls_capture_stamp = internal::kCaptureOff; }

/// Per-object transactional header. Fields register themselves here at
/// construction time; construction is always thread-private (objects become
/// shared only when a committed transaction links them into the structure),
/// so registration needs no synchronization. The registry allocates
/// nothing: the unit keeps its last registered field and a count, and each
/// field keeps the field registered before it (TxFieldBase::prev_in_unit())
/// and its index within the unit.
class TmUnit {
 public:
  TmUnit() : capture_stamp_(internal::CaptureStampForNewUnit()) {}
  TmUnit(const TmUnit&) = delete;
  TmUnit& operator=(const TmUnit&) = delete;

  /// True when the STM attempt running on the calling thread constructed
  /// this unit: its fields are private to that attempt (see the file
  /// comment). Until the attempt draws a stamp, the thread-local test alone
  /// answers, without loading the unit's stamp.
  bool captured() const {
    const uint64_t stamp = internal::tls_capture_stamp;
    return stamp < internal::kCaptureUndrawn && stamp == capture_stamp_;
  }

  /// Number of fields registered with this unit; their indexes are
  /// [0, field_count()), in registration order.
  uint32_t field_count() const { return field_count_; }
  /// The most recently registered field (null for a field-less unit); the
  /// others follow through TxFieldBase::prev_in_unit().
  TxFieldBase* last_field() const { return last_field_; }

  /// Large out-of-line payload (a document's or the manual's text). The
  /// ASTM-like STM clones its body on write-open, reproducing
  /// object-granularity logging cost.
  void set_payload(const TxText* text) { payload_ = text; }
  const TxText* payload() const { return payload_; }

  // --- metadata owned by the ASTM-like STM ---
  // Protocol atomics (ownership word + per-object seqlock): on the
  // SyncPoint seam so the interleaving explorer can schedule around them.
  sp::Atomic<AstmTx*> astm_owner{nullptr};
  sp::AtomicU64 astm_version{0};

  // --- lock-coverage chain (used by the fine-grained locking strategy) ---
  // Each unit is covered by a lockable ancestor: an atomic part or document
  // by its composite part, a collection chunk by its collection's owner.
  // Cover() resolves the chain to the covering root. Default: self.
  void set_cover(TmUnit* cover) { cover_ = cover; }
  // Topology units (collection internals: links, bags, children sets) are
  // written only by structure-modification operations, which the fine
  // strategy serializes via the structure lock; reads of topology therefore
  // need no per-object lock. Used by the fine strategy's audit mode.
  void set_topology(bool topology) { topology_ = topology; }
  bool topology() const { return topology_; }
  TmUnit* Cover() {
    TmUnit* unit = this;
    while (unit->cover_ != unit) {
      unit = unit->cover_;
    }
    return unit;
  }
  const TmUnit* Cover() const { return const_cast<TmUnit*>(this)->Cover(); }

 private:
  friend class TxFieldBase;  // registers itself in the constructor

  TxFieldBase* last_field_ = nullptr;
  const TxText* payload_ = nullptr;
  TmUnit* cover_ = this;
  uint32_t field_count_ = 0;
  bool topology_ = false;
  // Last, so that in a derived object it sits next to the first fields
  // and is read from the cache line they share.
  const uint64_t capture_stamp_;
};

/// Base class for shared benchmark objects: owns the TmUnit.
class TmObject {
 public:
  TmObject() = default;
  TmObject(const TmObject&) = delete;
  TmObject& operator=(const TmObject&) = delete;
  virtual ~TmObject() = default;

  TmUnit& unit() { return unit_; }
  const TmUnit& unit() const { return unit_; }

 private:
  TmUnit unit_;
};

/// STM interface. One instance per in-flight transaction.
class Transaction {
 public:
  virtual ~Transaction() = default;

  /// Transactional load of one 64-bit word.
  virtual uint64_t Read(const TxFieldBase& field) = 0;
  /// Transactional store of one 64-bit word.
  virtual void Write(TxFieldBase& field, uint64_t value) = 0;

  /// Deferred actions. Commit hooks run exactly once, after the commit
  /// point (used to retire replaced payloads and unlinked nodes through
  /// EBR); abort hooks run on every abort (used to free allocations that
  /// never became shared). Hooks must not touch transactional state.
  void OnCommit(std::function<void()> hook) { commit_hooks_.push_back(std::move(hook)); }
  void OnAbort(std::function<void()> hook) { abort_hooks_.push_back(std::move(hook)); }

 protected:
  void RunCommitHooks() {
    for (auto& hook : commit_hooks_) {
      hook();
    }
    commit_hooks_.clear();
    abort_hooks_.clear();
  }
  void RunAbortHooks() {
    for (auto& hook : abort_hooks_) {
      hook();
    }
    commit_hooks_.clear();
    abort_hooks_.clear();
  }

  std::vector<std::function<void()>> commit_hooks_;
  std::vector<std::function<void()>> abort_hooks_;
};

// Thread-local current transaction; null outside transactions (lock modes).
inline thread_local Transaction* tls_current_tx = nullptr;

inline Transaction* CurrentTx() { return tls_current_tx; }
inline void SetCurrentTx(Transaction* tx) { tls_current_tx = tx; }

/// Why a transaction attempt died, as reported by the backend at the abort
/// site. `kUnknown` covers aborts whose site was never annotated (a bug) and
/// self-aborts that carry no conflict (operation-level retry).
enum class AbortCause : uint8_t {
  kUnknown = 0,
  kReadValidation,   // a read-set entry no longer validates at its snapshot
  kWriteLock,        // lost a race for a write lock / ownership arbitration
  kKill,             // killed by a contention manager (object STM)
  kSnapshotTooOld,   // the attempt's snapshot cannot serve the access (mvstm)
};
inline constexpr int kAbortCauseCount = 5;

constexpr const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kReadValidation:
      return "read_validation";
    case AbortCause::kWriteLock:
      return "write_lock";
    case AbortCause::kKill:
      return "kill";
    case AbortCause::kSnapshotTooOld:
      return "snapshot_too_old";
    case AbortCause::kUnknown:
      break;
  }
  return "unknown";
}

/// What a backend knows about an abort at the point it decides to die: the
/// cause, plus an opaque conflict key identifying the contended location
/// (the address of the field's lock word for the word STMs; null when the
/// site has no single location, e.g. contention-manager kills).
struct TxAbortInfo {
  AbortCause cause = AbortCause::kUnknown;
  uintptr_t conflict_key = 0;
};

namespace internal {
inline thread_local TxAbortInfo tls_tx_abort_info{};
}  // namespace internal

/// Called by backends immediately before throwing TxAborted or returning
/// false from TryCommit. A plain thread-local store — cheap enough to keep
/// unconditional on abort paths.
inline void SetTxAbortCause(AbortCause cause, const void* conflict_key = nullptr) {
  internal::tls_tx_abort_info =
      TxAbortInfo{cause, reinterpret_cast<uintptr_t>(conflict_key)};
}

/// Consumed once per abort by Stm::RunAtomically; resets to kUnknown so a
/// stale cause can never be attributed to a later abort.
inline TxAbortInfo ConsumeTxAbortInfo() {
  const TxAbortInfo info = internal::tls_tx_abort_info;
  internal::tls_tx_abort_info = TxAbortInfo{};
  return info;
}

/// Operation context for attribution: the index (registry order) of the
/// benchmark operation the calling thread is currently executing, -1 outside
/// operations. Set by the harness worker loop around Execute; read by trace
/// observers to label transactions and conflicts by op type.
namespace internal {
inline thread_local int tls_tx_op_context = -1;
}  // namespace internal

inline void SetTxOpContext(int op_index) { internal::tls_tx_op_context = op_index; }
inline int TxOpContext() { return internal::tls_tx_op_context; }

/// Per-attempt latency decomposition, produced by Stm::RunAtomically when
/// transaction timing is enabled (see SetTxTimingEnabled). All buckets are
/// nanoseconds of the attempt just ended; `validation_nanos` is accumulated
/// by the backends' validation passes and subtracted from the enclosing
/// body/commit buckets so the four buckets are disjoint.
struct TxAttemptTiming {
  int64_t read_nanos = 0;        // operation body: read-set build + compute
  int64_t validation_nanos = 0;  // backend validation passes (body + commit)
  int64_t commit_nanos = 0;      // TryCommit outside validation
  int64_t backoff_nanos = 0;     // contention backoff before the attempt
};

/// Global switch for per-attempt timing. Off by default: the retry loop then
/// takes no timestamps at all, keeping the tracing-off hot path free of
/// clock reads. Flip only while no transactions are in flight.
namespace internal {
inline std::atomic<bool> g_tx_timing_enabled{false};
inline thread_local int64_t tls_tx_validation_nanos = 0;
}  // namespace internal

inline bool TxTimingEnabled() {
  // mo: relaxed — advisory flag, flipped only while no tx is in flight.
  return internal::g_tx_timing_enabled.load(std::memory_order_relaxed);
}
inline void SetTxTimingEnabled(bool enabled) {
  // mo: relaxed — see TxTimingEnabled; quiescence provides the ordering.
  internal::g_tx_timing_enabled.store(enabled, std::memory_order_relaxed);
}

/// Observation seam shared by the correctness oracle (src/check/history.*)
/// and the tracer (src/trace/). When observers are installed, every
/// transactional field access and every attempt boundary (begin / commit /
/// abort, driven by Stm::RunAtomically) is reported to each of them, in
/// installation order. The hot-path guard is a single relaxed load of a
/// global counter — zero in normal runs, so benchmark numbers are
/// unaffected unless observation was explicitly requested.
/// Install/remove only while no transactions are in flight; observers
/// themselves must be thread-safe (they are called concurrently from every
/// worker).
///
/// Every callback is `noexcept` (enforced by `sb7-lint`): observers fire on
/// STM hot paths — inside the retry loop and between a backend's lock
/// acquisition and release — where an escaping exception would unwind
/// through protocol state (held locks, odd seqlocks) and corrupt it.
class TxObserver {
 public:
  virtual ~TxObserver() = default;

  /// A new attempt started on the calling thread (read_only = retry-loop
  /// hint).
  virtual void OnTxBegin(bool read_only) noexcept = 0;
  /// The attempt committed; called after the commit point, on the
  /// committing thread, before control returns to the operation.
  virtual void OnTxCommit() noexcept = 0;
  /// The attempt aborted; `info` carries the backend-reported cause and
  /// conflict key (kUnknown/null when the site did not annotate).
  virtual void OnTxAbort(const TxAbortInfo& info) noexcept = 0;

  /// A transactional read; `word` is the raw 64-bit encoding the STM
  /// returned.
  virtual void OnTxRead(const TxFieldBase& field, uint64_t word) noexcept {
    (void)field;
    (void)word;
  }
  /// A transactional write; `word` is the raw 64-bit encoding consumed.
  virtual void OnTxWrite(const TxFieldBase& field, uint64_t word) noexcept {
    (void)field;
    (void)word;
  }
  /// A field was constructed (word = its initial value). Needed because
  /// field addresses are recycled: a node freed through EBR and a node
  /// later allocated at the same address are different logical locations,
  /// and the birth event is what re-grounds the address in a recorded
  /// history.
  virtual void OnFieldBirth(const TxFieldBase& field, uint64_t word) noexcept {
    (void)field;
    (void)word;
  }
  /// A raw (non-transactional) store. Inside a transaction this is either
  /// pre-publication seeding of a private object or STM writeback of
  /// already recorded values; both are safely treated as writes of the
  /// enclosing transaction.
  virtual void OnRawStore(const TxFieldBase& field, uint64_t word) noexcept {
    (void)field;
    (void)word;
  }
  /// A backend validation pass finished on the calling thread; `steps` is
  /// the number of read-set entries re-checked.
  virtual void OnTxValidation(size_t steps) noexcept { (void)steps; }
  /// The calling thread is about to back off before retry `attempt` (>= 1).
  virtual void OnTxBackoff(int attempt) noexcept { (void)attempt; }
  /// Latency decomposition of the attempt that just ended. Only fired when
  /// TxTimingEnabled(); precedes the matching OnTxCommit/OnTxAbort.
  virtual void OnTxAttemptTiming(const TxAttemptTiming& timing, bool committed) noexcept {
    (void)timing;
    (void)committed;
  }
};

/// Fixed-capacity observer registry. The count is the publication point:
/// slots [0, count) are fully written before the count that exposes them is
/// stored, so dispatch needs no lock. The capacity is deliberately tiny —
/// an observer is a whole measurement subsystem (oracle, tracer), not a
/// callback list.
inline constexpr int kMaxTxObservers = 4;

namespace internal {
inline std::atomic<int> g_tx_observer_count{0};
inline std::atomic<TxObserver*> g_tx_observers[kMaxTxObservers]{};
inline std::mutex g_tx_observer_mutex;
}  // namespace internal

/// Hot-path guard: one relaxed load, one branch, nothing else when no
/// observer is installed.
inline bool HasTxObservers() {
  // mo: relaxed — a zero/nonzero guard; dispatch re-loads with acquire.
  return internal::g_tx_observer_count.load(std::memory_order_relaxed) != 0;
}

/// Installs `observer` at the end of the list. Returns false (and installs
/// nothing) when the list is full, the observer is null, or it is already
/// installed. Only call while no transactions are in flight.
inline bool InstallTxObserver(TxObserver* observer) {
  if (observer == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(internal::g_tx_observer_mutex);
  // mo: relaxed — reads under the registry mutex, which orders all writers.
  const int count = internal::g_tx_observer_count.load(std::memory_order_relaxed);
  if (count >= kMaxTxObservers) {
    return false;
  }
  for (int i = 0; i < count; ++i) {
    // mo: relaxed — slot reads under the same registry mutex.
    if (internal::g_tx_observers[i].load(std::memory_order_relaxed) == observer) {
      return false;
    }
  }
  // mo: release — slot must be fully visible before the count that exposes
  // it (the count store below is the publication point for dispatch).
  internal::g_tx_observers[count].store(observer, std::memory_order_release);
  internal::g_tx_observer_count.store(count + 1, std::memory_order_release);
  return true;
}

/// Removes a previously installed observer, compacting the list. Returns
/// false when it was not installed. Only call while no transactions are in
/// flight (compaction is not safe against concurrent dispatch).
inline bool RemoveTxObserver(TxObserver* observer) {
  std::lock_guard<std::mutex> lock(internal::g_tx_observer_mutex);
  // mo: relaxed — reads under the registry mutex (see InstallTxObserver).
  const int count = internal::g_tx_observer_count.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    // mo: relaxed — slot reads under the same registry mutex.
    if (internal::g_tx_observers[i].load(std::memory_order_relaxed) != observer) {
      continue;
    }
    for (int j = i; j + 1 < count; ++j) {
      // mo: release stores / relaxed loads — compaction runs under the
      // mutex; release keeps each slot coherent for concurrent dispatch
      // (which is documented unsafe during removal anyway).
      internal::g_tx_observers[j].store(
          internal::g_tx_observers[j + 1].load(std::memory_order_relaxed),
          std::memory_order_release);
    }
    // mo: release — shrink the published window before dropping the slot.
    internal::g_tx_observers[count - 1].store(nullptr, std::memory_order_release);
    internal::g_tx_observer_count.store(count - 1, std::memory_order_release);
    return true;
  }
  return false;
}

/// Dispatches `fn(TxObserver&)` to every installed observer, in
/// installation order. Callers guard with HasTxObservers() so the empty
/// case stays a single branch.
template <typename Fn>
inline void NotifyTxObservers(Fn&& fn) {
  // mo: acquire — pairs with the release publication in InstallTxObserver:
  // a count of N guarantees slots [0, N) are fully written.
  const int count = internal::g_tx_observer_count.load(std::memory_order_acquire);
  for (int i = 0; i < count; ++i) {
    // mo: acquire — the observer object must be constructed before use.
    if (TxObserver* observer = internal::g_tx_observers[i].load(std::memory_order_acquire)) {
      fn(*observer);
    }
  }
}

/// Scoped instrumentation for one backend validation pass. Reports the pass
/// to observers (OnTxValidation) and, when transaction timing is enabled,
/// charges its duration to the attempt's validation bucket so
/// TxAttemptTiming can subtract it from the enclosing body/commit time.
class TxValidationScope {
 public:
  TxValidationScope() : start_(TxTimingEnabled() ? NowNanos() : 0) {}
  TxValidationScope(const TxValidationScope&) = delete;
  TxValidationScope& operator=(const TxValidationScope&) = delete;
  ~TxValidationScope() {
    if (start_ != 0) {
      internal::tls_tx_validation_nanos += NowNanos() - start_;
    }
    if (HasTxObservers()) {
      NotifyTxObservers([this](TxObserver& observer) { observer.OnTxValidation(steps_); });
    }
  }

  void set_steps(size_t steps) { steps_ = steps; }

 private:
  int64_t start_;
  size_t steps_ = 0;
};

namespace internal {
// Defined in src/mvstm/version_chain.cc. Frees the head node of a field's
// multi-version history; all older nodes were retired through EBR when they
// were displaced, so destruction owns exactly the head node.
void FreeMvHistoryHead(void* head);
}  // namespace internal

/// Untyped shared word. The word doubles as the in-place value for every
/// STM flavour; per-location versioning lives in the field's own versioned
/// lock (word STMs, encoded by LockTable), in the owning TmUnit (object
/// STM), or in the per-field version chain (multi-version STM).
class TxFieldBase {
 public:
  TxFieldBase(TmUnit& owner, uint64_t initial)
      : word_(initial),
        owner_(&owner),
        prev_in_unit_(owner.last_field_),
        index_in_unit_(owner.field_count_) {
    owner.last_field_ = this;
    ++owner.field_count_;
    if (HasTxObservers()) {
      NotifyTxObservers(
          [&](TxObserver& observer) { observer.OnFieldBirth(*this, initial); });
    }
  }
  TxFieldBase(const TxFieldBase&) = delete;
  TxFieldBase& operator=(const TxFieldBase&) = delete;
  ~TxFieldBase() {
    // Destruction implies exclusivity (objects are unlinked by a committed
    // transaction and reclaimed through EBR before their fields die).
    // mo: relaxed — no rival access can exist by the argument above.
    if (void* head = mv_history_.load(std::memory_order_relaxed)) {
      internal::FreeMvHistoryHead(head);
    }
  }

  TmUnit& owner() const { return *owner_; }
  /// This field's slot in its unit (its word's position in ASTM images).
  uint32_t index_in_unit() const { return index_in_unit_; }
  /// The field of the same unit registered just before this one; null for
  /// the unit's first field.
  TxFieldBase* prev_in_unit() const { return prev_in_unit_; }

  // Raw access, used by the STM implementations and by the lock-mode fall-
  // through. Not for use by benchmark code (enforced by sb7-lint): Get/Set
  // are the only seam benchmark code may cross.
  uint64_t LoadRaw(std::memory_order order = std::memory_order_acquire) const {
    // mo: caller-supplied; defaults to acquire for the lock-mode fall-through.
    return word_.load(order);
  }
  void StoreRaw(uint64_t value, std::memory_order order = std::memory_order_release) {
    // mo: caller-supplied; defaults to release for the lock-mode fall-through.
    word_.store(value, order);
    if (HasTxObservers()) {
      NotifyTxObservers(
          [&](TxObserver& observer) { observer.OnRawStore(*this, value); });
    }
  }

  // Versioned lock of this field for the word STMs (tl2, tinystm, mvstm):
  // version << 1 when unlocked, owning transaction | 1 when locked (see
  // LockTable). Born unlocked at version 0, which is at or below every
  // snapshot: a field is unreachable until a committed write links it. Its
  // memory, and so the lock, is reused only after EBR's grace period, so no
  // running transaction can hold a stale pointer to it. Not for use by
  // benchmark code (enforced by sb7-lint, as for the raw accessors).
  sp::AtomicU64& LockWord() const { return lock_; }

  // --- multi-version hook (mvstm backend) ---
  // Head of this field's committed-version history, managed by
  // src/mvstm/version_chain.*. Null until the mvstm backend first writes the
  // field; only ever stored while holding the field's lock.
  void* LoadMvHistory(std::memory_order order = std::memory_order_acquire) const {
    // mo: caller-supplied; acquire default makes the node's fields visible.
    return mv_history_.load(order);
  }
  void StoreMvHistory(void* head, std::memory_order order = std::memory_order_release) {
    // mo: caller-supplied; release default publishes the node's fields.
    mv_history_.store(head, order);
  }

 protected:
  // Store to a captured field (TmUnit::captured()) by the attempt that
  // built it. mo: relaxed — no other thread can reach the field until the
  // commit that links its unit publishes it (a release by every backend),
  // and readers reach it through that link with acquire loads. Not
  // OnRawStore: Set reports the store to observers as a transactional write.
  void StoreCaptured(uint64_t value) { word_.store(value, std::memory_order_relaxed); }

 private:
  // All three on the SyncPoint seam (src/mc/sync_point.h): the lock is what
  // the word STMs race on, the in-place word is the datum every STM
  // protocol reads, and the version-chain head is mvstm's publication
  // point. The lock sits next to the word so that an access touches one
  // cache line. Mutable: reading a field transactionally records or checks
  // its lock, which is metadata, not the field's value.
  mutable sp::AtomicU64 lock_{0};
  sp::AtomicU64 word_;
  sp::Atomic<void*> mv_history_{nullptr};
  TmUnit* owner_;
  TxFieldBase* prev_in_unit_;
  uint32_t index_in_unit_;
};

namespace internal {

template <typename T>
uint64_t EncodeWord(const T& value) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "TxField requires a trivially copyable type of at most 8 bytes");
  uint64_t word = 0;
  std::memcpy(&word, &value, sizeof(T));
  return word;
}

template <typename T>
T DecodeWord(uint64_t word) {
  T value;
  std::memcpy(&value, &word, sizeof(T));
  return value;
}

}  // namespace internal

/// Typed shared field: Get/Set route through the thread-local current
/// transaction when one is installed, unless the running STM attempt built
/// the field's unit (then the word is private to it and served directly),
/// and fall through to plain acquire/release atomics otherwise (the lock
/// strategies).
template <typename T>
class TxField : public TxFieldBase {
 public:
  TxField(TmUnit& owner, const T& initial) : TxFieldBase(owner, internal::EncodeWord(initial)) {}

  T Get() const {
    if (Transaction* tx = CurrentTx()) {
      // A captured field is private to this attempt (see StoreCaptured).
      const uint64_t word =
          owner().captured() ? LoadRaw(std::memory_order_relaxed) : tx->Read(*this);
      if (HasTxObservers()) {
        NotifyTxObservers(
            [&](TxObserver& observer) { observer.OnTxRead(*this, word); });
      }
      return internal::DecodeWord<T>(word);
    }
    return internal::DecodeWord<T>(LoadRaw());
  }

  void Set(const T& value) {
    if (Transaction* tx = CurrentTx()) {
      const uint64_t word = internal::EncodeWord(value);
      if (owner().captured()) {
        StoreCaptured(word);
      } else {
        tx->Write(*this, word);
      }
      if (HasTxObservers()) {
        NotifyTxObservers(
            [&](TxObserver& observer) { observer.OnTxWrite(*this, word); });
      }
    } else {
      StoreRaw(internal::EncodeWord(value));
    }
  }
};

/// Mutable text payload (documents, the manual). The body is an immutable
/// heap string; updates allocate a replacement and swap the pointer,
/// retiring the old body through EBR once no thread can still be reading
/// it. This gives word-based STMs a single logical location for the whole
/// text, while the object-granular STM additionally pays the whole-body
/// clone on write-open through the owning unit's payload pointer — exactly
/// the "large object" pathology §5 analyses.
class TxText {
 public:
  TxText(TmUnit& owner, std::string initial)
      : field_(owner, new std::string(std::move(initial))) {
    owner.set_payload(this);
  }

  ~TxText() {
    // The final body is owned by the field; safe to free directly here
    // because destruction implies exclusivity.
    delete field_.Get();
  }

  // Returns the current body. The reference stays valid for the duration of
  // the enclosing operation (EBR defers frees past the next quiescence).
  const std::string& Get() const { return *field_.Get(); }

  void Set(std::string text) {
    auto* fresh = new std::string(std::move(text));
    // A text that the running attempt built keeps `fresh` whether the
    // attempt commits or aborts (its owner's destructor frees it then), so
    // `old` is garbage either way and is retired at once, as without a
    // transaction.
    Transaction* tx = field_.owner().captured() ? nullptr : CurrentTx();
    // Registered before the first transactional access: either access below
    // may abort the attempt, and the fresh body is not yet shared.
    if (tx != nullptr) {
      tx->OnAbort([fresh] { delete fresh; });
    }
    const std::string* old = field_.Get();
    field_.Set(fresh);
    if (tx != nullptr) {
      tx->OnCommit([old] { EbrDomain::Global().RetireObject(old); });
    } else {
      EbrDomain::Global().RetireObject(old);
    }
  }

 private:
  friend class AstmTx;

  // Non-transactional peek used only by the ASTM payload-clone cost model.
  const std::string* PeekRaw() const {
    return internal::DecodeWord<const std::string*>(field_.LoadRaw());
  }

  TxField<const std::string*> field_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_FIELD_H_
