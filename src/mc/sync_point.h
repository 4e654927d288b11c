/// \file
/// The SyncPoint instrumentation seam for the deterministic interleaving
/// explorer (src/mc/, binary `sb7-mc`).
///
/// `sp::Atomic<T>` is a drop-in stand-in for `std::atomic<T>` used at every
/// *protocol* atomic of the STM backends: the global version clock
/// (src/stm/lock_table.h), the NOrec sequence lock, each field's versioned
/// lock word, in-place word and mvstm version-chain head (src/stm/field.h),
/// and
/// the ASTM ownership/seqlock/status words. Purely observational atomics —
/// StmStats counters, the TxObserver registry, trace rings — deliberately
/// stay on `std::atomic`: they never decide protocol outcomes, and every
/// extra sync point multiplies the explorer's schedule space.
///
/// Two build modes, selected by the SB7_MC compile definition
/// (`cmake -DSB7_MC=ON`, or the `mc` preset in CMakePresets.json):
///
///   * OFF (default): `sp::Atomic` is an alias template for `std::atomic`.
///     No wrapper object, no extra load, no branch — the seam compiles to
///     exactly the raw atomics the benchmark always used. The CI perf gate
///     (`sb7-bench --compare`) pins this "costs nothing" claim.
///   * ON: every operation first reports (address, operation kind) to
///     `sp::SyncPoint`, where a cooperative scheduler (src/mc/scheduler.h)
///     may park the calling thread until the explorer grants it the next
///     step. Threads never registered with a scheduler pass straight
///     through, so structure setup and unrelated tests run undisturbed.
///
/// The wrapper mirrors the subset of the `std::atomic` interface the
/// backends use; operations default to seq_cst like `std::atomic` (the
/// in-tree lint `sb7-lint` independently forbids *call sites* in the STM
/// directories from relying on that default).

#ifndef STMBENCH7_SRC_MC_SYNC_POINT_H_
#define STMBENCH7_SRC_MC_SYNC_POINT_H_

#include <atomic>
#include <cstdint>

namespace sb7::sp {

/// What an instrumented thread is about to do at a sync point. The explorer
/// derives its dependence relation from this: two pending operations
/// conflict iff they target the same address and at least one of them
/// writes. The `kRacy*` kinds mark *modeled* plain (non-atomic) accesses in
/// mc litmus programs; a co-enabled conflicting pair involving one of them
/// is reported as a data race. `kFree` marks a modeled deallocation; any
/// later access to a freed address is reported as a use-after-free.
enum class OpKind : uint8_t {
  kLoad = 0,
  kStore,
  kRmw,        // fetch_add / exchange / compare_exchange
  kRacyLoad,   // modeled non-atomic read (litmus models only)
  kRacyStore,  // modeled non-atomic write (litmus models only)
  kFree,       // modeled deallocation (litmus models only)
  kYield,      // scheduling point with no memory effect (backoff, spin)
};

constexpr bool IsWriteKind(OpKind kind) {
  return kind == OpKind::kStore || kind == OpKind::kRmw || kind == OpKind::kRacyStore ||
         kind == OpKind::kFree;
}

constexpr bool IsRacyKind(OpKind kind) {
  return kind == OpKind::kRacyLoad || kind == OpKind::kRacyStore;
}

constexpr const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLoad:
      return "load";
    case OpKind::kStore:
      return "store";
    case OpKind::kRmw:
      return "rmw";
    case OpKind::kRacyLoad:
      return "racy-load";
    case OpKind::kRacyStore:
      return "racy-store";
    case OpKind::kFree:
      return "free";
    case OpKind::kYield:
      return "yield";
  }
  return "?";
}

#ifdef SB7_MC

/// Reports an imminent operation on `addr` to the active cooperative
/// scheduler, parking the calling thread until it is granted the step.
/// Pass-through for threads not registered with a scheduler. Defined in
/// src/mc/scheduler.cc.
void SyncPoint(const void* addr, OpKind kind);

/// True when the calling thread is under cooperative scheduling; used by
/// Backoff::Pause to replace real spinning/sleeping with one deterministic
/// yield sync point (wall-clock waits would only slow exploration — the
/// scheduler already decides who runs).
bool UnderMcScheduler();

/// Instrumented atomic: `std::atomic<T>` plus a SyncPoint before every
/// operation. Only the operations the STM backends use are mirrored.
template <typename T>
class Atomic {
 public:
  constexpr Atomic() noexcept : value_(T{}) {}
  constexpr Atomic(T desired) noexcept : value_(desired) {}  // NOLINT(google-explicit-constructor): mirrors std::atomic
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    SyncPoint(this, OpKind::kLoad);
    return value_.load(order);
  }
  void store(T desired, std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kStore);
    value_.store(desired, order);
  }
  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kRmw);
    return value_.exchange(desired, order);
  }
  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kRmw);
    return value_.fetch_add(arg, order);
  }
  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kRmw);
    return value_.fetch_sub(arg, order);
  }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kRmw);
    return value_.compare_exchange_strong(expected, desired, order);
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order order = std::memory_order_seq_cst) {
    SyncPoint(this, OpKind::kRmw);
    return value_.compare_exchange_weak(expected, desired, order);
  }

 private:
  std::atomic<T> value_;
};

#else  // !SB7_MC

inline void SyncPoint(const void* /*addr*/, OpKind /*kind*/) {}
inline bool UnderMcScheduler() { return false; }

/// Zero-cost mode: the seam *is* std::atomic.
template <typename T>
using Atomic = std::atomic<T>;

#endif  // SB7_MC

using AtomicU64 = Atomic<uint64_t>;

}  // namespace sb7::sp

#endif  // STMBENCH7_SRC_MC_SYNC_POINT_H_
