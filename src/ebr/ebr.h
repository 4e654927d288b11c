// Quiescent-state-based epoch reclamation (QSBR).
//
// Why this exists: the word-based STMs (TL2, TinySTM) read shared memory
// optimistically. A doomed transaction — one that will fail validation — may
// still be dereferencing objects that a concurrent, committed structure-
// modification operation has already unlinked. The original Java benchmark
// leaned on the JVM's garbage collector for this "type-stable memory"
// guarantee; here the same guarantee comes from deferring frees until every
// online thread has passed through a quiescent state (a point outside any
// transaction / critical section).
//
// Usage contract:
//   * a thread registers on its first call into the domain and starts
//     offline: it holds no references and does not hold back the epoch;
//   * Quiesce() brings the thread online and, while online, announces that
//     it holds no references into shared structures. A thread may follow
//     shared pointers only while online, and only up to its next Quiesce();
//   * a thread that stops touching shared structures — before it blocks,
//     waits for other threads or idles — calls Offline(). An online thread
//     that never announces again pins the epoch, and nothing retired after
//     its last announcement is freed;
//   * Retire(), TryReclaim() and DrainAll() also work offline, e.g. on the
//     thread that builds the structure before any reader starts;
//   * deleters run on whichever thread triggers reclamation; they must not
//     touch shared state.
//
// The implementation is the classic three-epoch scheme folded into QSBR: a
// global epoch advances once every online thread has observed it; retired
// objects tagged with epoch E are freed once every online thread has
// announced E + 2. A thread's limbo is in epoch order, so a reclamation pass
// scans the kMaxThreads slots once and frees the safe prefix of the caller's
// limbo: its cost is the objects it frees plus the slot scan, not the length
// of the limbo.

#ifndef STMBENCH7_SRC_EBR_EBR_H_
#define STMBENCH7_SRC_EBR_EBR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <vector>

namespace sb7 {

class EbrDomain {
 public:
  static constexpr int kMaxThreads = 256;

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // Process-wide domain used by the benchmark structure.
  static EbrDomain& Global();

  // Defers destruction of `ptr` until it is provably unreachable. The caller
  // has already unlinked it. May be called offline (see the contract above);
  // the objects of a thread that exits are handed to the orphan list and
  // freed by a later reclamation pass of any thread.
  void Retire(void* ptr, void (*deleter)(void*));

  template <typename T>
  void RetireObject(T* ptr) {
    Retire(const_cast<std::remove_const_t<T>*>(ptr),
           [](void* p) { delete static_cast<std::remove_const_t<T>*>(p); });
  }

  // Announces that the calling thread holds no references into shared
  // structures and brings it online. Cheap; called between operations.
  void Quiesce();

  // Takes the calling thread offline: it holds no references into shared
  // structures until its next Quiesce(), and does not hold back the epoch
  // meanwhile.
  void Offline();

  // Attempts to advance the global epoch and free the caller's objects that
  // became safe. Called internally from Quiesce()/Retire(); exposed for tests
  // and for draining at shutdown.
  void TryReclaim();

  // Frees every retired object unconditionally. Only safe when the caller
  // guarantees no other thread is inside a read-side section (e.g. after all
  // workers joined). Returns the number of objects freed.
  int64_t DrainAll();

  // Number of objects currently waiting in limbo (approximate; for tests).
  int64_t PendingCount() const;

  uint64_t global_epoch() const { return global_epoch_.load(std::memory_order_acquire); }

 private:
  // Announcement of a slot whose thread holds no references: a free slot, a
  // thread that has not quiesced since it registered, or one that went
  // Offline(). Larger than any epoch, so the minimum skips it.
  static constexpr uint64_t kOffline = ~uint64_t{0};

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  struct Slot {
    std::atomic<bool> in_use{false};
    // Last global epoch this thread announced, or kOffline.
    std::atomic<uint64_t> local_epoch{kOffline};
  };

  class ThreadState;
  friend class ThreadState;

  // Claims a free slot for the calling thread and returns its index. The
  // slot starts offline.
  int RegisterThread();
  void UnregisterThread(int slot, std::deque<Retired>&& leftovers);

  ThreadState& LocalState();

  // Smallest epoch announced by any online thread (the global epoch when no
  // thread is online).
  uint64_t MinAnnouncedEpoch() const;

  // Frees the entries retired before `safe_before`. FreePrefix relies on
  // `limbo` being in epoch order and stops at the first entry that is not
  // safe; FreeSafe passes over the whole (unordered) list.
  void FreePrefix(std::deque<Retired>& limbo, uint64_t safe_before);
  void FreeSafe(std::vector<Retired>& limbo, uint64_t safe_before);

  std::atomic<uint64_t> global_epoch_{2};
  // Distinguishes domain generations: a domain constructed at the address of
  // a destroyed one must not inherit cached per-thread state (slots would
  // alias across unrelated threads).
  uint64_t id_;
  Slot slots_[kMaxThreads];

  // Objects inherited from exited threads, concatenated (so not in epoch
  // order); protected by orphan_mu_.
  mutable std::mutex orphan_mu_;
  std::vector<Retired> orphans_;

  std::atomic<int64_t> pending_{0};
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_EBR_EBR_H_
