/// \file
/// Cooperative scheduler for the deterministic interleaving explorer.
///
/// One execution = N virtual threads (real std::threads) whose every
/// protocol-atomic operation first passes through sp::SyncPoint
/// (src/mc/sync_point.h). A thread reaching a sync point *publishes* the
/// operation it is about to perform — (address, OpKind) — and parks. The
/// control thread (the explorer) waits until every live thread is parked,
/// inspects the pending operations, and grants exactly one thread one step.
/// The granted thread performs its published operation and runs undisturbed
/// until its next sync point (or until it finishes). Because only one
/// virtual thread is ever unparked, the schedule — the sequence of granted
/// thread ids — fully determines the interleaving of instrumented
/// operations, which is what makes executions replayable from a trace.
///
/// The scheduler also hosts the two model-level detectors:
///
///   * data race — at a fully-parked state, a pair of pending operations on
///     the same address where at least one writes and at least one is a
///     kRacy* kind (a *modeled* plain access) is co-enabled: the memory
///     model makes no promise about their order, and the pair is reported.
///   * use-after-free — granting any operation (other than the kFree
///     itself) whose address is in the model-freed set. Litmus programs
///     model deallocation with ModelFree and reuse with ModelAlloc.
///
/// Threads never registered with a scheduler pass through sync points
/// untouched, so structure setup and ordinary tests are undisturbed even in
/// an SB7_MC build.

#ifndef STMBENCH7_SRC_MC_SCHEDULER_H_
#define STMBENCH7_SRC_MC_SCHEDULER_H_

#ifdef SB7_MC

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/mc/sync_point.h"

namespace sb7::mc {

/// A pending (published but not yet granted) operation.
struct PendingOp {
  const void* addr = nullptr;
  sp::OpKind kind = sp::OpKind::kYield;
};

/// Two operations are dependent iff they touch the same address and at
/// least one writes; yields depend on nothing. The explorer's sleep-set
/// reduction and the race detector both derive from this relation.
inline bool Dependent(const PendingOp& a, const PendingOp& b) {
  if (a.kind == sp::OpKind::kYield || b.kind == sp::OpKind::kYield) {
    return false;
  }
  if (a.addr != b.addr) {
    return false;
  }
  return sp::IsWriteKind(a.kind) || sp::IsWriteKind(b.kind);
}

/// One step of a completed or in-flight schedule.
struct ScheduleStep {
  int tid = -1;
  PendingOp op;
};

/// A detected model-level violation.
struct Violation {
  enum class Kind { kNone, kDataRace, kUseAfterFree };
  Kind kind = Kind::kNone;
  std::string detail;  // human-readable: threads, address tag, op kinds
  explicit operator bool() const { return kind != Kind::kNone; }
};

/// Drives one execution of a set of thread bodies. Single-use: construct,
/// Start, repeatedly Step/FreeRun, then Finish (joins). The control thread
/// calling Step must itself be unregistered (it passes through sync points).
class McScheduler {
 public:
  /// `bodies[i]` runs as virtual thread i.
  explicit McScheduler(std::vector<std::function<void()>> bodies);
  ~McScheduler();
  McScheduler(const McScheduler&) = delete;
  McScheduler& operator=(const McScheduler&) = delete;

  /// Spawns the threads and waits for every one to park or finish.
  void Start();

  /// Threads whose next operation is published and grantable.
  std::vector<int> EnabledThreads();

  /// The operation thread `tid` will perform when granted. Only valid for
  /// enabled threads.
  PendingOp PendingOf(int tid);

  /// True once every thread has finished.
  bool AllDone();

  /// Grants `tid` one step and waits for quiescence (all parked/finished).
  /// Returns the step actually taken. Records UAF violations.
  ScheduleStep Step(int tid);

  /// Checks the current fully-parked state for a co-enabled racy pair.
  Violation CheckRaceAtState();

  /// Runs the remaining threads round-robin (fair, deterministic) until all
  /// finish. Used to drain an execution past the step budget or a
  /// sleep-set-blocked state — executions are never abandoned mid-run, as
  /// unwinding through backend code would leave field locks held on cells
  /// that outlive the execution. Returns the number of extra steps taken;
  /// CHECK-fails if `hard_cap` steps do not finish the program (a litmus
  /// that cannot terminate under fair scheduling is a bug in the litmus).
  uint64_t FreeRun(uint64_t hard_cap);

  /// Joins all threads. Must only be called after AllDone().
  void Finish();

  /// First violation recorded during this execution, if any.
  const Violation& violation() const { return violation_; }

  /// Model heap, callable from litmus bodies (thread-safe).
  void ModelAllocAddr(const void* addr);

  // --- internal: called from sp::SyncPoint / thread wrappers ---
  void AtSyncPoint(const void* addr, sp::OpKind kind);

 private:
  void RunThread(int tid);
  bool QuiescentLocked() const;
  void RecordViolation(Violation violation);

  struct ThreadCell {
    bool started = false;
    bool parked = false;    // published an op, waiting for a grant
    bool finished = false;
    bool granted = false;   // may take its published step
    PendingOp pending;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> bodies_;
  std::vector<ThreadCell> cells_;
  std::vector<std::thread> threads_;
  std::unordered_set<const void*> freed_;
  Violation violation_;
  int free_run_cursor_ = 0;
};

/// Tags an address with a stable symbolic name for traces and violation
/// reports (litmus cells register themselves; unknown addresses print raw).
void TagAddress(const void* addr, std::string name);
std::string AddressTag(const void* addr);
void ClearAddressTags();

/// Models deallocation of `addr`: emits a kFree sync point. Later granted
/// accesses to `addr` are use-after-free until ModelAlloc re-arms it.
void ModelFree(const void* addr);

/// Models (re)allocation at `addr`: removes it from the freed set.
void ModelAlloc(const void* addr);

}  // namespace sb7::mc

#endif  // SB7_MC
#endif  // STMBENCH7_SRC_MC_SCHEDULER_H_
