/// \file
/// STM runtime interface: statistics, the retry loop, and backoff.
///
/// Every STM flavour (TL2, TinySTM, NOrec, ASTM-like, mvstm) provides a
/// TxImplBase and is driven by the shared Stm::RunAtomically retry loop,
/// which also ends every attempt: it tallies the attempt into StmStats and
/// runs its hooks. The loop implements the benchmark's failure semantics
/// (§3 of the paper): an exception other than TxAborted thrown by the body
/// is an *operation failure*, which is a committed outcome — the loop
/// attempts to commit the reads performed so far and, only if that commit
/// validates, lets the exception propagate. A failure observed by a
/// transaction that cannot commit was based on an inconsistent snapshot and
/// is retried instead.

#ifndef STMBENCH7_SRC_STM_STM_H_
#define STMBENCH7_SRC_STM_STM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "src/stm/field.h"

namespace sb7 {

/// X-macro over every StmStats counter — the single source of truth for the
/// counter set. Snapshot/Reset/View and the Subtract/Add helpers are all
/// generated from this list, so a counter added here can never again be
/// silently dropped from per-phase deltas (src/harness/driver.cc) or sweep
/// aggregation (src/perf/runner.cc).
///
/// Counter semantics:
///   starts/commits/aborts      — attempt outcomes from the retry loop.
///   reads/writes               — field accesses that went through the
///                                STM; accesses to objects the running
///                                attempt built itself (captured memory,
///                                src/stm/field.h) are not counted.
///   validation_steps           — read-set entries re-checked during
///                                incremental validation; the O(k^2)
///                                signature of invisible-read STMs.
///   bytes_cloned               — object-granular write-open cloning (ASTM).
///   kills                      — transactions aborted by a contention
///                                manager on behalf of another.
///   ro_starts/commits/aborts   — transactions run with the read-only hint
///                                (the snapshot path under mvstm); ro_aborts
///                                staying at zero under concurrent writers
///                                is the defining property of the
///                                multi-version backend.
///   aborts_*                   — `aborts` bucketed by backend-reported
///                                AbortCause; aborts_unknown counts aborts
///                                whose site carried no annotation.
#define SB7_STM_STATS_FIELDS(X) \
  X(starts)                     \
  X(commits)                    \
  X(aborts)                     \
  X(reads)                      \
  X(writes)                     \
  X(validation_steps)           \
  X(bytes_cloned)               \
  X(kills)                      \
  X(ro_starts)                  \
  X(ro_commits)                 \
  X(ro_aborts)                  \
  X(aborts_read_validation)     \
  X(aborts_write_lock)          \
  X(aborts_kill)                \
  X(aborts_snapshot_too_old)    \
  X(aborts_unknown)

/// Aggregate counters, written by the retry loop at attempt boundaries.
/// Each hot counter sits on its own cache line: worker threads bump
/// different counters concurrently, and false sharing here measurably
/// perturbs the very throughput numbers the harness exists to report.
struct StmStats {
#define SB7_STM_STATS_DECLARE(name) alignas(64) std::atomic<int64_t> name{0};
  SB7_STM_STATS_FIELDS(SB7_STM_STATS_DECLARE)
#undef SB7_STM_STATS_DECLARE

  struct View {
#define SB7_STM_STATS_VIEW_FIELD(name) int64_t name = 0;
    SB7_STM_STATS_FIELDS(SB7_STM_STATS_VIEW_FIELD)
#undef SB7_STM_STATS_VIEW_FIELD

    /// a - b, field-wise. The per-phase delta helper.
    static View Subtract(const View& a, const View& b) {
      View diff;
#define SB7_STM_STATS_SUB_FIELD(name) diff.name = a.name - b.name;
      SB7_STM_STATS_FIELDS(SB7_STM_STATS_SUB_FIELD)
#undef SB7_STM_STATS_SUB_FIELD
      return diff;
    }
    /// a + b, field-wise. The sweep-aggregation helper.
    static View Add(const View& a, const View& b) {
      View sum;
#define SB7_STM_STATS_ADD_FIELD(name) sum.name = a.name + b.name;
      SB7_STM_STATS_FIELDS(SB7_STM_STATS_ADD_FIELD)
#undef SB7_STM_STATS_ADD_FIELD
      return sum;
    }
    /// Visits every counter as ("name", value), in X-macro order. Generic
    /// exporters (the telemetry JSONL writer and the Prometheus endpoint)
    /// iterate this instead of naming fields, so a counter added to
    /// SB7_STM_STATS_FIELDS appears in every live-metrics surface with no
    /// further wiring.
    template <typename Fn>
    void ForEachField(Fn&& fn) const {
#define SB7_STM_STATS_VISIT_FIELD(name) fn(#name, name);
      SB7_STM_STATS_FIELDS(SB7_STM_STATS_VISIT_FIELD)
#undef SB7_STM_STATS_VISIT_FIELD
    }
  };

  // mo: relaxed — counters are monotonic tallies read after the worker
  // threads have been joined (phase barriers order the writes); no reader
  // infers other state from a counter value.
  View Snapshot() const {
    View view;
#define SB7_STM_STATS_LOAD_FIELD(name) view.name = name.load(std::memory_order_relaxed);
    SB7_STM_STATS_FIELDS(SB7_STM_STATS_LOAD_FIELD)
#undef SB7_STM_STATS_LOAD_FIELD
    return view;
  }

  // mo: relaxed — only called between phases, when no transaction is in
  // flight; the phase barrier provides the ordering.
  void Reset() {
#define SB7_STM_STATS_RESET_FIELD(name) name.store(0, std::memory_order_relaxed);
    SB7_STM_STATS_FIELDS(SB7_STM_STATS_RESET_FIELD)
#undef SB7_STM_STATS_RESET_FIELD
  }

  /// Bumps the per-cause abort bucket matching `cause`.
  void AddAbortCause(AbortCause cause) {
    std::atomic<int64_t>* bucket = &aborts_unknown;
    switch (cause) {
      case AbortCause::kReadValidation:
        bucket = &aborts_read_validation;
        break;
      case AbortCause::kWriteLock:
        bucket = &aborts_write_lock;
        break;
      case AbortCause::kKill:
        bucket = &aborts_kill;
        break;
      case AbortCause::kSnapshotTooOld:
        bucket = &aborts_snapshot_too_old;
        break;
      case AbortCause::kUnknown:
        break;
    }
    // mo: relaxed — monotonic tally, read only after workers are joined.
    bucket->fetch_add(1, std::memory_order_relaxed);
  }
};

/// Per-attempt transaction implementation. The retry loop owns the life
/// cycle: BeginAttempt -> body -> (TryCommit | AbortSelf), and it ends every
/// attempt itself: it adds the attempt's tallies to StmStats, then runs the
/// commit or abort hooks. A backend only releases its own state: once
/// TryCommit() or AbortSelf() returns, the attempt's field locks, object
/// ownerships and undo state have been released, and no hook has run yet.
class TxImplBase : public Transaction {
 public:
  /// Starts a fresh attempt on the calling thread.
  virtual void BeginAttempt() = 0;
  /// Returns true iff the transaction committed; on false the attempt has
  /// been fully rolled back.
  virtual bool TryCommit() = 0;
  /// Rolls back the attempt (used when the body threw TxAborted).
  virtual void AbortSelf() = 0;
  /// Hint installed by the retry loop before the first BeginAttempt: the
  /// body performs no writes. Backends may use it to serve all reads from a
  /// consistent snapshot (mvstm); the default ignores it.
  virtual void SetReadOnly(bool read_only) { (void)read_only; }

 protected:
  /// The running attempt's own counts, bumped without touching StmStats;
  /// the retry loop adds them when the attempt ends, aborted or not.
  struct Tallies {
    int64_t reads = 0;
    int64_t writes = 0;
    int64_t validation_steps = 0;
    int64_t bytes_cloned = 0;
    int64_t kills = 0;
  };
  Tallies tally_;

 private:
  friend class Stm;
  /// Adds the nonzero tallies to `stats`, zeroes them, and runs the commit
  /// or abort hooks.
  void EndAttempt(StmStats& stats, bool committed);
};

/// Exponential backoff with jitter. On this benchmark's single-core hosts
/// the key property is yielding the CPU so the conflicting transaction can
/// finish.
class Backoff {
 public:
  static void Pause(int attempt);
};

/// One STM backend instance: owns the statistics block and the retry loop.
class Stm {
 public:
  Stm();
  virtual ~Stm() = default;
  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  /// Backend name as selected by the CLI (`tl2`, `mvstm`, ...).
  virtual std::string_view name() const = 0;

  /// Executes `body` atomically, retrying on conflicts. Exceptions other
  /// than TxAborted propagate once the enclosing transaction commits (see
  /// the file comment). `read_only` is a caller promise that the body
  /// performs no transactional writes (the driver derives it from
  /// Operation::read_only()); backends that support snapshot reads execute
  /// such bodies without validation or aborts.
  void RunAtomically(const std::function<void(Transaction&)>& body, bool read_only = false);

  StmStats& stats() { return stats_; }
  const StmStats& stats() const { return stats_; }

  /// True when committed attempts must carry a replay-context snapshot for
  /// the redo log (src/mvstm/redo_log.h). Only mvstm with a group-commit
  /// sequencer attached returns true; StmStrategy::Execute checks it to keep
  /// the capture off every hot path that does not log.
  virtual bool wants_replay_capture() const { return false; }

 protected:
  /// One implementation object is cached per (thread, Stm instance) and
  /// reused across attempts and operations.
  virtual std::unique_ptr<TxImplBase> CreateTx() = 0;

 private:
  TxImplBase& LocalTx();

  uint64_t instance_id_;
  StmStats stats_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_STM_H_
