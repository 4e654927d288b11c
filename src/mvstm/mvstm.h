// Multi-version STM ("mvstm"): timestamped version lists in the spirit of
// LSA / SwissTM, layered on the per-field versioned locks and the global
// clock shared with TL2.
//
// Two execution modes per transaction, chosen by the retry loop's read-only
// hint (Operation::read_only() via StmStrategy):
//
//   * Read-only: pin start_ts = ClockNow() at begin, serve every read from
//     the newest version with commit_ts <= start_ts (VersionChain). No read
//     set, no validation, no aborts — the long-traversal pathology that
//     collapses invisible-read STMs (§5 of the paper) disappears by
//     construction.
//   * Update: TL2-style invisible reads with per-read validation and a redo
//     log, committed under sorted per-field locks at a fresh clock tick;
//     each written field additionally publishes a {value, commit_ts} version
//     node for concurrent and future snapshot readers.
//
// A body that writes despite the read-only hint is demoted: the attempt
// aborts once and every later attempt of that execution runs in update mode.

#ifndef STMBENCH7_SRC_MVSTM_MVSTM_H_
#define STMBENCH7_SRC_MVSTM_MVSTM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/stm/lock_table.h"
#include "src/stm/stm.h"
#include "src/stm/write_index.h"

namespace sb7 {

class GroupCommitSequencer;

class MvStm : public Stm {
 public:
  std::string_view name() const override { return "mvstm"; }

  // Routes every update commit through `sequencer` (group commit + redo
  // logging, src/mvstm/group_commit.h). Must be called before any
  // transaction runs; detaching is not supported — transaction objects cache
  // the pointer per thread. Null (the default) keeps the solo TL2-style
  // commit path, so an unlogged run pays nothing for the feature.
  void AttachSequencer(GroupCommitSequencer* sequencer) { sequencer_ = sequencer; }
  GroupCommitSequencer* sequencer() const { return sequencer_; }

  bool wants_replay_capture() const override { return sequencer_ != nullptr; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;

 private:
  GroupCommitSequencer* sequencer_ = nullptr;
};

class MvTx : public TxImplBase {
 public:
  explicit MvTx(StmStats& stats, GroupCommitSequencer* sequencer = nullptr)
      : stats_(stats), sequencer_(sequencer) {}

  void SetReadOnly(bool read_only) override;
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

  // True while the current attempt serves reads from the pinned snapshot.
  bool snapshot_mode() const { return read_only_; }
  uint64_t start_ts() const { return start_ts_; }

 private:
  // The sequencer validates members on their own threads and needs the read
  // set, start timestamp and write log for that (group_commit.cc).
  friend class GroupCommitSequencer;

  struct WriteEntry {
    TxFieldBase* field;
    uint64_t value;
  };

  // Acquires the write set's locks in lock-address order (see Tl2Tx).
  bool AcquireWriteLocks();
  void ReleaseAcquired(uint64_t unlock_version, bool use_saved);
  bool ValidateReadSet();
  void FlushLocalStats();

  StmStats& stats_;
  GroupCommitSequencer* sequencer_;

  // Mode for the current RunAtomically execution.
  bool hint_read_only_ = false;
  bool demoted_ = false;     // body wrote under the read-only hint
  bool read_only_ = false;   // effective mode of the current attempt

  // Snapshot timestamp (read-only mode) / TL2 read version (update mode).
  uint64_t start_ts_ = 0;

  std::vector<const sp::AtomicU64*> read_set_;
  std::vector<WriteEntry> write_log_;
  WriteIndex write_index_;  // field -> its position in write_log_

  struct AcquiredLock {
    sp::AtomicU64* lock;
    uint64_t saved_word;  // pre-lock word, restored on failed commit
  };
  std::vector<AcquiredLock> acquired_;  // sorted by lock address

  int64_t local_reads_ = 0;
  int64_t local_writes_ = 0;
  int64_t local_validation_steps_ = 0;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_MVSTM_H_
