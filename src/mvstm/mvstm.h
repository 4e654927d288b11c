// Multi-version STM ("mvstm"): timestamped version lists in the spirit of
// LSA / SwissTM, built on TL2 (src/stm/tl2.h).
//
// Two execution modes per transaction, chosen by the retry loop's read-only
// hint (Operation::read_only() via StmStrategy):
//
//   * Read-only: pin the snapshot at rv = ClockNow() at begin, serve every
//     read from the newest version with commit_ts <= rv (VersionChain). No
//     read set, no validation, no aborts — the long-traversal pathology
//     that collapses invisible-read STMs (§5 of the paper) disappears by
//     construction.
//   * Update: TL2 itself. MvTx derives from Tl2Tx and inherits its reads,
//     redo log, sorted per-field lock acquisition and read-set validation;
//     it changes only the two commit steps between taking the locks and
//     releasing them. The write version comes from the group-commit
//     sequencer when one is attached (group_commit.h), and each written
//     field publishes a {value, commit_ts} version node for concurrent and
//     future snapshot readers instead of a plain store.
//
// A body that writes despite the read-only hint is demoted: the attempt
// aborts once and every later attempt of that execution runs in update mode.

#ifndef STMBENCH7_SRC_MVSTM_MVSTM_H_
#define STMBENCH7_SRC_MVSTM_MVSTM_H_

#include <cstdint>
#include <memory>

#include "src/stm/stm.h"
#include "src/stm/tl2.h"

namespace sb7 {

class GroupCommitSequencer;

class MvStm : public Stm {
 public:
  std::string_view name() const override { return "mvstm"; }

  // Routes every update commit through `sequencer` (group commit + redo
  // logging, src/mvstm/group_commit.h). Must be called before any
  // transaction runs; detaching is not supported — transaction objects cache
  // the pointer per thread. Null (the default) keeps the solo TL2
  // commit path, so an unlogged run pays nothing for the feature.
  void AttachSequencer(GroupCommitSequencer* sequencer) { sequencer_ = sequencer; }
  GroupCommitSequencer* sequencer() const { return sequencer_; }

  bool wants_replay_capture() const override { return sequencer_ != nullptr; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;

 private:
  GroupCommitSequencer* sequencer_ = nullptr;
};

class MvTx : public Tl2Tx {
 public:
  explicit MvTx(GroupCommitSequencer* sequencer = nullptr) : sequencer_(sequencer) {}

  void SetReadOnly(bool read_only) override;
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;

  // True while the current attempt serves reads from the pinned snapshot.
  bool snapshot_mode() const { return read_only_; }

 private:
  // The sequencer validates members on their own threads and needs the read
  // set, read version and write log for that (group_commit.cc).
  friend class GroupCommitSequencer;

  bool TakeWriteVersion(uint64_t* wv) override;
  void WriteBack(uint64_t wv) override;

  GroupCommitSequencer* sequencer_;

  // Mode for the current RunAtomically execution.
  bool hint_read_only_ = false;
  bool demoted_ = false;     // body wrote under the read-only hint
  bool read_only_ = false;   // effective mode of the current attempt
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_MVSTM_H_
