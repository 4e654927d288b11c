#include "src/mvstm/mvstm.h"

#include "src/ebr/ebr.h"
#include "src/mvstm/group_commit.h"
#include "src/mvstm/version_chain.h"

namespace sb7 {

std::unique_ptr<TxImplBase> MvStm::CreateTx() { return std::make_unique<MvTx>(sequencer_); }

void MvTx::SetReadOnly(bool read_only) {
  // Called once per RunAtomically execution, before the first attempt.
  hint_read_only_ = read_only;
  demoted_ = false;
}

void MvTx::BeginAttempt() {
  read_only_ = hint_read_only_ && !demoted_;
  if (read_only_) {
    // Passing through a quiescent state here (a) brings the thread online
    // in the EBR domain and (b) is the last quiescence until the
    // transaction ends, so every version node retired from now on survives
    // until this snapshot read is over. Must precede the clock read in
    // Tl2Tx::BeginAttempt: the grace-period argument in version_chain.h
    // needs rv_ >= the commit timestamp of any node whose retirement we
    // failed to observe.
    EbrDomain::Global().Quiesce();
  }
  Tl2Tx::BeginAttempt();
}

uint64_t MvTx::Read(const TxFieldBase& field) {
  if (read_only_) {
    ++tally_.reads;
    return VersionChain::ReadAtSnapshot(field, rv_);
  }
  return Tl2Tx::Read(field);
}

void MvTx::Write(TxFieldBase& field, uint64_t value) {
  if (read_only_) {
    // The read-only promise was wrong (a mislabeled operation). The snapshot
    // path recorded no read set, so the attempt cannot be upgraded in place;
    // abort once and rerun every later attempt in update mode.
    demoted_ = true;
    SetTxAbortCause(AbortCause::kSnapshotTooOld, &field.LockWord());
    throw TxAborted{};
  }
  Tl2Tx::Write(field, value);
}

bool MvTx::TakeWriteVersion(uint64_t* wv) {
  if (sequencer_ == nullptr) {
    return Tl2Tx::TakeWriteVersion(wv);
  }
  // Group-commit path (group_commit.h): the group's leader takes the clock
  // tick and drives the redo-log append; validation runs inside
  // CommitThrough on this thread. On success the append (per the log's
  // durability policy) has already happened, so publishing afterwards keeps
  // the write-ahead rule: no version becomes visible that the log does not
  // describe.
  return sequencer_->CommitThrough(*this, wv);
}

void MvTx::WriteBack(uint64_t wv) {
  // Publishing before the locks release is what lets a concurrent snapshot
  // reader with rv >= wv proceed without waiting for the unlock.
  for (const WriteEntry& entry : write_log_) {
    VersionChain::Publish(*entry.field, entry.value, wv);
  }
}

}  // namespace sb7
