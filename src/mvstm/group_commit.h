// Group commit for mvstm (docs/DURABILITY.md).
//
// With a redo log attached, update transactions stop committing solo.
// After acquiring its write locks, a committer enrolls in the forming
// commit group and one thread — the leader — takes a single timestamp fence
// (LockTable::ClockAdvance) and drives a single log append + fsync for the
// whole group, so the per-commit durability cost is amortized across every
// member. The protocol, per group:
//
//   1. enroll   — committers push themselves onto a pending stack (field
//                 locks already held, so intra-group write sets are disjoint
//                 by construction).
//   2. lead     — any enrolled committer that finds the leader slot free
//                 claims it, pops the whole stack, and fixes the group's
//                 shared write version with one clock tick. Waiting members
//                 periodically retry the slot themselves, so a member can
//                 never be stranded behind a leader that finished without it.
//   3. validate — every member re-validates its own read set on its own
//                 thread (correct abort-cause attribution). The TL2
//                 "wv == rv + 1" validation skip is sound only for a
//                 group of one: inside a larger group it would admit
//                 intra-group write skew, so multi-member groups always
//                 validate in full. A member that sees another member's
//                 field lock in its read set fails validation here — the
//                 read-write conflicts a shared write version cannot order
//                 are evicted from the group, never committed.
//   4. append   — the leader writes one checksummed group record for the
//                 members that validated and fsyncs per the log's policy.
//                 If the write or fsync fails (or the writer failed
//                 earlier), the leader prints the writer's error and ends
//                 the process before any member returns: no commit is
//                 acknowledged that the log does not hold.
//   5. publish  — only after the append do members publish their version
//                 chain nodes at the shared write version and release their
//                 locks (write-ahead rule: nothing becomes visible that
//                 the log does not describe).
//
// All coordination runs on sp::Atomic spin loops with yield sync points —
// never blocking waits — so the protocol is explorable by the deterministic
// interleaving explorer (sb7-mc) like every other STM protocol in the tree.

#ifndef STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_
#define STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_

#include <cstdint>
#include <cstddef>

#include "src/mc/sync_point.h"
#include "src/mvstm/redo_log.h"

namespace sb7 {

class MvTx;

class GroupCommitSequencer {
 public:
  // Commit groups larger than this split into several groups (each with its
  // own clock tick and record) within one leadership stint.
  static constexpr size_t kDefaultMaxGroup = 64;

  // `writer` must outlive the sequencer. Durability::kAlways degenerates to
  // groups of one — every commit takes its own tick, record and fsync —
  // which is exactly what makes `group` measurably cheaper than `always`.
  explicit GroupCommitSequencer(redo::RedoLogWriter* writer,
                                size_t max_group = kDefaultMaxGroup);

  GroupCommitSequencer(const GroupCommitSequencer&) = delete;
  GroupCommitSequencer& operator=(const GroupCommitSequencer&) = delete;

  // Commits `tx` through the current group. Preconditions: tx holds its
  // write locks and has a non-empty write log. On true, *wv_out is the
  // group's shared write version and the log append (per policy) has
  // happened — the caller publishes its versions at *wv_out and releases
  // its locks. On false, read-set validation failed; the caller restores
  // its locks and aborts. Blocks (spinning with yields) until the
  // group's leader has appended the record.
  bool CommitThrough(MvTx& tx, uint64_t* wv_out);

  redo::RedoLogWriter* writer() const { return writer_; }

 private:
  enum Outcome : int {
    kPending = 0,
    kValidated = 1,
    kEvicted = 2,
  };

  struct Group {
    uint64_t wv = 0;
    size_t size = 0;
    // mo: release by the leader after the log append; members acquire it
    // before publishing (write-ahead ordering).
    sp::Atomic<uint32_t> published{0};
    // Members that finished publishing; the last one frees the group.
    sp::Atomic<size_t> done{0};
  };

  struct Enrollee {
    MvTx* tx = nullptr;
    redo::MemberRecord record;
    Enrollee* next = nullptr;  // pending-stack link; published by the push CAS
    // mo: release by the leader once wv/size are set; acquire by the member.
    sp::Atomic<Group*> group{nullptr};
    // mo: release by the member after validating; acquire by the leader.
    sp::Atomic<int> outcome{kPending};
  };

  // Validates `node`'s transaction against its group on the calling thread
  // and publishes the outcome.
  static void ValidateMember(Enrollee* node, const Group& group);

  // Leader duty: pops the pending stack and drives every popped node through
  // validate/append/publish, in chunks of max_group_. `self` is the calling
  // thread's own enrollee (validated inline when claimed) or null.
  void LeadPending(Enrollee* self);

  redo::RedoLogWriter* writer_;
  size_t max_group_;
  // Treiber stack of enrolled committers awaiting a leader.
  sp::Atomic<Enrollee*> pending_{nullptr};
  // 0 = free, 1 = a leader is driving groups; appends are serialized by this
  // slot, so log order equals write-version order.
  sp::Atomic<uint32_t> leader_busy_{0};
  // Next group_seq to append; leader-only state (guarded by leader_busy_).
  uint64_t group_seq_ = 0;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_
