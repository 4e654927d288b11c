// Group commit for mvstm (docs/DURABILITY.md).
//
// With a redo log attached, update transactions stop committing solo.
// After acquiring its write locks, a committer enrolls in the forming
// commit group and one thread — the leader — takes a single timestamp fence
// (LockTable::ClockAdvance) and drives a single log append + fsync for the
// whole group, so the per-commit durability cost is amortized across every
// member. Groups are pipelined: a leader appends under the leader slot and
// syncs outside it, so a later group can append and sync while an earlier
// group's sync is in flight. The protocol, per group:
//
//   1. enroll   — committers push themselves onto a pending stack (field
//                 locks already held, so intra-group write sets are disjoint
//                 by construction).
//   2. lead     — any enrolled committer that finds the leader slot free
//                 claims it. Once fewer than redo::kMaxSyncsInFlight groups
//                 wait for their sync, it forms a group of itself and the
//                 oldest other enrolled committers, and fixes the group's
//                 shared write version with one clock tick. Waiting members
//                 periodically retry the slot themselves, so a member can
//                 never be stranded behind a leader that finished without
//                 it.
//   3. validate — every member re-validates its own read set on its own
//                 thread (correct abort-cause attribution). The TL2
//                 "wv == rv + 1" validation skip is sound only for a
//                 group of one: inside a larger group it would admit
//                 intra-group write skew, so multi-member groups always
//                 validate in full. A member that sees another member's
//                 field lock in its read set fails validation here — the
//                 read-write conflicts a shared write version cannot order
//                 are evicted from the group, never committed.
//   4. append   — still under the slot, the leader writes one checksummed
//                 group record for the members that validated, so log order
//                 is write-version order. Then it releases the slot. If the
//                 write fails (or the writer failed earlier), the leader
//                 prints the writer's error and ends the process before any
//                 member returns: no commit is acknowledged that the log
//                 does not hold.
//   5. sync     — outside the slot, beside the syncs of other groups, the
//                 leader syncs the record per the log's policy. A failed
//                 sync ends the process the same way, before any member of
//                 this group or of a later one returns; it is never retried.
//                 Once the sync has returned, the leader waits until every
//                 earlier group has been acknowledged: acknowledgement stays
//                 in log order whichever sync ends first.
//   6. publish  — only then do members publish their version chain nodes
//                 at the shared write version, release their locks and
//                 return (write-ahead rule: nothing becomes visible that
//                 the log does not describe, nor ahead of a record before
//                 it in the log).
//
// All coordination runs on sp::Atomic spin loops with yield sync points —
// never blocking waits — so the protocol is explorable by the deterministic
// interleaving explorer (sb7-mc) like every other STM protocol in the tree.

#ifndef STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_
#define STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/mc/sync_point.h"
#include "src/mvstm/redo_log.h"

namespace sb7 {

class MvTx;

class GroupCommitSequencer {
 public:
  // `writer` must outlive the sequencer. Durability::kAlways degenerates to
  // groups of one — every commit takes its own tick, record and fsync —
  // which is exactly what makes `group` measurably cheaper than `always`.
  explicit GroupCommitSequencer(redo::RedoLogWriter* writer);

  GroupCommitSequencer(const GroupCommitSequencer&) = delete;
  GroupCommitSequencer& operator=(const GroupCommitSequencer&) = delete;

  // Commits `tx` through a group. Preconditions: tx holds its write locks
  // and has a non-empty write log. On true, *wv_out is the group's shared
  // write version, and the group's record and every earlier group's are in
  // the log and synced per its policy — the caller publishes its versions
  // at *wv_out and releases its locks. On false, read-set validation
  // failed; the caller restores its locks and aborts. Blocks (spinning with
  // yields) until the group is acknowledged.
  bool CommitThrough(MvTx& tx, uint64_t* wv_out);

  redo::RedoLogWriter* writer() const { return writer_; }

 private:
  // Larger groups split into several, each with its own clock tick, record
  // and sync.
  static constexpr size_t kMaxGroup = 64;

  enum Outcome : int {
    kPending = 0,
    kValidated = 1,
    kEvicted = 2,
  };

  struct Group {
    uint64_t wv = 0;
    size_t size = 0;
    // mo: release by the leader once the group is acknowledged (or fully
    // evicted); members acquire it before publishing (write-ahead ordering).
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
    // mo: release by a member after validating; acquire by its leader,
    // which knows its own.
    sp::Atomic<int> outcome{kPending};
  };

  // Validates a member's transaction against its group; runs on the
  // member's own thread, where abort causes land in thread-local state.
  static bool ValidateMember(MvTx& tx, const Group& group);

  // Leader duty, entered holding the leader slot with `self` (the calling
  // thread's enrollee) unclaimed: forms a group of `self` and the oldest
  // other enrolled committers, validates `self` into *self_valid, appends
  // the record, releases the slot, syncs, waits for every earlier group
  // and publishes. Returns the group.
  Group* LeadOneGroup(Enrollee* self, bool* self_valid);

  redo::RedoLogWriter* writer_;
  const size_t max_group_;
  // Treiber stack of enrolled committers awaiting a leader.
  sp::Atomic<Enrollee*> pending_{nullptr};
  // 0 = free, 1 = a leader is forming and appending a group; appends are
  // serialized by this slot, so log order equals write-version order.
  sp::Atomic<uint32_t> leader_busy_{0};
  // Leader-only state (guarded by leader_busy_): committers popped from the
  // stack, oldest first, of which those from backlog_head_ on are in no
  // group yet; and the next group_seq to append.
  std::vector<Enrollee*> backlog_;
  size_t backlog_head_ = 0;
  uint64_t group_seq_ = 0;
  // Groups acknowledged: those below it have had their syncs return, so a
  // group publishes once this reaches its group_seq.
  sp::AtomicU64 acked_groups_{0};
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_GROUP_COMMIT_H_
