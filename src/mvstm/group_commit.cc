#include "src/mvstm/group_commit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/diag.h"
#include "src/mvstm/mvstm.h"
#include "src/stm/lock_table.h"

namespace sb7 {
namespace {

// Spin-wait step for the member/leader protocol. Under the interleaving
// explorer this must be a schedulable yield (a blocking wait would deadlock
// the cooperative scheduler); in a real run a short pause beats a syscall
// while the leader is mid-group, with a thread yield as pressure valve.
void SpinPause(int& spins) {
  if (sp::UnderMcScheduler()) {
    sp::SyncPoint(nullptr, sp::OpKind::kYield);
    return;
  }
  if (++spins < 64) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return;
  }
  spins = 0;
  std::this_thread::yield();
}

// Fail-stop: the members of this group and of every later one are still
// spinning before their publish, so ending the process here acknowledges
// none of them.
[[noreturn]] void StopBeforeAcknowledging(const std::string& error, uint64_t group_seq) {
  std::fprintf(stderr, "fatal: %s; stopping before commit group %llu is acknowledged\n",
               error.c_str(), static_cast<unsigned long long>(group_seq));
  std::_Exit(EXIT_FAILURE);
}

}  // namespace

GroupCommitSequencer::GroupCommitSequencer(redo::RedoLogWriter* writer)
    : writer_(writer),
      max_group_(writer->durability() == redo::Durability::kAlways ? 1 : kMaxGroup) {}

bool GroupCommitSequencer::ValidateMember(MvTx& tx, const Group& group) {
  // The TL2 validation skip is sound only when no other commit can have
  // interleaved between this transaction's reads and the group's write
  // version. A multi-member group is itself that interleaving. A group in
  // flight ahead of this one is not: it took its tick after locking its
  // write set, and holds those locks until it publishes, so a field it
  // writes was locked when this transaction read it, or the read saw its
  // published version. Either way no read-from edge joins two groups in
  // flight together, and their write sets are disjoint, so the log's order
  // serializes them whichever sync ends first.
  return (group.size == 1 && group.wv == tx.rv_ + 1) || tx.ValidateReadSet();
}

GroupCommitSequencer::Group* GroupCommitSequencer::LeadOneGroup(Enrollee* self,
                                                                bool* self_valid) {
  // Room in the pipeline: at most kMaxSyncsInFlight groups between their
  // append and their acknowledgement. Committers enrolling meanwhile join
  // the group this leader is about to form.
  int spins = 0;
  // mo: acquire — the group this waits out has returned from its sync.
  while (group_seq_ - acked_groups_.load(std::memory_order_acquire) >=
         redo::kMaxSyncsInFlight) {
    SpinPause(spins);
  }
  if (backlog_head_ == backlog_.size()) {
    backlog_.clear();
    backlog_head_ = 0;
  }
  // The committers that enrolled since the last pop go after the older
  // ones. The stack pops newest-first; reverse to enrollment order so the
  // log reads naturally.
  const size_t popped_from = backlog_.size();
  // mo: acq_rel — acquire the pushers' release CASes (node fields and next
  // links are plain data published by the push); release so a re-push of
  // the emptied slot orders after this pop.
  for (Enrollee* node = pending_.exchange(nullptr, std::memory_order_acq_rel);
       node != nullptr; node = node->next) {
    backlog_.push_back(node);
  }
  std::reverse(backlog_.begin() + static_cast<std::ptrdiff_t>(popped_from), backlog_.end());
  // A leader leads its own group, so no member waits on a thread that is
  // busy syncing another group. Within a group the order carries no
  // meaning — members hold disjoint write locks and share one commit
  // timestamp — and neither does it among the enrolled, which hold their
  // locks together.
  const auto head = backlog_.begin() + static_cast<std::ptrdiff_t>(backlog_head_);
  const auto own = std::find(head, backlog_.end(), self);
  SB7_DCHECK(own != backlog_.end());  // enrolled and, see CommitThrough, unclaimed
  std::iter_swap(head, own);
  const size_t count = std::min(max_group_, backlog_.size() - backlog_head_);
  Enrollee* const* members = backlog_.data() + backlog_head_;  // members[0] == self
  backlog_head_ += count;

  Group* group = new Group;
  group->size = count;
  // One timestamp fence for the whole group: every member commits at wv.
  group->wv = LockTable::ClockAdvance();
  for (size_t i = 0; i < count; ++i) {
    // mo: release — publishes wv and size to the claimed member.
    members[i]->group.store(group, std::memory_order_release);
  }
  // Every member validates on its own thread (abort causes land in
  // thread-local state): ours inline, the others concurrently.
  *self_valid = ValidateMember(*self->tx, *group);
  redo::GroupRecord record;
  record.commit_ts = group->wv;
  record.members.reserve(count);
  if (*self_valid) {
    record.members.push_back(self->record);
  }
  for (size_t i = 1; i < count; ++i) {
    int outcome = kPending;
    // mo: acquire — pairs with the member's release store; after this we
    // may read the member's record.
    while ((outcome = members[i]->outcome.load(std::memory_order_acquire)) == kPending) {
      SpinPause(spins);
    }
    if (outcome == kValidated) {
      record.members.push_back(members[i]->record);
    }
  }
  if (record.members.empty()) {
    // A fully evicted group appends nothing and consumes no sequence number;
    // the wasted clock tick is harmless (timestamps need not be dense).
    // mo: release (both) — the slot hands over the leader-only state; the
    // evicted members may abort at once.
    leader_busy_.store(0, std::memory_order_release);
    group->published.store(1, std::memory_order_release);
    return group;
  }
  const uint64_t seq = group_seq_++;
  record.group_seq = seq;
  if (!writer_->AppendGroup(record)) {
    StopBeforeAcknowledging(writer_->error(), seq);
  }
  // mo: release — the next leader appends after this record and sees
  // group_seq_ and the backlog as this one left them.
  leader_busy_.store(0, std::memory_order_release);

  // Beside the syncs of other groups. Never retried: after a failed fsync
  // the page cache may already have dropped the data.
  if (!writer_->SyncGroup(seq)) {
    StopBeforeAcknowledging(writer_->error(), seq);
  }
  // Acknowledge in log order: an earlier group whose sync is still in
  // flight, or fails, must not find a later group already published.
  // mo: acquire — pairs with the previous group's release below.
  while (acked_groups_.load(std::memory_order_acquire) != seq) {
    SpinPause(spins);
  }
  // mo: release — our sync, and through the acquire above every earlier
  // group's, happens-before the next group's acknowledgement.
  acked_groups_.store(seq + 1, std::memory_order_release);
  // mo: release — the append and the syncs happen-before any member's
  // publish; pairs with the members' acquire.
  group->published.store(1, std::memory_order_release);
  return group;
}

bool GroupCommitSequencer::CommitThrough(MvTx& tx, uint64_t* wv_out) {
  SB7_DCHECK(!tx.write_log_.empty());
  Enrollee node;
  node.tx = &tx;
  node.record = redo::CurrentAttemptContext();

  // mo: release CAS — publishes the node's plain fields (tx, record, next)
  // to whichever leader pops the stack. The first attempt guesses an empty
  // stack; a failed one loads the head.
  Enrollee* head = nullptr;
  do {
    node.next = head;
  } while (!pending_.compare_exchange_weak(head, &node, std::memory_order_release));

  bool valid = false;
  Group* group = nullptr;
  int spins = 0;
  // mo: acquire — pairs with the leader's release store after it fixed the
  // group's wv and size.
  while ((group = node.group.load(std::memory_order_acquire)) == nullptr) {
    // Unclaimed. If no leader is running, become one — this is what keeps
    // a late enrollee from stranding behind a leader that popped the stack
    // before our push landed. Our node is still unclaimed once we hold the
    // slot: a leader keeps the slot until each member of its group has
    // validated, and we have not.
    uint32_t expected = 0;
    // mo: acq_rel — taking the slot orders after the previous leader's
    // append (group_seq_ and the backlog are plain leader-only state).
    if (leader_busy_.compare_exchange_strong(expected, 1, std::memory_order_acq_rel)) {
      break;
    }
    SpinPause(spins);
  }
  if (group == nullptr) {
    group = LeadOneGroup(&node, &valid);  // releases the slot and publishes
  } else {
    valid = ValidateMember(tx, *group);
    // mo: release — the leader's acquire load of the outcome must also see
    // any abort-cause state this validation produced.
    node.outcome.store(valid ? kValidated : kEvicted, std::memory_order_release);
    // mo: acquire — the append and the syncs of our group and every
    // earlier one happen-before our publish (write-ahead rule); pairs with
    // the leader's release.
    while (group->published.load(std::memory_order_acquire) == 0) {
      SpinPause(spins);
    }
  }
  *wv_out = group->wv;
  // size must be read before the fetch_add: the RMW is this member's last
  // access to the group — anything after it races the last member's delete.
  const size_t size = group->size;
  // mo: acq_rel — the last member must see every other member's final
  // access to the group before freeing it.
  if (group->done.fetch_add(1, std::memory_order_acq_rel) + 1 == size) {
    delete group;
  }
  return valid;
}

}  // namespace sb7
