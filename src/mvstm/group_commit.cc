#include "src/mvstm/group_commit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
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

}  // namespace

GroupCommitSequencer::GroupCommitSequencer(redo::RedoLogWriter* writer,
                                           size_t max_group)
    : writer_(writer),
      max_group_(writer->durability() == redo::Durability::kAlways
                     ? 1
                     : std::max<size_t>(1, max_group)) {}

void GroupCommitSequencer::ValidateMember(Enrollee* node, const Group& group) {
  MvTx& tx = *node->tx;
  // The TL2 validation skip is sound only when no other commit can have
  // interleaved between this transaction's reads and the group's write
  // version. A multi-member group is itself that interleaving.
  const bool ok = (group.size == 1 && group.wv == tx.rv_ + 1)
                      ? true
                      : tx.ValidateReadSet();
  // mo: release — the leader's acquire load of the outcome must also see any
  // abort-cause state this validation produced on the member's behalf.
  node->outcome.store(ok ? kValidated : kEvicted, std::memory_order_release);
}

void GroupCommitSequencer::LeadPending(Enrollee* self) {
  // mo: acq_rel — acquire the pushers' release CASes (node fields and next
  // links are plain data published by the push); release so a re-push of the
  // emptied slot orders after this pop.
  Enrollee* top = pending_.exchange(nullptr, std::memory_order_acq_rel);
  if (top == nullptr) {
    return;
  }
  // The stack pops newest-first; reverse to enrollment order so the log reads
  // naturally. Within a group the order carries no meaning — members hold
  // disjoint write locks and share one commit timestamp.
  std::vector<Enrollee*> nodes;
  for (Enrollee* node = top; node != nullptr; node = node->next) {
    nodes.push_back(node);
  }
  std::reverse(nodes.begin(), nodes.end());

  size_t begin = 0;
  while (begin < nodes.size()) {
    const size_t count = std::min(max_group_, nodes.size() - begin);
    Group* group = new Group;
    group->size = count;
    // One timestamp fence for the whole group: every member commits at wv.
    group->wv = LockTable::ClockAdvance();
    for (size_t i = begin; i < begin + count; ++i) {
      // mo: release — publishes wv and size to the claimed member.
      nodes[i]->group.store(group, std::memory_order_release);
    }
    // Our own transaction validates inline (validation must run on the
    // owning thread: abort causes land in thread-local state); everyone else
    // validates concurrently on their own threads.
    if (self != nullptr) {
      // mo: relaxed — our own store from the claim loop above.
      if (self->group.load(std::memory_order_relaxed) == group) {
        ValidateMember(self, *group);
      }
    }
    redo::GroupRecord record;
    record.group_seq = group_seq_;
    record.commit_ts = group->wv;
    record.members.reserve(count);
    for (size_t i = begin; i < begin + count; ++i) {
      int outcome = kPending;
      int spins = 0;
      // mo: acquire — pairs with the member's release store; after this we
      // may read the member's record.
      while ((outcome = nodes[i]->outcome.load(std::memory_order_acquire)) ==
             kPending) {
        SpinPause(spins);
      }
      if (outcome == kValidated) {
        record.members.push_back(nodes[i]->record);
      }
    }
    // A fully evicted group appends nothing and consumes no sequence number;
    // the wasted clock tick is harmless (timestamps need not be dense).
    if (!record.members.empty()) {
      if (!writer_->AppendGroup(record)) {
        // Fail-stop: the members are still spinning before their publish,
        // so ending the process here acknowledges none of them. Never
        // retry: after a failed fsync the page cache may already have
        // dropped the data.
        std::fprintf(stderr, "fatal: %s; stopping before commit group %llu is acknowledged\n",
                     writer_->error().c_str(), static_cast<unsigned long long>(group_seq_));
        std::_Exit(EXIT_FAILURE);
      }
      ++group_seq_;
    }
    // mo: release — the append (or the decision to skip it) happens-before
    // any member's publish; pairs with the members' acquire.
    group->published.store(1, std::memory_order_release);
    begin += count;
  }
}

bool GroupCommitSequencer::CommitThrough(MvTx& tx, uint64_t* wv_out) {
  SB7_DCHECK(!tx.write_log_.empty());
  Enrollee node;
  node.tx = &tx;
  node.record = redo::CurrentAttemptContext();

  // mo: relaxed load seed + release CAS — the CAS publishes the node's plain
  // fields (tx, record, next) to whichever leader pops the stack.
  Enrollee* head = pending_.load(std::memory_order_relaxed);
  do {
    node.next = head;
  } while (!pending_.compare_exchange_weak(head, &node,
                                           std::memory_order_release));

  bool validated = false;
  int spins = 0;
  for (;;) {
    // mo: acquire — pairs with the leader's release store after it fixed the
    // group's wv and size.
    Group* group = node.group.load(std::memory_order_acquire);
    if (group == nullptr) {
      // Unclaimed. If no leader is running, become one — this is what keeps
      // a late enrollee from stranding behind a leader that popped the stack
      // before our push landed.
      uint32_t expected = 0;
      // mo: acq_rel — taking the slot orders after the previous leader's
      // appends (group_seq_ is plain leader-only state).
      if (leader_busy_.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
        LeadPending(&node);
        // mo: release — hands group_seq_ and the writer to the next leader.
        leader_busy_.store(0, std::memory_order_release);
        continue;
      }
      SpinPause(spins);
      continue;
    }
    if (!validated) {
      validated = true;
      // Leaders validate their own node inside LeadPending; if that already
      // happened our outcome is set and re-validating would be redundant.
      // mo: relaxed — reading our own thread's store.
      if (node.outcome.load(std::memory_order_relaxed) == kPending) {
        ValidateMember(&node, *group);
      }
    }
    // mo: acquire — the log append happens-before our publish (write-ahead
    // rule); pairs with the leader's release.
    if (group->published.load(std::memory_order_acquire) == 0) {
      SpinPause(spins);
      continue;
    }
    // mo: relaxed — our own thread stored the outcome.
    const bool ok = node.outcome.load(std::memory_order_relaxed) == kValidated;
    *wv_out = group->wv;
    // size must be read before the fetch_add: the RMW is this member's last
    // access to the group — anything after it races the last member's delete.
    const size_t size = group->size;
    // mo: acq_rel — the last member must see every other member's final
    // access to the group before freeing it.
    if (group->done.fetch_add(1, std::memory_order_acq_rel) + 1 == size) {
      delete group;
    }
    return ok;
  }
}

}  // namespace sb7
