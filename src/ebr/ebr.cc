#include "src/ebr/ebr.h"

#include <algorithm>
#include <memory>

#include "src/common/diag.h"

namespace sb7 {
namespace {

// Domains that are still alive. Thread-exit cleanup consults this so that a
// ThreadState outliving its (test-local) domain does not touch freed memory.
std::mutex& AliveMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<EbrDomain*>& AliveDomains() {
  static std::vector<EbrDomain*> domains;
  return domains;
}

constexpr size_t kLimboReclaimThreshold = 512;
constexpr uint64_t kQuiesceReclaimPeriod = 64;

}  // namespace

// Per-thread, per-domain state. Destroyed at thread exit; any objects still
// in limbo are handed to the domain's orphan list.
class EbrDomain::ThreadState {
 public:
  explicit ThreadState(EbrDomain* domain)
      : domain_(domain), domain_id_(domain->id_), slot_(domain->RegisterThread()) {}

  ~ThreadState() {
    std::lock_guard<std::mutex> lock(AliveMutex());
    auto& alive = AliveDomains();
    if (std::find(alive.begin(), alive.end(), domain_) != alive.end() &&
        domain_->id_ == domain_id_) {
      domain_->UnregisterThread(slot_, std::move(limbo_));
    } else {
      // The domain died before this thread (or its address was reused by a
      // younger domain): nobody can still be reading the retired objects.
      for (const Retired& entry : limbo_) {
        entry.deleter(entry.ptr);
      }
    }
  }

  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  EbrDomain* domain_;
  uint64_t domain_id_;
  int slot_;
  // Appended in epoch order: Retire tags the global epoch, and one thread's
  // successive loads of it never decrease.
  std::deque<Retired> limbo_;
  uint64_t quiesce_calls_ = 0;
  bool online_ = false;
};

namespace {
std::atomic<uint64_t> g_ebr_domain_counter{1};
}  // namespace

EbrDomain::EbrDomain() : id_(g_ebr_domain_counter.fetch_add(1, std::memory_order_relaxed)) {
  std::lock_guard<std::mutex> lock(AliveMutex());
  AliveDomains().push_back(this);
}

EbrDomain::~EbrDomain() {
  DrainAll();
  std::lock_guard<std::mutex> lock(AliveMutex());
  auto& alive = AliveDomains();
  alive.erase(std::remove(alive.begin(), alive.end(), this), alive.end());
}

EbrDomain& EbrDomain::Global() {
  static EbrDomain* domain = new EbrDomain();  // intentionally immortal
  return *domain;
}

int EbrDomain::RegisterThread() {
  for (int i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    // A free slot announces kOffline (UnregisterThread restores it before
    // releasing the slot), so the thread starts offline.
    if (slots_[i].in_use.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      return i;
    }
  }
  SB7_CHECK(false && "EbrDomain: too many registered threads");
  return -1;
}

void EbrDomain::UnregisterThread(int slot, std::deque<Retired>&& leftovers) {
  {
    std::lock_guard<std::mutex> lock(orphan_mu_);
    orphans_.insert(orphans_.end(), leftovers.begin(), leftovers.end());
  }
  slots_[slot].local_epoch.store(kOffline, std::memory_order_release);
  slots_[slot].in_use.store(false, std::memory_order_release);
}

EbrDomain::ThreadState& EbrDomain::LocalState() {
  thread_local std::vector<std::unique_ptr<ThreadState>> states;
  for (const auto& state : states) {
    if (state->domain_ == this && state->domain_id_ == id_) {
      return *state;
    }
  }
  states.push_back(std::make_unique<ThreadState>(this));
  return *states.back();
}

void EbrDomain::Retire(void* ptr, void (*deleter)(void*)) {
  ThreadState& state = LocalState();
  state.limbo_.push_back(
      Retired{ptr, deleter, global_epoch_.load(std::memory_order_acquire)});
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (state.limbo_.size() >= kLimboReclaimThreshold) {
    TryReclaim();
  }
}

void EbrDomain::Quiesce() {
  ThreadState& state = LocalState();
  std::atomic<uint64_t>& announced = slots_[state.slot_].local_epoch;
  const uint64_t now = global_epoch_.load(std::memory_order_acquire);
  if (state.online_) {
    announced.store(now, std::memory_order_release);
  } else {
    // Coming online. The fence pairs with the one in MinAnnouncedEpoch: a
    // reclaimer whose scan misses this announcement fenced first, so every
    // unlink behind the objects it frees is visible to this thread's reads.
    announced.store(now, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    state.online_ = true;
  }
  if (++state.quiesce_calls_ % kQuiesceReclaimPeriod == 0 || !state.limbo_.empty()) {
    TryReclaim();
  }
}

void EbrDomain::Offline() {
  ThreadState& state = LocalState();
  // Release: this thread's reads of shared objects happen before a reclaimer
  // that sees it offline frees them.
  slots_[state.slot_].local_epoch.store(kOffline, std::memory_order_release);
  state.online_ = false;
}

uint64_t EbrDomain::MinAnnouncedEpoch() const {
  uint64_t min_epoch = global_epoch_.load(std::memory_order_acquire);
  // Pairs with the fence of a thread coming online (Quiesce).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const Slot& slot : slots_) {
    min_epoch = std::min(min_epoch, slot.local_epoch.load(std::memory_order_acquire));
  }
  return min_epoch;
}

void EbrDomain::FreePrefix(std::deque<Retired>& limbo, uint64_t safe_before) {
  int64_t freed = 0;
  while (!limbo.empty() && limbo.front().epoch < safe_before) {
    const Retired entry = limbo.front();
    limbo.pop_front();
    entry.deleter(entry.ptr);
    ++freed;
  }
  if (freed != 0) {
    pending_.fetch_sub(freed, std::memory_order_relaxed);
  }
}

void EbrDomain::FreeSafe(std::vector<Retired>& limbo, uint64_t safe_before) {
  int64_t freed = 0;
  auto writer = limbo.begin();
  for (auto& entry : limbo) {
    if (entry.epoch < safe_before) {
      entry.deleter(entry.ptr);
      ++freed;
    } else {
      *writer++ = entry;
    }
  }
  limbo.erase(writer, limbo.end());
  if (freed != 0) {
    pending_.fetch_sub(freed, std::memory_order_relaxed);
  }
}

void EbrDomain::TryReclaim() {
  const uint64_t min_epoch = MinAnnouncedEpoch();
  const uint64_t global = global_epoch_.load(std::memory_order_acquire);
  if (min_epoch == global) {
    // Every online thread has seen the current epoch; it is safe to open a
    // new one.
    uint64_t expected = global;
    global_epoch_.compare_exchange_strong(expected, global + 1, std::memory_order_acq_rel);
  }
  // Objects retired at epoch e are safe once min >= e + 2.
  if (min_epoch < 2) {
    return;
  }
  const uint64_t safe_before = min_epoch - 1;
  FreePrefix(LocalState().limbo_, safe_before);
  if (orphan_mu_.try_lock()) {
    FreeSafe(orphans_, safe_before);
    orphan_mu_.unlock();
  }
}

int64_t EbrDomain::DrainAll() {
  int64_t freed = 0;
  const uint64_t everything = ~uint64_t{0};
  {
    std::deque<Retired>& limbo = LocalState().limbo_;
    freed += static_cast<int64_t>(limbo.size());
    FreePrefix(limbo, everything);
  }
  {
    std::lock_guard<std::mutex> lock(orphan_mu_);
    freed += static_cast<int64_t>(orphans_.size());
    FreeSafe(orphans_, everything);
  }
  return freed;
}

int64_t EbrDomain::PendingCount() const { return pending_.load(std::memory_order_relaxed); }

}  // namespace sb7
