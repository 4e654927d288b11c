// Transactional dynamic array, set and bag.
//
// TxVector is the building block for every small collection in the benchmark
// structure (assembly child lists, base-assembly/composite-part bags, the
// per-composite-part set of atomic parts). Storage lives in chunks; a chunk
// is one TmUnit, so under the object-granular STM an element update clones
// the whole chunk — matching how a Java array is a single transactional
// object under ASTM. Under the word STMs, element accesses are independent
// word accesses; under the lock strategies they compile down to plain
// atomics guarded externally.
//
// TxSet and TxBag are thin semantic wrappers: benchmark collections are small
// (3..200 elements), so linear membership scans match the asymptotics of the
// original benchmark's usage.

#ifndef STMBENCH7_SRC_CONTAINERS_TXVECTOR_H_
#define STMBENCH7_SRC_CONTAINERS_TXVECTOR_H_

#include <deque>

#include "src/common/diag.h"
#include "src/ebr/ebr.h"
#include "src/stm/field.h"

namespace sb7 {

template <typename T>
class TxVector : public TmObject {
 public:
  explicit TxVector(int64_t initial_capacity = 4)
      : chunk_(unit(), MakeChunk(initial_capacity < 1 ? 1 : initial_capacity)),
        size_(unit(), 0) {
    unit().set_topology(true);
  }

  ~TxVector() override {
    // raw-ok: destruction implies exclusivity; retired chunks are owned by EBR.
    delete internal::DecodeWord<Chunk*>(chunk_.LoadRaw());
  }

  int64_t Size() const { return size_.Get(); }
  bool Empty() const { return Size() == 0; }

  T Get(int64_t index) const {
    // Bound against the logical size, not the chunk capacity: a slot in
    // [size, capacity) holds stale data from a removed or cleared element
    // (the "printContents" bug class — an iteration bounded by capacity
    // reads elements that no longer exist).
    SB7_DCHECK(index >= 0 && index < Size());
    Chunk* chunk = chunk_.Get();
    SB7_DCHECK(index < static_cast<int64_t>(chunk->slots.size()));
    return chunk->slots[index].Get();
  }

  void Set(int64_t index, const T& value) {
    SB7_DCHECK(index >= 0 && index < Size());
    chunk_.Get()->slots[index].Set(value);
  }

  void PushBack(const T& value) {
    const int64_t size = size_.Get();
    Chunk* chunk = chunk_.Get();
    if (size == static_cast<int64_t>(chunk->slots.size())) {
      chunk = Grow(chunk, size);
    }
    chunk->slots[size].Set(value);
    size_.Set(size + 1);
  }

  // Removes by swapping the last element in; order is not preserved, which
  // matches the bag/set semantics of all benchmark collections. The vacated
  // last slot keeps its stale value until overwritten by a later PushBack —
  // accessors must bound by Size(), never by chunk capacity.
  void RemoveAt(int64_t index) {
    const int64_t size = size_.Get();
    SB7_DCHECK(index >= 0 && index < size);
    if (index != size - 1) {
      Set(index, Get(size - 1));
    }
    size_.Set(size - 1);
  }

  // Removes the first occurrence of `value`; returns false if absent.
  bool RemoveFirst(const T& value) {
    const int64_t size = size_.Get();
    for (int64_t i = 0; i < size; ++i) {
      if (Get(i) == value) {
        RemoveAt(i);
        return true;
      }
    }
    return false;
  }

  bool Contains(const T& value) const {
    const int64_t size = size_.Get();
    for (int64_t i = 0; i < size; ++i) {
      if (Get(i) == value) {
        return true;
      }
    }
    return false;
  }

  int64_t Count(const T& value) const {
    int64_t n = 0;
    const int64_t size = size_.Get();
    for (int64_t i = 0; i < size; ++i) {
      if (Get(i) == value) {
        ++n;
      }
    }
    return n;
  }

  // Stale values stay behind in the slots (see RemoveAt).
  void Clear() { size_.Set(0); }

  // Applies fn(element) to each element; fn returning false stops early.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const int64_t size = size_.Get();
    for (int64_t i = 0; i < size; ++i) {
      if constexpr (std::is_void_v<decltype(fn(Get(i)))>) {
        fn(Get(i));
      } else {
        if (!fn(Get(i))) {
          return;
        }
      }
    }
  }

  // Lock-coverage wiring for the fine-grained strategy: accesses to this
  // vector (and its chunks) count against `cover`'s lock.
  void SetCover(TmUnit& cover) {
    unit().set_cover(&cover);
    // Chunks chain through this vector's unit, so existing and future chunks
    // are covered transitively.
  }

 private:
  struct Chunk : TmObject {
    Chunk(TmUnit& owner_unit, int64_t capacity) {
      unit().set_cover(&owner_unit);
      unit().set_topology(true);
      for (int64_t i = 0; i < capacity; ++i) {
        slots.emplace_back(unit(), T{});
      }
    }
    // emplace_back into a deque never relocates existing TxFields.
    std::deque<TxField<T>> slots;
  };

  Chunk* MakeChunk(int64_t capacity) { return new Chunk(unit(), capacity); }

  Chunk* Grow(Chunk* old_chunk, int64_t size) {
    auto* fresh = new Chunk(unit(), 0);
    // A vector that the running attempt built keeps `fresh` even if the
    // attempt aborts (its destructor frees it then), so `old_chunk` is
    // retired at once (see TxText::Set).
    Transaction* tx = unit().captured() ? nullptr : CurrentTx();
    // Registered before the seeding reads, which may abort the attempt.
    if (tx != nullptr) {
      tx->OnAbort([fresh] { delete fresh; });
    }
    // Seed the new chunk with transactionally read values; the chunk itself
    // is thread-private until chunk_ is written below.
    for (int64_t i = 0; i < size; ++i) {
      fresh->slots.emplace_back(fresh->unit(), old_chunk->slots[i].Get());
    }
    const int64_t new_capacity = static_cast<int64_t>(old_chunk->slots.size()) * 2;
    for (int64_t i = size; i < new_capacity; ++i) {
      fresh->slots.emplace_back(fresh->unit(), T{});
    }
    chunk_.Set(fresh);
    if (tx != nullptr) {
      tx->OnCommit([old_chunk] { EbrDomain::Global().RetireObject(old_chunk); });
    } else {
      EbrDomain::Global().RetireObject(old_chunk);
    }
    return fresh;
  }

  TxField<Chunk*> chunk_;
  TxField<int64_t> size_;
};

// Set with linear membership (no duplicates).
template <typename T>
class TxSet {
 public:
  explicit TxSet(int64_t initial_capacity = 4) : items_(initial_capacity) {}

  // Returns false if the value was already present.
  bool Add(const T& value) {
    if (items_.Contains(value)) {
      return false;
    }
    items_.PushBack(value);
    return true;
  }

  bool Remove(const T& value) { return items_.RemoveFirst(value); }
  bool Contains(const T& value) const { return items_.Contains(value); }
  int64_t Size() const { return items_.Size(); }
  T Get(int64_t index) const { return items_.Get(index); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    items_.ForEach(std::forward<Fn>(fn));
  }

  void SetCover(TmUnit& cover) { items_.SetCover(cover); }

 private:
  TxVector<T> items_;
};

// Bag: duplicates allowed; models the many-to-many links between base
// assemblies and composite parts.
template <typename T>
class TxBag {
 public:
  explicit TxBag(int64_t initial_capacity = 4) : items_(initial_capacity) {}

  void Add(const T& value) { items_.PushBack(value); }
  bool RemoveOne(const T& value) { return items_.RemoveFirst(value); }
  bool Contains(const T& value) const { return items_.Contains(value); }
  int64_t Count(const T& value) const { return items_.Count(value); }
  int64_t Size() const { return items_.Size(); }
  T Get(int64_t index) const { return items_.Get(index); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    items_.ForEach(std::forward<Fn>(fn));
  }

  void SetCover(TmUnit& cover) { items_.SetCover(cover); }

 private:
  TxVector<T> items_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_CONTAINERS_TXVECTOR_H_
