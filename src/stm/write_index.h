// Flat write index for the redo-log STMs (tl2, norec, mvstm).
//
// Maps a field's address to its position in the transaction's write log, so
// that a read after a write finds the buffered value and a second write to a
// field overwrites its log entry instead of appending one. An open-addressing
// table with linear probing, kept at most half full; it lives in the cached
// per-thread transaction object and is reused by every attempt, so the hot
// path allocates nothing once the table has grown to the thread's largest
// write set.
//
// clear() is O(1): every slot carries the generation that filled it, and
// only slots of the current generation are live. Bumping the generation
// forgets every entry; the slots are reset only when the 16-bit tag wraps,
// once per 65,535 clears.

#ifndef STMBENCH7_SRC_STM_WRITE_INDEX_H_
#define STMBENCH7_SRC_STM_WRITE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sb7 {

class WriteIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  WriteIndex() : slots_(kInitialSlots) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // Log position recorded for `key`, or kNotFound.
  uint32_t Find(const void* key) const {
    if (size_ == 0) {
      return kNotFound;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(key, mask);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        return kNotFound;
      }
      if (slot.key == key) {
        return slot.position;
      }
    }
  }

  // Records `position` for `key` unless the key is present. Returns the
  // position the index holds for `key` and whether it was inserted (the
  // contract of std::unordered_map::try_emplace).
  std::pair<uint32_t, bool> Insert(const void* key, uint32_t position) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(key, mask);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = Slot{key, position, generation_};
        ++size_;
        return {position, true};
      }
      if (slot.key == key) {
        return {slot.position, false};
      }
    }
  }

  // Forgets every entry.
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {
      for (Slot& slot : slots_) {
        slot.generation = 0;
      }
      generation_ = 1;
    }
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  struct Slot {
    const void* key = nullptr;
    uint32_t position = 0;
    uint16_t generation = 0;  // live iff equal to the index's generation
  };

  // Fibonacci hash of the address; fields are 8-byte aligned, so the low
  // three bits carry nothing.
  static size_t SlotOf(const void* key, size_t mask) {
    const uint64_t h =
        (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(key)) >> 3) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h >> 32) & mask;
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.generation != generation_) {
        continue;
      }
      size_t i = SlotOf(slot.key, mask);
      while (slots_[i].generation == generation_) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint16_t generation_ = 1;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_WRITE_INDEX_H_
