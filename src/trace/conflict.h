/// \file
/// Abort attribution: which locations and which operation pairs kill
/// transactions.
///
/// The conflict table is a fixed array of atomically-updated buckets keyed
/// by the conflict key backends attach to aborts (the address of the
/// contended field's lock word). Each bucket counts aborts attributed to
/// its key and remembers the op type of the last writer seen there, which
/// feeds a (victim op × last-writer op) pair matrix — the "who kills whom"
/// table §6 of the paper reads off abort rates. Keys that hash to the same
/// bucket share a count (attribution is statistical); with 2^12 buckets
/// against a handful of genuinely hot locations, collisions only blur the
/// cold tail.

#ifndef STMBENCH7_SRC_TRACE_CONFLICT_H_
#define STMBENCH7_SRC_TRACE_CONFLICT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/stm/field.h"

namespace sb7::trace {

/// Op axis of the pair matrix: slot 0 = "no operation context" (setup,
/// tests), slot i+1 = registry op index i. 64 covers the 45-op registry
/// with headroom.
inline constexpr int kConflictOpSlots = 64;

/// Clamps an op index from TxOpContext() onto the matrix axis.
constexpr int ConflictOpSlot(int op_index) {
  return (op_index < 0 || op_index >= kConflictOpSlots - 1) ? 0 : op_index + 1;
}

class ConflictTable {
 public:
  static constexpr size_t kBuckets = 4096;

  ConflictTable()
      : buckets_(new Bucket[kBuckets]),
        pairs_(new std::atomic<int64_t>[kConflictOpSlots * kConflictOpSlots]()) {}

  /// Notes a transactional write to `key` by op `op_index` (registry index,
  /// -1 = none): the bucket's last-writer is what a later abort on the same
  /// key pairs its victim against.
  void RecordWrite(uintptr_t key, int op_index) {
    if (key == 0) {
      return;
    }
    Bucket& bucket = buckets_[BucketOf(key)];
    // mo: relaxed — attribution is statistical by design (racing writers
    // may interleave key/op); no reader derives invariants from a bucket.
    bucket.key.store(key, std::memory_order_relaxed);
    bucket.last_writer_op.store(ConflictOpSlot(op_index), std::memory_order_relaxed);
  }

  /// Attributes one abort of op `victim_op_index` to `key`.
  void RecordAbort(uintptr_t key, int victim_op_index) {
    // mo: relaxed — statistical tallies, here and below; see RecordWrite.
    total_aborts_.fetch_add(1, std::memory_order_relaxed);
    if (key == 0) {
      return;
    }
    Bucket& bucket = buckets_[BucketOf(key)];
    // mo: relaxed — statistical bucket updates (see RecordWrite).
    bucket.key.store(key, std::memory_order_relaxed);
    bucket.aborts.fetch_add(1, std::memory_order_relaxed);
    const int writer = bucket.last_writer_op.load(std::memory_order_relaxed);
    const int victim = ConflictOpSlot(victim_op_index);
    pairs_[victim * kConflictOpSlots + writer].fetch_add(1, std::memory_order_relaxed);
    attributed_aborts_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Point-in-time copy of every counter; taken at phase boundaries so the
  /// per-phase report is Delta(end, begin).
  struct Snapshot {
    std::vector<int64_t> bucket_aborts;  // size kBuckets
    std::vector<uint64_t> bucket_keys;   // representative key per bucket
    std::vector<int64_t> pair_counts;    // kConflictOpSlots^2, [victim][writer]
    int64_t total_aborts = 0;
    int64_t attributed_aborts = 0;
  };
  Snapshot TakeSnapshot() const;

  /// end - begin, counter-wise; keys come from `end`.
  static Snapshot Delta(const Snapshot& end, const Snapshot& begin);

 private:
  struct Bucket {
    std::atomic<uint64_t> key{0};
    std::atomic<int64_t> aborts{0};
    std::atomic<int32_t> last_writer_op{0};
  };

  static size_t BucketOf(uintptr_t key) {
    // Fibonacci scramble of the (8-byte aligned) key.
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 52) & (kBuckets - 1);
  }

  std::unique_ptr<Bucket[]> buckets_;
  std::unique_ptr<std::atomic<int64_t>[]> pairs_;
  std::atomic<int64_t> total_aborts_{0};
  std::atomic<int64_t> attributed_aborts_{0};
};

/// Report-ready ranking extracted from a snapshot (usually a phase delta).
struct ConflictHotLocation {
  uint64_t key = 0;       // conflict key (lock word address) — an opaque id
  int64_t aborts = 0;
};
struct ConflictPair {
  int victim_slot = 0;    // ConflictOpSlot values; 0 = no op context
  int writer_slot = 0;
  int64_t aborts = 0;
};
struct ConflictSummary {
  int64_t total_aborts = 0;       // all aborts seen in the window
  int64_t attributed_aborts = 0;  // aborts that carried a conflict key
  std::vector<ConflictHotLocation> top_locations;  // descending by aborts
  std::vector<ConflictPair> top_pairs;             // descending by aborts
};

/// Ranks the top-k hottest locations and deadliest op pairs in `snapshot`.
ConflictSummary SummarizeConflicts(const ConflictTable::Snapshot& snapshot, size_t top_k);

}  // namespace sb7::trace

#endif  // STMBENCH7_SRC_TRACE_CONFLICT_H_
