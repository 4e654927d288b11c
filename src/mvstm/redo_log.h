// Durable redo log for the mvstm backend (docs/DURABILITY.md).
//
// The log is *logical*: each record re-describes a committed update
// transaction as the operation it ran plus everything that made the run
// deterministic — the operation index, the RNG state at the start of the
// committed attempt, and the hotspot skew active at the time. Because mvstm
// serializes update transactions at their commit timestamps (TL2 validation),
// replaying the records single-threaded in log order re-executes the exact
// serial history the concurrent run was equivalent to, and the recovered
// world's deep fingerprint (src/check/fingerprint.h) equals the original's.
// Physical (field, value) logging is impossible here — field identity is a
// memory address and some field words are heap pointers — and unnecessary:
// operations are pure functions of (transactional state, RNG stream, theta).
//
// On-disk format (all integers little-endian, encoded byte by byte with
// src/common/little_endian.h, as the wire protocol is; no struct punning):
//
//     frame  := u32 body_len | u32 header_crc | body | u32 body_crc
//     body   := u8 record_type | payload
//
// header_crc is the CRC-32C of the four body_len bytes, body_crc the CRC-32C
// of the body. Covering the length with its own checksum makes every
// single-bit flip in a frame deterministically detectable: a flipped length
// can never silently re-frame the stream, and CRC-32C detects all single-bit
// errors in the body. A log is a file-header record, then group records
// (one per commit group, carrying the group's members), then — on clean
// shutdown only — a close record. Recovery accepts a torn tail (the kill -9
// common case): everything up to the last complete record is replayed and
// the truncation is reported in the RecoverySummary.
//
// A file-backed writer reserves its file ahead of the writes, so a log that
// was not closed cleanly ends in zeros: the reserved, never-written rest of
// its last step. Zeros from a frame boundary to the end of the input are the
// end of the log; a frame whose written prefix is followed only by zeros is
// a torn tail. A clean close trims the reservation off.

#ifndef STMBENCH7_SRC_MVSTM_REDO_LOG_H_
#define STMBENCH7_SRC_MVSTM_REDO_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/redo_options.h"
#include "src/common/rng.h"
#include "src/mc/sync_point.h"

namespace sb7::redo {

// Pinned by sb7-lint R4 against tools/lint/schema.lock: bumping the record
// layout without bumping this constant fails the lint gate.
constexpr uint32_t kRedoLogFormatVersion = 1;

// "SB7R" little-endian, first payload field of the file-header record.
constexpr uint32_t kRedoMagic = 0x52374253;

// A group record holds at most a few hundred members of ~50 bytes each;
// a length prefix beyond this bound is corruption, not a big record.
constexpr uint32_t kMaxRedoBodyBytes = 1u << 20;

// A file-backed writer reserves its file in steps of this many bytes.
constexpr uint64_t kRedoReserveStepBytes = 1u << 20;

// Sentinel op_index for commits made outside the operation registry (raw
// RunAtomically bodies in tests and litmus runs). Such logs replay as an
// error — only registry operations are re-executable.
constexpr uint16_t kRawOpIndex = 0xFFFF;

enum class RecordType : uint8_t {
  kFileHeader = 1,
  kGroup = 2,
  kClose = 3,
};

struct FileHeaderRecord {
  uint32_t magic = kRedoMagic;
  uint32_t version = kRedoLogFormatVersion;
  uint64_t seed = 0;       // structure-build seed (DataHolder::Setup)
  std::string scale;       // "tiny" | "small" | "medium"
  std::string backend;     // strategy that wrote the log (informational)
};

// One committed update transaction: everything needed to re-execute its
// operation deterministically against the replayed world.
struct MemberRecord {
  uint16_t op_index = kRawOpIndex;
  uint64_t client_tag = 0;       // ingress request_id; 0 for local operations
  double theta = 0.0;            // hotspot skew active at the attempt
  uint64_t rng[4] = {0, 0, 0, 0};  // xoshiro256++ state at attempt start
};

struct GroupRecord {
  uint64_t group_seq = 0;   // contiguous from 0; scan rejects gaps
  uint64_t commit_ts = 0;   // the group's shared write version
  std::vector<MemberRecord> members;
};

struct CloseRecord {
  uint64_t groups = 0;
  uint64_t members = 0;
};

struct RedoRecord {
  RecordType type = RecordType::kFileHeader;
  FileHeaderRecord header;
  GroupRecord group;
  CloseRecord close;
};

// CRC-32C (Castagnoli), table-driven software implementation.
uint32_t Crc32(const void* data, size_t len);

// Payload codecs: Encode* returns the record body (type byte + payload);
// DecodeRecord rejects truncated or type-unknown bodies. Framing is separate
// so tests can corrupt the two layers independently.
std::string EncodeFileHeader(const FileHeaderRecord& record);
std::string EncodeGroup(const GroupRecord& record);
std::string EncodeClose(const CloseRecord& record);
bool DecodeRecord(const std::string& body, RedoRecord* out);

// Appends `body` to `out` as one frame (length + header crc + body + crc).
void AppendRecordFrame(std::string* out, const std::string& body);

enum class ExtractStatus {
  kRecord,    // one complete frame extracted; *offset advanced past it
  kEnd,       // clean end of input, or only reserved zeros left
  kTornTail,  // input ends inside a frame, or zeros follow a frame's prefix
  kCorrupt,   // checksum or length-bound violation
};

// Extracts the next frame body from `bytes` starting at *offset. On
// kTornTail/kCorrupt, *detail describes the stop reason and *offset is left
// at the bad frame.
ExtractStatus TryExtractRecord(const std::string& bytes, size_t* offset,
                               std::string* body, std::string* detail);

// ---------------------------------------------------------------------------
// Writer

struct WriterStats {
  uint64_t groups = 0;
  uint64_t members = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  // Syncs that started while another sync of the log was in flight.
  uint64_t overlapped_syncs = 0;
};

// At most this many groups may be between their append and the return of
// their sync. A file-backed writer syncs group g through its own open file
// description g % kMaxSyncsInFlight, opened with the log: Linux reports a
// writeback error once per open file description, so two syncs sharing one
// could hand the error of the earlier group's page to the later sync alone.
constexpr uint64_t kMaxSyncsInFlight = 2;

// Append-side of the log. Appends come from the group-commit leader while
// it holds the leader slot, so log order is the order of AppendGroup calls;
// a group's sync runs after the leader released the slot, beside the syncs
// of other groups. WriteFileHeader precedes the workers and Close follows
// their join. The counters and the failed and dead flags are atomic, and
// the error message is written under a mutex, because a sync that fails
// does so outside the slot.
class RedoLogWriter {
 public:
  // File-backed when `path` is non-empty (created/truncated); in-memory
  // otherwise (tests, litmus runs under the interleaving explorer). A
  // regular file is reserved in whole steps, always past the end of the
  // next append, so a zero byte follows every frame until Close trims the
  // file; a failed reservation is a write error. Unless the policy is kOff,
  // the log is opened kMaxSyncsInFlight more times for the group syncs.
  RedoLogWriter(std::string path, Durability durability);
  ~RedoLogWriter();
  RedoLogWriter(const RedoLogWriter&) = delete;
  RedoLogWriter& operator=(const RedoLogWriter&) = delete;

  // mo: acquire — pairs with Fail's release, so error() then holds the
  // failure.
  bool ok() const { return ok_.load(std::memory_order_acquire); }
  // The first failure's message; empty while ok().
  std::string error() const;

  void SetCrashConfig(CrashConfig crash) { crash_ = std::move(crash); }

  void WriteFileHeader(uint64_t seed, const std::string& scale,
                       const std::string& backend);
  // Writes one group's frame, unsynced. Returns false when the frame is not
  // in the log because a reservation, write or sync failed, now or earlier
  // (error() says which); the caller must not acknowledge any of its
  // members. A writer killed by a crash point drops the group and returns
  // true: the simulated crash stands for the process's death.
  bool AppendGroup(const GroupRecord& group);
  // Syncs appended group `group_seq` unless the policy is kOff. May run
  // beside the syncs of other groups, provided no more than
  // kMaxSyncsInFlight groups are between AppendGroup and the return of
  // this call. Returns false when the sync failed (error() says why); the
  // group and every later one must then stay unacknowledged, and the sync
  // must not be retried: after a failed fsync the page cache may already
  // have dropped the data. An in-memory writer models the sync in two
  // steps, with a sync point between them that lets another group's sync
  // end first: the start covers this group, the end marks it synced.
  bool SyncGroup(uint64_t group_seq);
  // Clean shutdown: close record, trim of the unwritten reservation, final
  // sync (every policy). Idempotent.
  void Close();

  // True once a crash point fired; the file is frozen in its crash state.
  // mo: relaxed — the appends and syncs that read it only skip work.
  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  bool closed() const { return closed_; }
  WriterStats stats() const;
  Durability durability() const { return durability_; }
  const std::string& path() const { return path_; }
  // In-memory mode only: the bytes a file would hold.
  const std::string& memory_buffer() const { return memory_; }
  // In-memory mode only: how many groups, counted from group 0, have all
  // had their syncs end.
  uint64_t synced_prefix() const;

 private:
  void WriteRaw(const char* data, size_t len);
  // fdatasync of `fd`, counted; a failure fails the writer.
  bool Sync(int fd);
  void Fail(std::string error);
  void Fire();
  void CloseFiles();

  std::string path_;
  Durability durability_;
  int fd_ = -1;
  int sync_fds_[kMaxSyncsInFlight];  // -1 when not open
  bool reserving_ = false;  // fd_ is a regular file
  uint64_t written_ = 0;    // bytes written to fd_
  uint64_t reserved_ = 0;   // file size the reservations reached
  std::string memory_;
  std::atomic<bool> ok_{true};
  std::atomic<bool> dead_{false};
  bool closed_ = false;
  CrashConfig crash_;
  std::atomic<uint64_t> groups_{0};
  std::atomic<uint64_t> members_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> overlapped_syncs_{0};
  std::atomic<uint64_t> syncs_in_flight_{0};
  // Guards error_ and, in memory, the sync marks.
  mutable std::mutex mu_;
  std::string error_;
  std::vector<bool> synced_;  // by group_seq
  uint64_t synced_prefix_ = 0;
  // In memory: syncs ended. Its atomic operations are the explorer's view
  // of the marks.
  sp::AtomicU64 sync_ends_{0};
};

// ---------------------------------------------------------------------------
// Recovery

struct RecoverySummary {
  bool header_ok = false;
  FileHeaderRecord header;
  uint64_t groups = 0;
  uint64_t members = 0;
  bool clean_close = false;  // intact close record matching the group count
  bool torn_tail = false;    // input ended inside a record
  bool corrupt = false;      // checksum / framing violation stopped the scan
  uint64_t bytes_consumed = 0;
  uint64_t bytes_total = 0;
  uint64_t bytes_reserved = 0;  // zeros ending the input past bytes_consumed
  std::string detail;        // human-readable stop reason when torn/corrupt
};

// Sequentially scans `bytes`, collecting the complete, checksum-valid group
// records in order and describing the stop condition in `summary`. A torn or
// corrupt tail is not a scan failure — the records before it are good.
void ScanLog(const std::string& bytes, std::vector<GroupRecord>* groups,
             RecoverySummary* summary);

bool ReadLogFile(const std::string& path, std::string* bytes, std::string* error);

struct ReplayResult {
  bool ok = false;          // scan legal and, if replayed, invariants held
  std::string error;        // set when ok == false
  RecoverySummary summary;
  bool replayed = false;    // a world was rebuilt (requires an intact header)
  uint64_t fingerprint = 0; // DeepFingerprint of the recovered world
  int64_t ops_replayed = 0;
  std::vector<std::string> invariant_violations;
};

// Rebuilds the world from the log header's (seed, scale), then re-executes
// every logged member single-threaded in log order under `backend` (any
// MakeStrategy name; the fingerprint is content-based, so replays under
// different backends must agree). A log whose header never reached the disk
// recovers the empty world: ok, replayed == false.
ReplayResult RecoverFromBytes(const std::string& bytes, const std::string& backend);
ReplayResult RecoverFromLog(const std::string& path, const std::string& backend);

// Formats a --recover style terminal report (also used by tools/crash_loop.sh,
// which greps the "fingerprint:" line).
std::string FormatReplayResult(const ReplayResult& result);

// ---------------------------------------------------------------------------
// Replay-context capture (thread-local)
//
// StmStrategy::Execute snapshots the capture context at the top of every
// attempt (rng state, hotspot theta, and the op index and client request id
// of the op context in src/stm/field.h); the group-commit sequencer reads the
// snapshot of the attempt that committed and writes it into the member
// record. Served runs set the request id, so `acked ⊆ durable` is checkable
// against the recovered log.

void CaptureAttemptContext(const Rng& rng);
const MemberRecord& CurrentAttemptContext();

}  // namespace sb7::redo

#endif  // STMBENCH7_SRC_MVSTM_REDO_LOG_H_
