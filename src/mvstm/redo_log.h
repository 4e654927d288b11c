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

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/redo_options.h"
#include "src/common/rng.h"

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
};

// Append-side of the log. All appends come from the group-commit leader
// while it holds the leader slot, so the writer needs no internal locking;
// WriteFileHeader precedes the workers and Close follows their join.
class RedoLogWriter {
 public:
  // File-backed when `path` is non-empty (created/truncated); in-memory
  // otherwise (tests, litmus runs under the interleaving explorer). A
  // regular file is reserved in whole steps, always past the end of the
  // next append, so a zero byte follows every frame until Close trims the
  // file; a failed reservation is a write error.
  RedoLogWriter(std::string path, Durability durability);
  ~RedoLogWriter();
  RedoLogWriter(const RedoLogWriter&) = delete;
  RedoLogWriter& operator=(const RedoLogWriter&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void SetCrashConfig(CrashConfig crash) { crash_ = std::move(crash); }

  void WriteFileHeader(uint64_t seed, const std::string& scale,
                       const std::string& backend);
  // Appends (and, per the durability policy, syncs) one group. Returns
  // false when the group is not in the log because a reservation, write or
  // sync failed, now or earlier (error() says which); the caller must not
  // acknowledge any of its members. A writer killed by a crash point drops
  // the group and returns true: the simulated crash stands for the
  // process's death.
  bool AppendGroup(const GroupRecord& group);
  // Clean shutdown: close record, trim of the unwritten reservation, final
  // sync (every policy). Idempotent.
  void Close();

  // True once a crash point fired; the file is frozen in its crash state.
  bool dead() const { return dead_; }
  bool closed() const { return closed_; }
  const WriterStats& stats() const { return stats_; }
  Durability durability() const { return durability_; }
  const std::string& path() const { return path_; }
  // In-memory mode only: the bytes a file would hold.
  const std::string& memory_buffer() const { return memory_; }

 private:
  void WriteRaw(const char* data, size_t len);
  void Sync();
  void Fire();

  std::string path_;
  Durability durability_;
  int fd_ = -1;
  bool reserving_ = false;  // fd_ is a regular file
  uint64_t written_ = 0;    // bytes written to fd_
  uint64_t reserved_ = 0;   // file size the reservations reached
  std::string memory_;
  bool ok_ = true;
  std::string error_;
  bool dead_ = false;
  bool closed_ = false;
  CrashConfig crash_;
  WriterStats stats_;
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
