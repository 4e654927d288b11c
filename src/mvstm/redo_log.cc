#include "src/mvstm/redo_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/check/fingerprint.h"
#include "src/common/hotspot.h"
#include "src/common/little_endian.h"
#include "src/core/data_holder.h"
#include "src/core/invariants.h"
#include "src/core/parameters.h"
#include "src/ebr/ebr.h"
#include "src/ops/operation.h"
#include "src/stm/field.h"
#include "src/strategy/strategy.h"

namespace sb7::redo {
namespace {

// Frame layout constants: u32 body_len + u32 header_crc, then body, then
// u32 body_crc.
constexpr size_t kFrameHeaderBytes = 8;
constexpr size_t kFrameTrailerBytes = 4;

// True when bytes[from, end) are all zero. The search stops at the first
// nonzero byte, and a frame's length prefix puts one within its first four
// bytes, so testing every frame boundary keeps a scan linear.
bool ZerosFrom(const std::string& bytes, size_t from) {
  return std::all_of(bytes.begin() + static_cast<std::ptrdiff_t>(from), bytes.end(),
                     [](char c) { return c == 0; });
}

// A frame the crash cut short in a reserved file: from its last byte
// (`last`) on, the input holds only the zeros of the reservation, which runs
// past it because the writer keeps a reserved byte after every frame. A
// frame that fails its checksums otherwise was written whole and is corrupt.
bool CutShortByReservedTail(const std::string& bytes, size_t last) {
  return last + 1 < bytes.size() && ZerosFrom(bytes, last);
}

thread_local MemberRecord tls_attempt_context;

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  // CRC-32C (Castagnoli). Table built once; the polynomial's single-bit
  // error detection is what makes the corruption sweep deterministic.
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (0x82F63B78u ^ (crc >> 1)) : (crc >> 1);
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeFileHeader(const FileHeaderRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(RecordType::kFileHeader));
  AppendU32(&body, record.magic);
  AppendU32(&body, record.version);
  AppendU64(&body, record.seed);
  AppendShortString(&body, record.scale);
  AppendShortString(&body, record.backend);
  return body;
}

std::string EncodeGroup(const GroupRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(RecordType::kGroup));
  AppendU64(&body, record.group_seq);
  AppendU64(&body, record.commit_ts);
  AppendU16(&body, static_cast<uint16_t>(record.members.size()));
  for (const MemberRecord& member : record.members) {
    AppendU16(&body, member.op_index);
    AppendU64(&body, member.client_tag);
    AppendDouble(&body, member.theta);
    for (uint64_t word : member.rng) {
      AppendU64(&body, word);
    }
  }
  return body;
}

std::string EncodeClose(const CloseRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(RecordType::kClose));
  AppendU64(&body, record.groups);
  AppendU64(&body, record.members);
  return body;
}

bool DecodeRecord(const std::string& body, RedoRecord* out) {
  ByteReader reader{body};
  uint8_t type = 0;
  if (!reader.ReadU8(&type)) {
    return false;
  }
  switch (static_cast<RecordType>(type)) {
    case RecordType::kFileHeader: {
      out->type = RecordType::kFileHeader;
      FileHeaderRecord& header = out->header;
      return reader.ReadU32(&header.magic) && reader.ReadU32(&header.version) &&
             reader.ReadU64(&header.seed) && reader.ReadShortString(&header.scale) &&
             reader.ReadShortString(&header.backend) && reader.AtEnd();
    }
    case RecordType::kGroup: {
      out->type = RecordType::kGroup;
      GroupRecord& group = out->group;
      uint16_t count = 0;
      if (!reader.ReadU64(&group.group_seq) || !reader.ReadU64(&group.commit_ts) ||
          !reader.ReadU16(&count)) {
        return false;
      }
      group.members.assign(count, MemberRecord{});
      for (MemberRecord& member : group.members) {
        if (!reader.ReadU16(&member.op_index) || !reader.ReadU64(&member.client_tag) ||
            !reader.ReadDouble(&member.theta)) {
          return false;
        }
        for (uint64_t& word : member.rng) {
          if (!reader.ReadU64(&word)) {
            return false;
          }
        }
      }
      return reader.AtEnd();
    }
    case RecordType::kClose: {
      out->type = RecordType::kClose;
      return reader.ReadU64(&out->close.groups) && reader.ReadU64(&out->close.members) &&
             reader.AtEnd();
    }
    default:
      return false;
  }
}

void AppendRecordFrame(std::string* out, const std::string& body) {
  std::string len_bytes;
  AppendU32(&len_bytes, static_cast<uint32_t>(body.size()));
  out->append(len_bytes);
  AppendU32(out, Crc32(len_bytes.data(), len_bytes.size()));
  out->append(body);
  AppendU32(out, Crc32(body.data(), body.size()));
}

ExtractStatus TryExtractRecord(const std::string& bytes, size_t* offset,
                               std::string* body, std::string* detail) {
  if (ZerosFrom(bytes, *offset)) {
    return ExtractStatus::kEnd;  // nothing left, or reserved space never written
  }
  const size_t remaining = bytes.size() - *offset;
  if (remaining < kFrameHeaderBytes) {
    *detail = "truncated frame header";
    return ExtractStatus::kTornTail;
  }
  ByteReader header{bytes, *offset};
  uint32_t body_len = 0;
  uint32_t header_crc = 0;
  header.ReadU32(&body_len);
  header.ReadU32(&header_crc);
  if (Crc32(bytes.data() + *offset, 4) != header_crc) {
    if (CutShortByReservedTail(bytes, *offset + kFrameHeaderBytes - 1)) {
      *detail = "frame header cut short by the reserved tail";
      return ExtractStatus::kTornTail;
    }
    *detail = "frame length checksum mismatch";
    return ExtractStatus::kCorrupt;
  }
  if (body_len == 0 || body_len > kMaxRedoBodyBytes) {
    *detail = "frame length out of range";
    return ExtractStatus::kCorrupt;
  }
  if (remaining < kFrameHeaderBytes + body_len + kFrameTrailerBytes) {
    *detail = "truncated record body";
    return ExtractStatus::kTornTail;
  }
  const size_t body_start = *offset + kFrameHeaderBytes;
  ByteReader trailer{bytes, body_start + body_len};
  uint32_t body_crc = 0;
  trailer.ReadU32(&body_crc);
  if (Crc32(bytes.data() + body_start, body_len) != body_crc) {
    if (CutShortByReservedTail(bytes, body_start + body_len + kFrameTrailerBytes - 1)) {
      *detail = "record cut short by the reserved tail";
      return ExtractStatus::kTornTail;
    }
    *detail = "record checksum mismatch";
    return ExtractStatus::kCorrupt;
  }
  body->assign(bytes, body_start, body_len);
  *offset = body_start + body_len + kFrameTrailerBytes;
  return ExtractStatus::kRecord;
}

RedoLogWriter::RedoLogWriter(std::string path, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  std::fill(std::begin(sync_fds_), std::end(sync_fds_), -1);
  if (path_.empty()) {
    return;  // in-memory mode
  }
  fd_ = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    Fail("cannot open redo log '" + path_ + "': " + std::strerror(errno));
    return;
  }
  // Only a regular file takes a reservation; a FIFO or a device log is
  // written as it comes.
  struct stat st = {};
  reserving_ = ::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode);
  if (durability_ == Durability::kOff) {
    return;  // only Close syncs, through fd_
  }
  // The group syncs' open file descriptions, opened before anything is
  // written, so each one's error cursor predates every page of the log.
  for (int& fd : sync_fds_) {
    fd = ::open(path_.c_str(), O_WRONLY);
    if (fd < 0) {
      Fail("cannot open redo log '" + path_ + "' for its syncs: " + std::strerror(errno));
      return;
    }
  }
}

RedoLogWriter::~RedoLogWriter() { CloseFiles(); }

void RedoLogWriter::CloseFiles() {
  for (int& fd : sync_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string RedoLogWriter::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void RedoLogWriter::Fail(std::string error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.empty()) {
    error_ = std::move(error);  // the first failure is the cause
  }
  // mo: release — pairs with ok()'s acquire.
  ok_.store(false, std::memory_order_release);
}

WriterStats RedoLogWriter::stats() const {
  WriterStats stats;
  // mo: relaxed (all) — counters; a snapshot taken while groups commit may
  // mix their states.
  stats.groups = groups_.load(std::memory_order_relaxed);
  stats.members = members_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  stats.overlapped_syncs = overlapped_syncs_.load(std::memory_order_relaxed);
  return stats;
}

uint64_t RedoLogWriter::synced_prefix() const {
  // mo: relaxed — a sync point the explorer orders against each sync's
  // end; the prefix itself is under mu_.
  (void)sync_ends_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  return synced_prefix_;
}

void RedoLogWriter::WriteRaw(const char* data, size_t len) {
  if (fd_ < 0) {
    memory_.append(data, len);
    return;
  }
  // Appends inside the reservation leave the file size alone, so a sync has
  // no size to journal. The reservation grows in whole steps and always
  // past the append's end: recovery tells a torn frame by the reserved
  // zeros after it.
  if (reserving_ && written_ + len >= reserved_) {
    const uint64_t want =
        (written_ + len) / kRedoReserveStepBytes * kRedoReserveStepBytes + kRedoReserveStepBytes;
    int rc = 0;
    do {
      rc = ::posix_fallocate(fd_, static_cast<off_t>(reserved_),
                             static_cast<off_t>(want - reserved_));
    } while (rc == EINTR);  // a signal arrived first; retry, as write() does
    if (rc != 0) {
      Fail("reserving space in redo log '" + path_ + "' failed: " + std::strerror(rc));
      return;
    }
    reserved_ = want;
  }
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd_, data + written, len - written);
    if (n < 0 && errno == EINTR) {
      continue;  // a signal arrived before anything was written; retry
    }
    if (n < 0) {
      Fail("write to redo log '" + path_ + "' failed: " + std::strerror(errno));
      return;
    }
    written += static_cast<size_t>(n);
    written_ += static_cast<uint64_t>(n);
  }
}

bool RedoLogWriter::Sync(int fd) {
  if (::fdatasync(fd) != 0) {
    Fail("fdatasync of redo log '" + path_ + "' failed: " + std::strerror(errno));
    return false;
  }
  // mo: relaxed — a counter.
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RedoLogWriter::Fire() {
  // mo: relaxed — read by SyncGroup, whose group the crash already lost.
  dead_.store(true, std::memory_order_relaxed);
  if (crash_.on_fire) {
    crash_.on_fire();
    return;
  }
  // CLI default: die the way kill -9 would, without flushing anything.
  std::_Exit(137);
}

void RedoLogWriter::WriteFileHeader(uint64_t seed, const std::string& scale,
                                    const std::string& backend) {
  if (dead() || !ok()) {
    return;
  }
  FileHeaderRecord header;
  header.seed = seed;
  header.scale = scale;
  header.backend = backend;
  std::string frame;
  AppendRecordFrame(&frame, EncodeFileHeader(header));
  WriteRaw(frame.data(), frame.size());
  // mo: relaxed — a counter.
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (durability_ != Durability::kOff && fd_ >= 0 && ok()) {
    Sync(fd_);
  }
}

bool RedoLogWriter::AppendGroup(const GroupRecord& group) {
  if (dead()) {
    return true;
  }
  if (!ok()) {
    return false;
  }
  std::string frame;
  AppendRecordFrame(&frame, EncodeGroup(group));
  const bool fire =
      crash_.point != CrashPoint::kNone && group.group_seq == crash_.at_group;
  if (fire && crash_.point == CrashPoint::kBeforeAppend) {
    Fire();
    return true;
  }
  if (fire && crash_.point == CrashPoint::kTornWrite) {
    // The kill -9 common case: a prefix of the frame reaches the file.
    WriteRaw(frame.data(), frame.size() / 2);
    Fire();
    return true;
  }
  WriteRaw(frame.data(), frame.size());
  if (!ok()) {
    return false;
  }
  // mo: relaxed (all) — counters.
  groups_.fetch_add(1, std::memory_order_relaxed);
  members_.fetch_add(group.members.size(), std::memory_order_relaxed);
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (fire && crash_.point == CrashPoint::kAfterAppend) {
    Fire();  // the append is in the page cache but was never fsynced
  }
  return true;
}

bool RedoLogWriter::SyncGroup(uint64_t group_seq) {
  if (durability_ == Durability::kOff || dead()) {
    return true;
  }
  if (!ok()) {
    return false;
  }
  // mo: relaxed (both) — counters; the in-flight count orders nothing.
  if (syncs_in_flight_.fetch_add(1, std::memory_order_relaxed) > 0) {
    overlapped_syncs_.fetch_add(1, std::memory_order_relaxed);
  }
  bool synced = true;
  if (crash_.point == CrashPoint::kFailedSync && group_seq == crash_.at_group) {
    if (crash_.on_fire) {
      crash_.on_fire();
    }
    Fail("fdatasync of redo log '" + path_ + "' failed: " + std::strerror(EIO) +
         " (injected at group " + std::to_string(group_seq) + ")");
    synced = false;
  } else if (fd_ >= 0) {
    synced = Sync(sync_fds_[group_seq % kMaxSyncsInFlight]);
  } else {
    // The in-memory model of a sync that another can overtake: it started
    // above, covering this group, and ends here, marking it synced. The
    // end's sync point lets the explorer run a later group's whole sync
    // first, and its write orders the end against synced_prefix()'s read.
    // mo: relaxed — the marks below are under mu_.
    sync_ends_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (synced_.size() <= group_seq) {
      synced_.resize(group_seq + 1, false);
    }
    synced_[group_seq] = true;
    while (synced_prefix_ < synced_.size() && synced_[synced_prefix_]) {
      ++synced_prefix_;
    }
  }
  // mo: relaxed — a counter.
  syncs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return synced;
}

void RedoLogWriter::Close() {
  if (dead() || !ok() || closed_) {
    return;
  }
  CloseRecord close;
  // mo: relaxed (both) — counters, and the appends are over.
  close.groups = groups_.load(std::memory_order_relaxed);
  close.members = members_.load(std::memory_order_relaxed);
  std::string frame;
  AppendRecordFrame(&frame, EncodeClose(close));
  WriteRaw(frame.data(), frame.size());
  // mo: relaxed — a counter.
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  // A cleanly closed log is its records alone; fdatasync makes the trimmed
  // size durable with them.
  if (reserving_ && ok() && ::ftruncate(fd_, static_cast<off_t>(written_)) != 0) {
    Fail("trimming redo log '" + path_ + "' failed: " + std::strerror(errno));
  }
  if (fd_ >= 0) {
    Sync(fd_);
  }
  closed_ = true;
  CloseFiles();
}

void ScanLog(const std::string& bytes, std::vector<GroupRecord>* groups,
             RecoverySummary* summary) {
  summary->bytes_total = bytes.size();
  size_t offset = 0;
  std::string body;
  std::string detail;
  bool saw_header = false;
  uint64_t expected_seq = 0;
  uint64_t last_commit_ts = 0;
  for (;;) {
    const ExtractStatus status = TryExtractRecord(bytes, &offset, &body, &detail);
    if (status == ExtractStatus::kEnd) {
      break;
    }
    if (status == ExtractStatus::kTornTail) {
      summary->torn_tail = true;
      summary->detail = detail;
      break;
    }
    if (status == ExtractStatus::kCorrupt) {
      summary->corrupt = true;
      summary->detail = detail;
      break;
    }
    RedoRecord record;
    if (!DecodeRecord(body, &record)) {
      summary->corrupt = true;
      summary->detail = "undecodable record body";
      break;
    }
    if (!saw_header) {
      if (record.type != RecordType::kFileHeader) {
        summary->corrupt = true;
        summary->detail = "log does not start with a file header";
        break;
      }
      if (record.header.magic != kRedoMagic) {
        summary->corrupt = true;
        summary->detail = "bad file magic";
        break;
      }
      if (record.header.version != kRedoLogFormatVersion) {
        summary->corrupt = true;
        summary->detail = "unsupported redo log format version";
        break;
      }
      summary->header = record.header;
      summary->header_ok = true;
      saw_header = true;
    } else if (record.type == RecordType::kGroup) {
      // Sequence gaps and a backwards clock cannot come from the writer;
      // reject rather than replay a spliced or reordered log.
      if (record.group.group_seq != expected_seq ||
          record.group.commit_ts <= last_commit_ts) {
        summary->corrupt = true;
        summary->detail = "group sequence or commit-timestamp order violation";
        break;
      }
      ++expected_seq;
      last_commit_ts = record.group.commit_ts;
      ++summary->groups;
      summary->members += record.group.members.size();
      groups->push_back(std::move(record.group));
    } else if (record.type == RecordType::kClose) {
      summary->clean_close = record.close.groups == summary->groups &&
                             record.close.members == summary->members;
      summary->bytes_consumed = offset;
      break;  // the close record is final
    } else {
      summary->corrupt = true;
      summary->detail = "duplicate file header";
      break;
    }
    summary->bytes_consumed = offset;
  }
  size_t end = bytes.size();
  while (end > summary->bytes_consumed && bytes[end - 1] == 0) {
    --end;
  }
  summary->bytes_reserved = bytes.size() - end;
}

bool ReadLogFile(const std::string& path, std::string* bytes, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read redo log '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

ReplayResult RecoverFromBytes(const std::string& bytes, const std::string& backend) {
  ReplayResult result;
  std::vector<GroupRecord> groups;
  ScanLog(bytes, &groups, &result.summary);
  if (!result.summary.header_ok) {
    // Killed before the header reached the disk: the recovered state is the
    // never-built world. Legal crash outcome, nothing to replay.
    result.ok = true;
    return result;
  }
  const std::string& scale = result.summary.header.scale;
  if (scale != "tiny" && scale != "small" && scale != "medium") {
    result.error = "log header names unknown scale '" + scale + "'";
    return result;
  }
  std::unique_ptr<SyncStrategy> strategy = MakeStrategy(backend);
  if (strategy == nullptr) {
    result.error = "unknown replay backend '" + backend + "'";
    return result;
  }

  DataHolder::Setup setup;
  setup.params = Parameters::ForName(scale);
  setup.index_kind = DefaultIndexKindFor(backend);
  setup.seed = result.summary.header.seed;
  DataHolder data(setup);
  OperationRegistry registry;
  const auto& ops = registry.all();

  Rng rng;
  double active_theta = 0.0;
  for (const GroupRecord& group : groups) {
    for (const MemberRecord& member : group.members) {
      if (member.op_index >= ops.size()) {
        result.error = "log records an operation outside the registry";
        ResetHotspotPolicy();
        return result;
      }
      if (member.theta != active_theta) {
        if (member.theta == 0.0) {
          ResetHotspotPolicy();
        } else {
          HotspotPolicy policy;
          policy.theta = member.theta;
          SetHotspotPolicy(policy);
        }
        active_theta = member.theta;
      }
      rng.RestoreState(member.rng);
      SetTxOpContext(member.op_index);
      try {
        strategy->Execute(*ops[member.op_index], data, rng);
      } catch (const OperationFailed&) {
        // A failure-committed operation: its buffered writes committed in the
        // original run and commit identically here.
      }
      SetTxOpContext(-1);
      EbrDomain::Global().Quiesce();
      ++result.ops_replayed;
    }
  }
  ResetHotspotPolicy();
  EbrDomain::Global().Quiesce();
  EbrDomain::Global().TryReclaim();

  const InvariantReport invariants = CheckInvariants(data);
  result.invariant_violations = invariants.violations;
  result.fingerprint = DeepFingerprint(data);
  result.replayed = true;
  result.ok = invariants.ok();
  if (!result.ok) {
    result.error = "recovered world violates invariants: " + invariants.violations[0];
  }
  return result;
}

ReplayResult RecoverFromLog(const std::string& path, const std::string& backend) {
  std::string bytes;
  std::string error;
  if (!ReadLogFile(path, &bytes, &error)) {
    ReplayResult result;
    result.error = std::move(error);
    return result;
  }
  return RecoverFromBytes(bytes, backend);
}

std::string FormatReplayResult(const ReplayResult& result) {
  std::ostringstream out;
  const RecoverySummary& summary = result.summary;
  out << "redo log: " << summary.bytes_consumed << "/"
      << summary.bytes_total - summary.bytes_reserved << " bytes, " << summary.groups
      << " groups, " << summary.members << " members";
  if (summary.bytes_reserved != 0) {
    out << ", " << summary.bytes_reserved << " reserved bytes never written";
  }
  out << "\n";
  out << "shutdown: "
      << (summary.clean_close ? "clean"
          : summary.torn_tail ? "torn tail (" + summary.detail + ")"
          : summary.corrupt   ? "corrupt (" + summary.detail + ")"
                              : "no close record")
      << "\n";
  if (!result.replayed) {
    out << "fingerprint: none ("
        << (result.error.empty() ? "log header incomplete" : result.error) << ")\n";
    return out.str();
  }
  out << "replayed: " << result.ops_replayed << " operations under seed "
      << summary.header.seed << " (" << summary.header.scale << ")\n";
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  out << "fingerprint: " << hex << "\n";
  if (!result.invariant_violations.empty()) {
    out << "INVARIANT VIOLATIONS (" << result.invariant_violations.size() << "):\n";
    for (const std::string& violation : result.invariant_violations) {
      out << "  " << violation << "\n";
    }
  }
  return out.str();
}

void CaptureAttemptContext(const Rng& rng) {
  MemberRecord& context = tls_attempt_context;
  const int op = TxOpContext();
  context.op_index =
      op >= 0 && op < kRawOpIndex ? static_cast<uint16_t>(op) : kRawOpIndex;
  context.client_tag = TxRequestId();
  context.theta = CurrentHotspotPolicy().theta;
  rng.SaveState(context.rng);
}

const MemberRecord& CurrentAttemptContext() { return tls_attempt_context; }

}  // namespace sb7::redo
