// Crash-recovery tests for the mvstm redo log (docs/DURABILITY.md):
//  - codec property tests: every record type round-trips; every truncation
//    and every single-bit flip of a log is rejected cleanly (torn tail or
//    corrupt), never crashing the scanner or silently replaying bad data,
//  - writer fault injection: each CrashPoint freezes the file in exactly the
//    state a kill -9 at that instant would leave, in memory and in a file
//    reserved ahead of its writes, and a failed append or reservation ends
//    the process before the commit it carries returns,
//  - reserved files: a clean close trims the reservation, a file holding
//    only its reservation is the empty world, and a bit flip in a frame
//    that another frame follows is corruption, never a torn tail,
//  - kill -9 harness: forked benchmark children are SIGKILLed mid-write-storm
//    at random offsets (plus deterministically at every crash point) and the
//    replayed log's deep fingerprint must equal a survivor's — under the
//    mvstm backend and under tl2 (the log is logical, so replay backends
//    must agree),
//  - live-vs-replay: a run that finishes cleanly fingerprints identically to
//    the world recovered from its own log,
//  - acked ⊆ durable: a loopback served storm killed mid-run must not
//    have acked any request whose commit group never reached the log.
//
// The fork-based tests come first in this file: gtest runs tests in
// declaration order, and forking before any test has spawned threads keeps
// the children trivially safe under TSan.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <limits.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/check/fingerprint.h"
#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/driver.h"
#include "src/mvstm/durable_log.h"
#include "src/mvstm/group_commit.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/redo_log.h"
#include "src/net/client.h"
#include "src/net/net.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

using redo::AppendRecordFrame;
using redo::CloseRecord;
using redo::CrashConfig;
using redo::CrashPoint;
using redo::DecodeRecord;
using redo::Durability;
using redo::EncodeClose;
using redo::EncodeFileHeader;
using redo::EncodeGroup;
using redo::ExtractStatus;
using redo::FileHeaderRecord;
using redo::GroupRecord;
using redo::MemberRecord;
using redo::RecordType;
using redo::RecoverFromBytes;
using redo::RecoverFromLog;
using redo::RecoverySummary;
using redo::RedoLogWriter;
using redo::RedoRecord;
using redo::ReplayResult;
using redo::ScanLog;
using redo::TryExtractRecord;

// Unique per-test scratch path; unlinked by the caller when done.
std::string ScratchLog(const char* tag) {
  return "/tmp/sb7_recovery_" + std::to_string(::getpid()) + "_" + tag + ".redo";
}

MemberRecord MakeMember(uint16_t op, uint64_t tag) {
  MemberRecord member;
  member.op_index = op;
  member.client_tag = tag;
  member.theta = 0.75;
  member.rng[0] = 0x0123456789abcdefULL + tag;
  member.rng[1] = 0xfedcba9876543210ULL ^ tag;
  member.rng[2] = 42 + tag;
  member.rng[3] = ~tag;
  return member;
}

GroupRecord OneMemberGroup(uint64_t seq) {
  GroupRecord group;
  group.group_seq = seq;
  group.commit_ts = seq + 1;
  group.members = {MakeMember(static_cast<uint16_t>(seq), seq)};
  return group;
}

// A synthetic, structurally legal log: header, two groups, close record.
// Returns the raw bytes; frame end offsets land in `boundaries` (header end,
// group-0 end, group-1 end, close end == bytes.size()).
std::string SyntheticLog(std::vector<size_t>* boundaries) {
  FileHeaderRecord header;
  header.seed = 7;
  header.scale = "tiny";
  header.backend = "mvstm";

  GroupRecord g0;
  g0.group_seq = 0;
  g0.commit_ts = 5;
  g0.members = {MakeMember(3, 100), MakeMember(17, 101)};

  GroupRecord g1;
  g1.group_seq = 1;
  g1.commit_ts = 9;
  g1.members = {MakeMember(40, 102)};

  CloseRecord close;
  close.groups = 2;
  close.members = 3;

  std::string bytes;
  boundaries->clear();
  AppendRecordFrame(&bytes, EncodeFileHeader(header));
  boundaries->push_back(bytes.size());
  AppendRecordFrame(&bytes, EncodeGroup(g0));
  boundaries->push_back(bytes.size());
  AppendRecordFrame(&bytes, EncodeGroup(g1));
  boundaries->push_back(bytes.size());
  AppendRecordFrame(&bytes, EncodeClose(close));
  boundaries->push_back(bytes.size());
  return bytes;
}

// ------------------------------------------------------------------ codecs --

TEST(RedoCodecTest, EveryRecordTypeRoundTrips) {
  FileHeaderRecord header;
  header.seed = 0xdeadbeefcafef00dULL;
  header.scale = "medium";
  header.backend = "mvstm";
  RedoRecord out;
  ASSERT_TRUE(DecodeRecord(EncodeFileHeader(header), &out));
  ASSERT_EQ(out.type, RecordType::kFileHeader);
  EXPECT_EQ(out.header.magic, redo::kRedoMagic);
  EXPECT_EQ(out.header.version, redo::kRedoLogFormatVersion);
  EXPECT_EQ(out.header.seed, header.seed);
  EXPECT_EQ(out.header.scale, "medium");
  EXPECT_EQ(out.header.backend, "mvstm");

  GroupRecord group;
  group.group_seq = 123456789;
  group.commit_ts = 987654321;
  for (uint64_t i = 0; i < 5; ++i) group.members.push_back(MakeMember(7 + i, i));
  ASSERT_TRUE(DecodeRecord(EncodeGroup(group), &out));
  ASSERT_EQ(out.type, RecordType::kGroup);
  EXPECT_EQ(out.group.group_seq, group.group_seq);
  EXPECT_EQ(out.group.commit_ts, group.commit_ts);
  ASSERT_EQ(out.group.members.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.group.members[i].op_index, group.members[i].op_index);
    EXPECT_EQ(out.group.members[i].client_tag, group.members[i].client_tag);
    EXPECT_DOUBLE_EQ(out.group.members[i].theta, group.members[i].theta);
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(out.group.members[i].rng[w], group.members[i].rng[w]);
    }
  }

  CloseRecord close;
  close.groups = 11;
  close.members = 37;
  ASSERT_TRUE(DecodeRecord(EncodeClose(close), &out));
  ASSERT_EQ(out.type, RecordType::kClose);
  EXPECT_EQ(out.close.groups, 11u);
  EXPECT_EQ(out.close.members, 37u);
}

TEST(RedoCodecTest, RejectsTruncatedBodiesAndUnknownTypes) {
  GroupRecord group;
  group.group_seq = 0;
  group.commit_ts = 1;
  group.members = {MakeMember(1, 1), MakeMember(2, 2)};
  const std::string bodies[] = {
      EncodeFileHeader(FileHeaderRecord{}),
      EncodeGroup(group),
      EncodeClose(CloseRecord{}),
  };
  for (const std::string& body : bodies) {
    for (size_t len = 0; len < body.size(); ++len) {
      RedoRecord out;
      EXPECT_FALSE(DecodeRecord(body.substr(0, len), &out)) << "len=" << len;
    }
    RedoRecord out;
    EXPECT_TRUE(DecodeRecord(body, &out));
  }
  RedoRecord out;
  std::string unknown = EncodeClose(CloseRecord{});
  unknown[0] = static_cast<char>(0x7F);  // no such record type
  EXPECT_FALSE(DecodeRecord(unknown, &out));
}

// ------------------------------------------------------------- corruption --

// Truncation at EVERY byte offset: the scan never crashes, never reports a
// clean close, and recovers exactly the groups whose frames fit entirely in
// the prefix. Ends that land on a frame boundary are "no close record", not
// torn.
TEST(RedoCorruptionTest, TruncationSweepRecoversEveryCompletePrefix) {
  std::vector<size_t> boundaries;
  const std::string bytes = SyntheticLog(&boundaries);
  ASSERT_EQ(boundaries.size(), 4u);

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<GroupRecord> groups;
    RecoverySummary summary;
    ScanLog(bytes.substr(0, len), &groups, &summary);

    EXPECT_FALSE(summary.clean_close) << "len=" << len;
    EXPECT_FALSE(summary.corrupt) << "len=" << len;
    const uint64_t want_groups =
        (len >= boundaries[1] ? 1u : 0u) + (len >= boundaries[2] ? 1u : 0u);
    EXPECT_EQ(summary.groups, want_groups) << "len=" << len;
    EXPECT_EQ(groups.size(), want_groups) << "len=" << len;
    EXPECT_EQ(summary.header_ok, len >= boundaries[0]) << "len=" << len;

    const bool at_boundary = len == 0 || len == boundaries[0] ||
                             len == boundaries[1] || len == boundaries[2];
    EXPECT_EQ(summary.torn_tail, !at_boundary) << "len=" << len;
  }

  // The untruncated log is the control: clean close, both groups.
  std::vector<GroupRecord> groups;
  RecoverySummary summary;
  ScanLog(bytes, &groups, &summary);
  EXPECT_TRUE(summary.clean_close);
  EXPECT_EQ(summary.groups, 2u);
  EXPECT_EQ(summary.members, 3u);
  EXPECT_FALSE(summary.torn_tail);
  EXPECT_FALSE(summary.corrupt);
}

// Every single-bit flip anywhere in the log is detected as corruption: the
// frame header CRC covers the length prefix (a flipped length can never
// re-frame the stream) and the body CRC covers everything else. Groups from
// frames before the damaged one are still recovered.
TEST(RedoCorruptionTest, SingleBitFlipSweepAlwaysDetectsCorruption) {
  std::vector<size_t> boundaries;
  const std::string bytes = SyntheticLog(&boundaries);

  for (size_t i = 0; i < bytes.size(); ++i) {
    // Frame index containing byte i; frames end at boundaries[f].
    size_t frame = 0;
    while (i >= boundaries[frame]) ++frame;
    // Complete group frames strictly before the damaged frame (frame 0 is
    // the header, frames 1 and 2 the groups, frame 3 the close record).
    const uint64_t want_groups = frame >= 3 ? 2u : (frame >= 2 ? 1u : 0u);

    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = bytes;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      std::vector<GroupRecord> groups;
      RecoverySummary summary;
      ScanLog(damaged, &groups, &summary);

      EXPECT_TRUE(summary.corrupt) << "i=" << i << " bit=" << bit;
      EXPECT_FALSE(summary.clean_close) << "i=" << i << " bit=" << bit;
      EXPECT_FALSE(summary.torn_tail) << "i=" << i << " bit=" << bit;
      EXPECT_EQ(summary.groups, want_groups) << "i=" << i << " bit=" << bit;
      EXPECT_EQ(summary.header_ok, frame >= 1) << "i=" << i << " bit=" << bit;
    }
  }
}

// RecoverFromBytes on garbage: corrupt-from-the-start logs replay nothing
// but are still a legal crash state (ok, not replayed); an empty log is the
// killed-before-header case.
TEST(RedoCorruptionTest, ReplayOfHeaderlessLogsIsTheEmptyWorld) {
  const ReplayResult empty = RecoverFromBytes("", "mvstm");
  EXPECT_TRUE(empty.ok);
  EXPECT_FALSE(empty.replayed);

  std::vector<size_t> boundaries;
  std::string damaged = SyntheticLog(&boundaries);
  damaged[2] = static_cast<char>(damaged[2] ^ 0x10);  // wound the header frame
  const ReplayResult corrupt = RecoverFromBytes(damaged, "mvstm");
  EXPECT_TRUE(corrupt.summary.corrupt);
  EXPECT_FALSE(corrupt.replayed);
  EXPECT_TRUE(corrupt.ok);  // nothing to replay: recovered the empty world
}

// ----------------------------------------------------- writer crash points --

// Each CrashPoint must freeze the (in-memory) file in exactly the state a
// kill -9 at that instant leaves: kBeforeAppend drops the record, kTornWrite
// leaves a half-written frame, kAfterAppend leaves the full frame unsynced.
// A fired writer is dead: later appends and the close record are dropped.
TEST(RedoWriterTest, CrashPointsFreezeTheFileInTheirExactCrashState) {
  GroupRecord groups[3];
  for (uint64_t i = 0; i < 3; ++i) {
    groups[i].group_seq = i;
    groups[i].commit_ts = i + 1;
    groups[i].members = {MakeMember(static_cast<uint16_t>(i), i)};
  }
  std::string prefix;  // header + group 0, the bytes every variant shares
  AppendRecordFrame(&prefix, EncodeFileHeader([] {
                      FileHeaderRecord h;
                      h.seed = 9;
                      h.scale = "tiny";
                      h.backend = "mvstm";
                      return h;
                    }()));
  AppendRecordFrame(&prefix, EncodeGroup(groups[0]));
  std::string frame1;
  AppendRecordFrame(&frame1, EncodeGroup(groups[1]));

  struct Case {
    CrashPoint point;
    size_t want_extra;    // bytes past `prefix` left in the file
    uint64_t want_groups;  // complete groups a scan recovers
    bool want_torn;
  };
  const Case cases[] = {
      {CrashPoint::kBeforeAppend, 0, 1, false},
      {CrashPoint::kTornWrite, frame1.size() / 2, 1, true},
      {CrashPoint::kAfterAppend, frame1.size(), 2, false},
  };
  for (const Case& c : cases) {
    RedoLogWriter writer("", Durability::kGroup);  // in-memory
    bool fired = false;
    CrashConfig crash;
    crash.point = c.point;
    crash.at_group = 1;
    crash.on_fire = [&fired] { fired = true; };
    writer.SetCrashConfig(crash);

    writer.WriteFileHeader(9, "tiny", "mvstm");
    EXPECT_TRUE(writer.AppendGroup(groups[0]));
    ASSERT_FALSE(writer.dead());
    // A simulated crash is not an I/O failure: the appends report success.
    EXPECT_TRUE(writer.AppendGroup(groups[1]));  // fires here
    EXPECT_TRUE(fired) << redo::CrashPointName(c.point);
    EXPECT_TRUE(writer.dead());
    EXPECT_TRUE(writer.AppendGroup(groups[2]));  // dead writer: dropped
    writer.Close();                              // dead writer: dropped
    EXPECT_FALSE(writer.closed());

    const std::string& memory = writer.memory_buffer();
    ASSERT_GE(memory.size(), prefix.size());
    EXPECT_EQ(memory.substr(0, prefix.size()), prefix);
    EXPECT_EQ(memory.size() - prefix.size(), c.want_extra)
        << redo::CrashPointName(c.point);

    std::vector<GroupRecord> scanned;
    RecoverySummary summary;
    ScanLog(memory, &scanned, &summary);
    EXPECT_EQ(summary.groups, c.want_groups) << redo::CrashPointName(c.point);
    EXPECT_EQ(summary.torn_tail, c.want_torn) << redo::CrashPointName(c.point);
    EXPECT_FALSE(summary.corrupt);
    EXPECT_FALSE(summary.clean_close);
  }
}

// The same crash points on a file-backed writer. Its file is reserved ahead
// of the writes, so each crash leaves the in-memory case's bytes followed by
// the zeros of the reservation, and a scan must read both alike.
TEST(RedoWriterTest, ReservedFileCrashStatesScanLikeTheirInMemoryCases) {
  const GroupRecord groups[] = {OneMemberGroup(0), OneMemberGroup(1), OneMemberGroup(2)};
  const std::string path = ScratchLog("reserved");
  for (CrashPoint point :
       {CrashPoint::kBeforeAppend, CrashPoint::kTornWrite, CrashPoint::kAfterAppend}) {
    std::string logs[2];  // in memory, in the file
    for (int in_file = 0; in_file < 2; ++in_file) {
      RedoLogWriter writer(in_file ? path : "", Durability::kGroup);
      CrashConfig crash;
      crash.point = point;
      crash.at_group = 1;
      crash.on_fire = [] {};
      writer.SetCrashConfig(crash);
      writer.WriteFileHeader(9, "tiny", "mvstm");
      for (const GroupRecord& group : groups) {
        EXPECT_TRUE(writer.AppendGroup(group));
      }
      writer.Close();  // dead writer: dropped, the reservation stays
      ASSERT_TRUE(writer.dead());
      std::string error;
      if (in_file) {
        ASSERT_TRUE(redo::ReadLogFile(path, &logs[1], &error)) << error;
      } else {
        logs[0] = writer.memory_buffer();
      }
    }
    const std::string& memory = logs[0];
    const std::string& file = logs[1];
    ASSERT_EQ(file.size(), redo::kRedoReserveStepBytes) << redo::CrashPointName(point);
    EXPECT_EQ(file.substr(0, memory.size()), memory);
    EXPECT_EQ(file.find_first_not_of('\0', memory.size()), std::string::npos);

    std::vector<GroupRecord> scanned[2];
    RecoverySummary summary[2];
    ScanLog(memory, &scanned[0], &summary[0]);
    ScanLog(file, &scanned[1], &summary[1]);
    EXPECT_EQ(summary[1].groups, summary[0].groups) << redo::CrashPointName(point);
    ASSERT_EQ(scanned[1].size(), scanned[0].size());
    for (size_t i = 0; i < scanned[0].size(); ++i) {
      EXPECT_EQ(scanned[1][i].group_seq, scanned[0][i].group_seq);
      EXPECT_EQ(scanned[1][i].commit_ts, scanned[0][i].commit_ts);
    }
    EXPECT_EQ(summary[1].torn_tail, summary[0].torn_tail) << redo::CrashPointName(point);
    EXPECT_FALSE(summary[1].corrupt) << summary[1].detail;
    EXPECT_FALSE(summary[1].clean_close);
    EXPECT_EQ(summary[1].bytes_consumed, summary[0].bytes_consumed);
    EXPECT_EQ(summary[1].bytes_reserved,
              summary[0].bytes_reserved + (file.size() - memory.size()));
  }
  ::unlink(path.c_str());
}

// A clean close trims the reservation: the file is byte for byte what the
// in-memory writer holds and as long as stats().bytes, though it grew in
// whole reservation steps while open.
TEST(RedoWriterTest, CleanCloseTrimsTheReservation) {
  const std::string path = ScratchLog("trim");
  RedoLogWriter file(path, Durability::kOff);  // one sync, at close
  RedoLogWriter memory("", Durability::kOff);
  GroupRecord group;
  for (uint64_t m = 0; m < 4; ++m) {
    group.members.push_back(MakeMember(static_cast<uint16_t>(m), m));
  }
  std::string frame;
  AppendRecordFrame(&frame, EncodeGroup(group));
  // Enough groups to cross into a second step.
  const uint64_t groups_total = redo::kRedoReserveStepBytes / frame.size() + 100;
  for (RedoLogWriter* writer : {&file, &memory}) {
    writer->WriteFileHeader(3, "tiny", "mvstm");
    for (uint64_t seq = 0; seq < groups_total; ++seq) {
      group.group_seq = seq;
      group.commit_ts = seq + 1;
      ASSERT_TRUE(writer->AppendGroup(group));
    }
  }
  struct stat st = {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_size), 2 * redo::kRedoReserveStepBytes);

  file.Close();
  memory.Close();
  ASSERT_TRUE(file.ok()) << file.error();
  EXPECT_TRUE(file.closed());
  EXPECT_EQ(file.stats().fsyncs, 1u);
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_size), file.stats().bytes);
  std::string bytes;
  std::string error;
  ASSERT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
  EXPECT_TRUE(bytes == memory.memory_buffer());

  std::vector<GroupRecord> groups;
  RecoverySummary summary;
  ScanLog(bytes, &groups, &summary);
  EXPECT_TRUE(summary.clean_close);
  EXPECT_EQ(summary.groups, groups_total);
  EXPECT_EQ(summary.bytes_reserved, 0u);
  ::unlink(path.c_str());
}

// Killed after the first reservation but before the header reached it: the
// file holds one step of zeros, the end of an empty log.
TEST(RedoWriterTest, AFileHoldingOnlyItsReservationIsTheEmptyWorld) {
  const std::string path = ScratchLog("zeros");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::posix_fallocate(fd, 0, static_cast<off_t>(redo::kRedoReserveStepBytes)), 0);
  ::close(fd);

  const ReplayResult result = RecoverFromLog(path, "mvstm");
  ::unlink(path.c_str());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.replayed);
  EXPECT_FALSE(result.summary.header_ok);
  EXPECT_FALSE(result.summary.torn_tail);
  EXPECT_FALSE(result.summary.corrupt) << result.summary.detail;
  EXPECT_EQ(result.summary.bytes_total, redo::kRedoReserveStepBytes);
  EXPECT_EQ(result.summary.bytes_reserved, redo::kRedoReserveStepBytes);
  const std::string report = redo::FormatReplayResult(result);
  EXPECT_NE(report.find("redo log: 0/0 bytes, 0 groups, 0 members, 1048576 reserved bytes "
                        "never written\n"),
            std::string::npos)
      << report;
}

// The reserved tail must not hide corruption: a single-bit flip in any frame
// that another frame follows reads as corrupt, with the groups before it
// recovered. A flip in the last frame, which only zeros follow, may read
// as a torn write of that frame (its final byte can be a zero).
TEST(RedoWriterTest, BitFlipsBeforeTheLastFrameOfAReservedFileAreCorrupt) {
  const std::string path = ScratchLog("flips");
  std::vector<size_t> boundaries;  // frame ends
  {
    RedoLogWriter writer(path, Durability::kOff);
    writer.WriteFileHeader(7, "tiny", "mvstm");
    boundaries.push_back(writer.stats().bytes);
    for (uint64_t seq = 0; seq < 3; ++seq) {
      ASSERT_TRUE(writer.AppendGroup(OneMemberGroup(seq)));
      boundaries.push_back(writer.stats().bytes);
    }
  }  // not closed: the reservation stays
  std::string bytes;
  std::string error;
  ASSERT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
  ::unlink(path.c_str());
  ASSERT_EQ(bytes.size(), redo::kRedoReserveStepBytes);
  // A shorter zero tail is the same shape and keeps the 2,000 scans quick.
  bytes.resize(boundaries.back() + 4096);

  for (size_t i = 0; i < boundaries.back(); ++i) {
    size_t frame = 0;
    while (i >= boundaries[frame]) ++frame;
    const uint64_t want_groups = frame == 0 ? 0 : frame - 1;
    const bool last = frame + 1 == boundaries.size();
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      std::vector<GroupRecord> groups;
      RecoverySummary summary;
      ScanLog(bytes, &groups, &summary);
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));

      EXPECT_EQ(summary.groups, want_groups) << "i=" << i << " bit=" << bit;
      EXPECT_EQ(summary.header_ok, frame >= 1) << "i=" << i << " bit=" << bit;
      EXPECT_FALSE(summary.clean_close) << "i=" << i << " bit=" << bit;
      if (last) {
        EXPECT_NE(summary.corrupt, summary.torn_tail) << "i=" << i << " bit=" << bit;
      } else {
        EXPECT_TRUE(summary.corrupt) << "i=" << i << " bit=" << bit;
        EXPECT_FALSE(summary.torn_tail) << "i=" << i << " bit=" << bit;
      }
    }
  }
}

// Fail-stop: no commit is acknowledged that the log does not hold. Every
// write() to /dev/full fails with ENOSPC, so the writer already fails on its
// header; the first update commit through the sequencer must then end the
// process instead of returning. A death test forks, so it sits with the
// tests that run before any thread is spawned.
TEST(RedoWriterTest, FailedAppendEndsTheProcessBeforeTheCommitReturns) {
  EXPECT_EXIT(
      {
        RedoLogWriter writer("/dev/full", Durability::kGroup);
        writer.WriteFileHeader(1, "tiny", "mvstm");
        GroupCommitSequencer sequencer(&writer);
        MvStm stm;
        stm.AttachSequencer(&sequencer);
        TmObject holder;
        TxField<int64_t> cell(holder.unit(), 0);
        stm.RunAtomically([&](Transaction&) { cell.Set(1); });
        std::fprintf(stderr, "the commit returned\n");
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(EXIT_FAILURE),
      "/dev/full' failed: .*stopping before commit group 0 is acknowledged");
}

// A reservation that fails is a write error too. Under a file-size limit
// below one step (set in the forked child only, with SIGXFSZ ignored there),
// posix_fallocate fails with EFBIG when the header's step is reserved, and
// the first update commit must end the process instead of returning.
TEST(RedoWriterTest, FailedReservationEndsTheProcessBeforeTheCommitReturns) {
  const std::string path = ScratchLog("fsize");
  EXPECT_EXIT(
      {
        struct rlimit limit = {};
        ::getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 64 << 10;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        ::signal(SIGXFSZ, SIG_IGN);
        RedoLogWriter writer(path, Durability::kGroup);
        writer.WriteFileHeader(1, "tiny", "mvstm");
        GroupCommitSequencer sequencer(&writer);
        MvStm stm;
        stm.AttachSequencer(&sequencer);
        TmObject holder;
        TxField<int64_t> cell(holder.unit(), 0);
        stm.RunAtomically([&](Transaction&) { cell.Set(1); });
        std::fprintf(stderr, "the commit returned\n");
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(EXIT_FAILURE),
      "reserving space in redo log '.*' failed: File too large; stopping before commit "
      "group 0 is acknowledged");
  ::unlink(path.c_str());
}

// A log that cannot be opened is an error the caller reports, never an
// abort, and leaves the backend committing without a sequencer; so does a
// backend that cannot group-commit.
TEST(DurableLogTest, ReportsAPathItCannotOpenAndAttachesNothing) {
  MvStm mvstm;
  redo::LogOptions options;
  options.path = "/nonexistent-dir/x.redo";
  options.durability = Durability::kGroup;
  std::string error;
  EXPECT_EQ(DurableLog::Open(&mvstm, options, 1, "tiny", &error), nullptr);
  EXPECT_NE(error.find("cannot open redo log '/nonexistent-dir/x.redo'"), std::string::npos)
      << error;
  EXPECT_EQ(mvstm.sequencer(), nullptr);

  const std::unique_ptr<Stm> tl2 = MakeStm("tl2");
  options.path = ScratchLog("notmvstm");
  error.clear();
  EXPECT_EQ(DurableLog::Open(tl2.get(), options, 1, "tiny", &error), nullptr);
  EXPECT_NE(error.find("mvstm"), std::string::npos) << error;
  ::unlink(options.path.c_str());
}

// ------------------------------------------------------- kill -9 harness --
//
// The forked children below construct a BenchmarkRunner (which builds the
// tiny structure), attach a redo log (which writes the header) and then run a
// write storm until
// the parent kills them or an injected crash point fires. The parent replays
// the orphaned log under BOTH mvstm and tl2 and requires identical deep
// fingerprints and intact invariants.

struct ChildRun {
  pid_t pid = -1;
  int ready_fd = -1;  // child writes one byte once the runner is constructed
};

BenchConfig WriteStormConfig(uint64_t seed) {
  BenchConfig config;
  config.strategy = "mvstm";
  config.scale = "tiny";
  config.workload = WorkloadType::kWriteDominated;
  config.threads = 4;
  config.length_seconds = 30.0;  // the parent always kills us first
  config.seed = seed;
  return config;
}

redo::LogOptions GroupLog(const std::string& path) {
  redo::LogOptions options;
  options.path = path;
  options.durability = Durability::kGroup;
  return options;
}

// Attaches a redo log to the runner's backend, as the CLI does before a run.
std::unique_ptr<DurableLog> OpenLog(BenchmarkRunner& runner, const redo::LogOptions& options) {
  std::string error;
  std::unique_ptr<DurableLog> log = DurableLog::Open(
      runner.strategy().stm(), options, runner.config().seed, runner.config().scale, &error);
  if (log == nullptr) {
    ADD_FAILURE() << error;
  }
  return log;
}

// Forks a child that runs `config` with a redo log until killed. Never
// returns in the child.
ChildRun ForkBenchmarkChild(const BenchConfig& config, const redo::LogOptions& log_options) {
  ChildRun run;
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  run.pid = ::fork();
  if (run.pid == 0) {
    ::close(pipe_fds[0]);
    BenchmarkRunner runner(config);  // builds the world
    const std::unique_ptr<DurableLog> log = OpenLog(runner, log_options);  // writes the header
    if (log == nullptr) std::_Exit(3);
    const char ready = 'r';
    (void)!::write(pipe_fds[1], &ready, 1);
    runner.Run();
    std::_Exit(0);  // only reached if the kill arrives after the run ends
  }
  ::close(pipe_fds[1]);
  run.ready_fd = pipe_fds[0];
  return run;
}

void AwaitReady(const ChildRun& run) {
  char byte = 0;
  ASSERT_EQ(::read(run.ready_fd, &byte, 1), 1);
  ::close(run.ready_fd);
}

// Replays `path` under mvstm and tl2 and checks the cross-backend contract.
// Returns the summary of the mvstm replay for crash-shape assertions.
RecoverySummary ReplayBothBackends(const std::string& path) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
  const ReplayResult mv = RecoverFromBytes(bytes, "mvstm");
  const ReplayResult tl = RecoverFromBytes(bytes, "tl2");
  EXPECT_TRUE(mv.ok) << mv.error;
  EXPECT_TRUE(tl.ok) << tl.error;
  EXPECT_TRUE(mv.invariant_violations.empty());
  EXPECT_TRUE(tl.invariant_violations.empty());
  EXPECT_EQ(mv.replayed, tl.replayed);
  EXPECT_EQ(mv.fingerprint, tl.fingerprint);
  EXPECT_EQ(mv.ops_replayed, tl.ops_replayed);
  EXPECT_FALSE(mv.summary.corrupt) << mv.summary.detail;
  return mv.summary;
}

// Injected crashes at every CrashPoint: the child _Exit(137)s itself at
// group 10 (the CLI default stands in for kill -9), and recovery finds the
// exact prefix each crash point promises.
TEST(CrashRecoveryTest, EveryCrashPointRecoversItsExactPrefix)
{
  struct Case {
    CrashPoint point;
    const char* tag;
    uint64_t want_groups;
    bool want_torn;
  };
  const Case cases[] = {
      {CrashPoint::kBeforeAppend, "before", 10, false},
      {CrashPoint::kTornWrite, "torn", 10, true},
      {CrashPoint::kAfterAppend, "after", 11, false},
  };
  for (const Case& c : cases) {
    const std::string path = ScratchLog(c.tag);
    redo::LogOptions log = GroupLog(path);
    log.crash.point = c.point;
    log.crash.at_group = 10;

    const ChildRun run = ForkBenchmarkChild(WriteStormConfig(4242), log);
    ASSERT_GT(run.pid, 0);
    AwaitReady(run);  // consuming the byte also keeps the child SIGPIPE-free
    int status = 0;
    ASSERT_EQ(::waitpid(run.pid, &status, 0), run.pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137) << redo::CrashPointName(c.point);

    const RecoverySummary summary = ReplayBothBackends(path);
    EXPECT_EQ(summary.groups, c.want_groups) << redo::CrashPointName(c.point);
    EXPECT_EQ(summary.torn_tail, c.want_torn) << redo::CrashPointName(c.point);
    EXPECT_FALSE(summary.clean_close);
    ::unlink(path.c_str());
  }
}

// The random-offset kill -9 storm: 21 children, each SIGKILLed at a
// different (seeded-random) moment of a 4-thread write storm. Whatever
// prefix of the log survives must replay identically under mvstm and tl2
// with intact invariants — at any kill offset whatsoever.
TEST(CrashRecoveryTest, RandomKillOffsetsAlwaysReplayConsistently) {
  constexpr int kKills = 21;
  uint64_t rng_state = 0x9e3779b97f4a7c15ULL;  // deterministic offsets
  uint64_t total_groups = 0;
  for (int k = 0; k < kKills; ++k) {
    const std::string path = ScratchLog(("kill" + std::to_string(k)).c_str());
    const ChildRun run = ForkBenchmarkChild(WriteStormConfig(5000 + k), GroupLog(path));
    ASSERT_GT(run.pid, 0);
    AwaitReady(run);

    rng_state = rng_state * 6364136223846793005ULL + 1442695040888963407ULL;
    const useconds_t delay_us = (rng_state >> 33) % 80000;  // 0..80ms of storm
    ::usleep(delay_us);
    ASSERT_EQ(::kill(run.pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(run.pid, &status, 0), run.pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const RecoverySummary summary = ReplayBothBackends(path);
    EXPECT_FALSE(summary.clean_close);  // nobody closed this log
    total_groups += summary.groups;
    ::unlink(path.c_str());
  }
  // Offsets are spread over the storm's opening 80ms, so the sweep as a
  // whole must have caught logs with real commit groups in them.
  EXPECT_GT(total_groups, 0u);
}

// ------------------------------------------------- acked ⊆ durable (serve) --

// Raw-frame loopback client helpers (same idiom as net_test.cc).
bool SendOneFrame(int fd, const std::string& payload) {
  std::string frame;
  net::AppendFrame(&frame, payload);
  return net::WriteAll(fd, frame, /*timeout_ms=*/2000);
}

bool ReadOneFrame(int fd, std::string* payload) {
  char prefix[4];
  if (!net::ReadFull(fd, prefix, sizeof(prefix), /*timeout_ms=*/2000)) return false;
  uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<uint8_t>(prefix[i]);
  }
  if (length > net::kMaxFrameBytes) return false;
  payload->resize(length);
  return length == 0 ||
         net::ReadFull(fd, payload->data(), length, /*timeout_ms=*/2000);
}

// A serve-mode child killed mid-storm must not have acked (kOk) any request
// whose commit group never reached the redo log: under --durability=group
// the worker blocks on the group append before Complete() writes the
// response, so every acked request id must appear as a member client_tag in
// the recovered log.
TEST(CrashRecoveryTest, ServeKilledMidStormNeverAcksUndurableRequests) {
  const std::string path = ScratchLog("serve");
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    IngressQueue ingress(256);
    BenchConfig config = WriteStormConfig(6001);
    config.threads = 2;
    RunInstruments instruments;
    instruments.ingress = &ingress;
    BenchmarkRunner runner(config, instruments);
    const std::unique_ptr<DurableLog> log = OpenLog(runner, GroupLog(path));
    if (log == nullptr) std::_Exit(3);
    net::OpServer server(/*port=*/0, &ingress,
                         static_cast<uint16_t>(runner.registry().all().size()));
    std::string error;
    if (!server.Start(&error)) std::_Exit(3);
    const uint32_t port = static_cast<uint32_t>(server.port());
    (void)!::write(pipe_fds[1], &port, sizeof(port));
    runner.Run();  // drains ingress until the parent kills us
    std::_Exit(0);
  }
  ASSERT_GT(pid, 0);
  ::close(pipe_fds[1]);
  uint32_t port = 0;
  ASSERT_EQ(::read(pipe_fds[0], &port, sizeof(port)), (ssize_t)sizeof(port));
  ::close(pipe_fds[0]);

  // SM1 (CreatePart) always writes when it succeeds, so every kOk ack
  // corresponds to a committed update transaction the log must contain.
  OperationRegistry registry;
  uint16_t sm1_index = 0;
  for (size_t i = 0; i < registry.all().size(); ++i) {
    if (registry.all()[i]->name() == "SM1") sm1_index = static_cast<uint16_t>(i);
  }

  net::ConnectResult conn = net::ConnectTcp("127.0.0.1", static_cast<int>(port));
  ASSERT_TRUE(conn.ok()) << conn.error;
  net::Hello hello;
  ASSERT_TRUE(SendOneFrame(conn.fd.get(), net::EncodeHello(hello)));
  std::string payload;
  net::HelloAck ack;
  ASSERT_TRUE(ReadOneFrame(conn.fd.get(), &payload));
  ASSERT_TRUE(net::DecodeHelloAck(payload, &ack));
  ASSERT_GT(ack.op_count, sm1_index);

  // Pipeline SM1 requests with a small window; record which ids were acked
  // kOk. Stop once we have a healthy sample (or the child dies under us).
  std::set<uint64_t> acked;
  uint64_t next_id = 1;
  int in_flight = 0;
  bool alive = true;
  while (alive && acked.size() < 150 && next_id < 2000) {
    while (alive && in_flight < 8) {
      net::OpRequest request;
      request.request_id = next_id++;
      request.op_index = sm1_index;
      alive = SendOneFrame(conn.fd.get(), net::EncodeRequest(request));
      if (alive) ++in_flight;
    }
    net::OpResponse response;
    alive = alive && ReadOneFrame(conn.fd.get(), &payload) &&
            net::DecodeResponse(payload, &response);
    if (alive) {
      --in_flight;
      if (response.status == net::Status::kOk) acked.insert(response.request_id);
    }
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  EXPECT_GT(acked.size(), 0u);

  // Every acked id must be durable: present as a member client_tag in the
  // recovered log. (The converse does not hold — a group can reach the log
  // an instant before the ack would have gone out.)
  std::string bytes;
  std::string error;
  ASSERT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
  std::vector<GroupRecord> groups;
  RecoverySummary summary;
  ScanLog(bytes, &groups, &summary);
  EXPECT_FALSE(summary.corrupt) << summary.detail;
  std::set<uint64_t> durable;
  for (const GroupRecord& group : groups) {
    for (const MemberRecord& member : group.members) {
      durable.insert(member.client_tag);
    }
  }
  for (uint64_t id : acked) {
    EXPECT_EQ(durable.count(id), 1u) << "acked request " << id << " not in log";
  }
  ::unlink(path.c_str());
}

// ---------------------------------------------------------- live vs replay --

uint64_t QuiescedFingerprint(BenchmarkRunner& runner) {
  EbrDomain::Global().Quiesce();
  EbrDomain::Global().TryReclaim();
  return DeepFingerprint(runner.data());
}

// A clean 4-thread write-storm run: the world recovered from its own log
// must fingerprint identically to the survivor — and the replay must agree
// across backends (mvstm vs tl2), since the log is logical.
TEST(LiveVsReplayTest, WriteStormLogReplaysToTheSurvivorsFingerprint) {
  const std::string path = ScratchLog("live4");
  BenchConfig config = WriteStormConfig(77);
  config.max_operations = 600;  // the op cap ends the run, not the clock
  BenchmarkRunner runner(config);
  const std::unique_ptr<DurableLog> log = OpenLog(runner, GroupLog(path));
  ASSERT_NE(log, nullptr);
  runner.Run();
  log->Close();
  ASSERT_TRUE(log->writer().ok()) << log->writer().error();
  EXPECT_TRUE(log->writer().closed());
  const uint64_t live = QuiescedFingerprint(runner);

  const ReplayResult mv = RecoverFromBytes(
      [&] {
        std::string bytes;
        std::string error;
        EXPECT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
        return bytes;
      }(),
      "mvstm");
  ASSERT_TRUE(mv.ok) << mv.error;
  ASSERT_TRUE(mv.replayed);
  EXPECT_TRUE(mv.summary.clean_close) << mv.summary.detail;
  EXPECT_EQ(mv.fingerprint, live);
  EXPECT_EQ(static_cast<uint64_t>(mv.ops_replayed), mv.summary.members);

  const ReplayResult tl = RecoverFromLog(path, "tl2");
  ASSERT_TRUE(tl.ok) << tl.error;
  EXPECT_EQ(tl.fingerprint, live);
  ::unlink(path.c_str());
}

// Single-threaded control: with one worker the log is a plain serial trace;
// replay equality here isolates the codec/replay machinery from the
// group-commit concurrency the 4-thread variant also exercises.
TEST(LiveVsReplayTest, SingleThreadRunReplaysExactly) {
  const std::string path = ScratchLog("live1");
  BenchConfig config = WriteStormConfig(31337);
  config.threads = 1;
  config.max_operations = 300;
  BenchmarkRunner runner(config);
  const std::unique_ptr<DurableLog> log = OpenLog(runner, GroupLog(path));
  ASSERT_NE(log, nullptr);
  runner.Run();
  log->Close();
  const uint64_t live = QuiescedFingerprint(runner);

  const ReplayResult mv = RecoverFromLog(path, "mvstm");
  ASSERT_TRUE(mv.ok) << mv.error;
  ASSERT_TRUE(mv.replayed);
  EXPECT_TRUE(mv.summary.clean_close);
  EXPECT_EQ(mv.fingerprint, live);
  ::unlink(path.c_str());
}

// --durability=always degrades every group to a single member (one fsync
// per commit); the writer's own stats must show it.
TEST(LiveVsReplayTest, AlwaysDurabilityForcesGroupsOfOne) {
  const std::string path = ScratchLog("always");
  BenchConfig config = WriteStormConfig(99);
  config.max_operations = 300;
  BenchmarkRunner runner(config);
  redo::LogOptions always = GroupLog(path);
  always.durability = Durability::kAlways;
  const std::unique_ptr<DurableLog> log = OpenLog(runner, always);
  ASSERT_NE(log, nullptr);
  runner.Run();
  log->Close();
  const redo::WriterStats& stats = log->writer().stats();
  EXPECT_EQ(stats.groups, stats.members);
  EXPECT_GT(stats.groups, 0u);
  // Header + every group + close each fsync under kAlways.
  EXPECT_GE(stats.fsyncs, stats.groups);

  const ReplayResult mv = RecoverFromLog(path, "mvstm");
  EXPECT_TRUE(mv.ok) << mv.error;
  EXPECT_TRUE(mv.summary.clean_close);
  ::unlink(path.c_str());
}

// A real run's log truncated mid-frame: recovery replays everything up to
// the last complete group and reports the torn tail; truncated exactly at a
// frame boundary it reports a missing close record instead — never a false
// clean close.
TEST(LiveVsReplayTest, TornTailOfARealLogRecoversThePrefix) {
  const std::string path = ScratchLog("torntail");
  BenchConfig config = WriteStormConfig(555);
  config.max_operations = 200;
  BenchmarkRunner runner(config);
  const std::unique_ptr<DurableLog> log = OpenLog(runner, GroupLog(path));
  ASSERT_NE(log, nullptr);
  runner.Run();
  log->Close();

  std::string bytes;
  std::string error;
  ASSERT_TRUE(redo::ReadLogFile(path, &bytes, &error)) << error;
  ::unlink(path.c_str());

  // Locate every frame boundary with the extractor itself.
  std::vector<size_t> ends;
  size_t offset = 0;
  std::string body;
  std::string detail;
  while (TryExtractRecord(bytes, &offset, &body, &detail) == ExtractStatus::kRecord) {
    ends.push_back(offset);
  }
  ASSERT_GE(ends.size(), 3u);  // header + at least one group + close
  const size_t groups_total = ends.size() - 2;

  // Mid-frame cut inside the LAST group frame (the kill -9 shape).
  const size_t last_group_start = ends[ends.size() - 3];
  const size_t cut = last_group_start + (ends[ends.size() - 2] - last_group_start) / 2;
  const ReplayResult torn = RecoverFromBytes(bytes.substr(0, cut), "mvstm");
  EXPECT_TRUE(torn.ok) << torn.error;
  EXPECT_TRUE(torn.replayed);
  EXPECT_TRUE(torn.summary.torn_tail);
  EXPECT_FALSE(torn.summary.clean_close);
  EXPECT_EQ(torn.summary.groups, groups_total - 1);

  // Boundary cut (exactly before the close record): no torn tail, no
  // corruption — and crucially no clean close either.
  const ReplayResult boundary =
      RecoverFromBytes(bytes.substr(0, ends[ends.size() - 2]), "mvstm");
  EXPECT_TRUE(boundary.ok) << boundary.error;
  EXPECT_TRUE(boundary.replayed);
  EXPECT_FALSE(boundary.summary.torn_tail);
  EXPECT_FALSE(boundary.summary.corrupt);
  EXPECT_FALSE(boundary.summary.clean_close);
  EXPECT_EQ(boundary.summary.groups, groups_total);
}

// ------------------------------------------------------ interrupted writes --

std::atomic<int> g_interrupts{0};

void CountInterrupt(int) { g_interrupts.fetch_add(1); }

// A signal that lands while the writer is blocked in write() must not cost a
// frame: the log is a FIFO whose reader pauses until the pipe is full, and
// SIGUSR1's handler is installed without SA_RESTART, so the blocked write()
// fails with EINTR. Frames stay below PIPE_BUF, so such a write is atomic
// and blocks before writing anything (it cannot return a short count).
TEST(RedoWriterTest, WriteInterruptedBySignalIsRetried) {
  const std::string fifo = ScratchLog("fifo");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The read end opens first, so opening the write end does not block.
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  const int capacity = ::fcntl(reader, F_GETPIPE_SZ);
  ASSERT_GT(capacity, 0);

  struct sigaction action = {};
  action.sa_handler = &CountInterrupt;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  auto make_group = [](uint64_t seq) {
    GroupRecord group;
    group.group_seq = seq;
    group.commit_ts = seq + 1;
    for (uint64_t m = 0; m < 4; ++m) {
      group.members.push_back(MakeMember(static_cast<uint16_t>(m), seq * 4 + m));
    }
    return group;
  };
  std::string frame;
  AppendRecordFrame(&frame, EncodeGroup(make_group(0)));
  ASSERT_LT(frame.size(), size_t{PIPE_BUF});
  // Three pipes' worth: the writer blocks long before it is done.
  const uint64_t groups_total = 3 * static_cast<uint64_t>(capacity) / frame.size();

  std::atomic<uint64_t> appended{0};
  bool writer_ok = false;
  std::string writer_error;
  std::thread writer_thread([&] {
    RedoLogWriter writer(fifo, Durability::kOff);  // a FIFO cannot be fsynced
    writer.WriteFileHeader(5, "tiny", "mvstm");
    for (uint64_t seq = 0; seq < groups_total; ++seq) {
      writer.AppendGroup(make_group(seq));
      appended.store(seq + 1);
    }
    writer_ok = writer.ok();
    writer_error = writer.error();
  });  // the writer's destructor closes the FIFO: the reader sees EOF

  // Wait until the writer is blocked on the full pipe: no progress for
  // 50 ms with at least half the pipe queued.
  uint64_t seen = ~uint64_t{0};
  for (int stable_ms = 0; stable_ms < 50;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int queued = 0;
    ASSERT_EQ(::ioctl(reader, FIONREAD, &queued), 0);
    const uint64_t now = appended.load();
    stable_ms = (now == seen && queued > capacity / 2) ? stable_ms + 1 : 0;
    seen = now;
  }
  ASSERT_LT(seen, groups_total);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::pthread_kill(writer_thread.native_handle(), SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Resume the reader and drain the FIFO to EOF.
  ASSERT_EQ(::fcntl(reader, F_SETFL, 0), 0);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(reader, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    ASSERT_GE(n, 0);
    if (n == 0) {
      break;
    }
    bytes.append(buffer, static_cast<size_t>(n));
  }
  writer_thread.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(reader);
  ::unlink(fifo.c_str());

  EXPECT_GE(g_interrupts.load(), 1);
  EXPECT_TRUE(writer_ok) << writer_error;
  std::vector<GroupRecord> groups;
  RecoverySummary summary;
  ScanLog(bytes, &groups, &summary);
  EXPECT_TRUE(summary.header_ok);
  EXPECT_FALSE(summary.torn_tail) << summary.detail;
  EXPECT_FALSE(summary.corrupt) << summary.detail;
  ASSERT_EQ(groups.size(), groups_total) << "frames were lost after the interrupt";
  for (uint64_t seq = 0; seq < groups_total; ++seq) {
    EXPECT_EQ(groups[seq].group_seq, seq);
  }
}

}  // namespace
}  // namespace sb7
