// Options of a run's redo log (docs/DURABILITY.md): its file, when it
// syncs, and the crash point the recovery tests inject. They sit below
// src/mvstm/, which writes the log (src/mvstm/redo_log.h), so the command
// line can parse them without depending on the backend.

#ifndef STMBENCH7_SRC_COMMON_REDO_OPTIONS_H_
#define STMBENCH7_SRC_COMMON_REDO_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace sb7::redo {

// A sync is fdatasync: inside the reservation an append changes no metadata
// that reading the data back needs.
enum class Durability {
  kOff,     // append only; no sync until Close
  kGroup,   // one sync per commit group
  kAlways,  // groups of one, sync per commit
};

// Indexed by Durability.
inline constexpr const char* kDurabilityNames[] = {"off", "group", "always"};

inline bool ParseDurability(std::string_view name, Durability* out) {
  for (int i = 0; i < 3; ++i) {
    if (name == kDurabilityNames[i]) {
      *out = static_cast<Durability>(i);
      return true;
    }
  }
  return false;
}

inline const char* DurabilityName(Durability durability) {
  return kDurabilityNames[static_cast<int>(durability)];
}

// Fault-injection seam for the crash-recovery tests: the writer wounds its
// own file at the configured group and fires.
enum class CrashPoint {
  kNone,
  kBeforeAppend,  // record never reaches the file
  kTornWrite,     // only a prefix of the frame reaches the file
  kAfterAppend,   // full frame written, fsync skipped
};

// Indexed by CrashPoint.
inline constexpr const char* kCrashPointNames[] = {"none", "before-append", "torn-write",
                                                   "after-append"};

// Parses a point the writer can fire at; "none" is not one.
inline bool ParseCrashPoint(std::string_view name, CrashPoint* out) {
  for (int i = 1; i < 4; ++i) {
    if (name == kCrashPointNames[i]) {
      *out = static_cast<CrashPoint>(i);
      return true;
    }
  }
  return false;
}

inline const char* CrashPointName(CrashPoint point) {
  return kCrashPointNames[static_cast<int>(point)];
}

struct CrashConfig {
  CrashPoint point = CrashPoint::kNone;
  uint64_t at_group = 0;  // group_seq the crash fires on
  // Invoked after the wound; the CLI leaves this unset, which _Exit(137)s
  // the process. Tests install a flag-setting hook, after which the writer
  // is dead: every later append and the close record are dropped, so the
  // file stays exactly in its crash state.
  std::function<void()> on_fire;
};

struct LogOptions {
  std::string path;  // empty = no redo log
  Durability durability = Durability::kOff;
  CrashConfig crash;
};

}  // namespace sb7::redo

#endif  // STMBENCH7_SRC_COMMON_REDO_OPTIONS_H_
