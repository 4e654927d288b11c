// A run's durable redo log (docs/DURABILITY.md): the writer and the
// group-commit sequencer through which an mvstm backend commits its updates.
// The caller opens it once the backend exists and before the backend runs
// its first transaction, and closes it once the run's workers are joined.

#ifndef STMBENCH7_SRC_MVSTM_DURABLE_LOG_H_
#define STMBENCH7_SRC_MVSTM_DURABLE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/mvstm/group_commit.h"
#include "src/mvstm/redo_log.h"

namespace sb7 {

class Stm;

class DurableLog {
 public:
  // Opens options.path, writes the file header (seed, scale, backend) and
  // routes every update commit of `stm` through a group-commit sequencer.
  // Each thread's transaction keeps the sequencer it was created with, so
  // this must precede the backend's first transaction, and the log must
  // outlive its last. Returns null with *error set, attaching nothing, when
  // `stm` is not mvstm or the file cannot be opened.
  static std::unique_ptr<DurableLog> Open(Stm* stm, const redo::LogOptions& options,
                                          uint64_t seed, const std::string& scale,
                                          std::string* error);
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  // Writes the close record. Call after the last commit; a writer that a
  // crash point killed stays in its crash state.
  void Close() { writer_.Close(); }
  const redo::RedoLogWriter& writer() const { return writer_; }

 private:
  explicit DurableLog(const redo::LogOptions& options);

  redo::RedoLogWriter writer_;
  GroupCommitSequencer sequencer_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_DURABLE_LOG_H_
