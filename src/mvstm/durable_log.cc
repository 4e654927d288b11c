#include "src/mvstm/durable_log.h"

#include "src/mvstm/mvstm.h"

namespace sb7 {

DurableLog::DurableLog(const redo::LogOptions& options)
    : writer_(options.path, options.durability), sequencer_(&writer_) {
  writer_.SetCrashConfig(options.crash);
}

std::unique_ptr<DurableLog> DurableLog::Open(Stm* stm, const redo::LogOptions& options,
                                             uint64_t seed, const std::string& scale,
                                             std::string* error) {
  auto* mvstm = dynamic_cast<MvStm*>(stm);
  if (mvstm == nullptr) {
    *error = "a redo log needs the mvstm backend (group commit is an mvstm capability)";
    return nullptr;
  }
  std::unique_ptr<DurableLog> log(new DurableLog(options));
  if (!log->writer_.ok()) {
    *error = log->writer_.error();
    return nullptr;
  }
  // The header precedes the workers; every later append comes from the
  // group-commit leader, so the writer never needs internal locking.
  log->writer_.WriteFileHeader(seed, scale, std::string(mvstm->name()));
  mvstm->AttachSequencer(&log->sequencer_);
  return log;
}

}  // namespace sb7
