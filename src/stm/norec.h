// NOrec-style STM (Dalessandro, Spear, Scott — PPoPP'10).
//
// Included as the "modern minimal-metadata baseline" extension: unlike TL2
// and TinySTM it has *no ownership records at all* — one global sequence
// lock orders all writers, reads are invisible and validated **by value**
// (the read set stores (location, value) pairs and re-reads them whenever
// the global clock moves). Value-based validation makes NOrec immune to the
// false conflicts of version metadata and very cheap for read-dominated
// workloads, at the price of serializing writer commits — exactly the
// trade-off the backend sweeps (`sb7-bench --sweep fig6`) quantify on the
// STMBench7 mix.

#ifndef STMBENCH7_SRC_STM_NOREC_H_
#define STMBENCH7_SRC_STM_NOREC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/stm/stm.h"
#include "src/stm/write_index.h"

namespace sb7 {

class NorecStm : public Stm {
 public:
  std::string_view name() const override { return "norec"; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;
};

class NorecTx : public TxImplBase {
 public:
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

 private:
  struct ReadEntry {
    const TxFieldBase* field;
    uint64_t value;
  };

  // Waits for an even (unlocked) global sequence number and returns it.
  static uint64_t WaitForEvenClock();
  // Re-reads every logged location and compares values; on success returns
  // the (even) clock value the validation is consistent with. Throws
  // TxAborted when any value changed.
  uint64_t Validate();

  uint64_t snapshot_ = 0;

  std::vector<ReadEntry> read_log_;
  std::vector<std::pair<TxFieldBase*, uint64_t>> write_log_;
  WriteIndex write_index_;  // field -> its position in write_log_
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_NOREC_H_
