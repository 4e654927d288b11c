// Micro-benchmarks (google-benchmark) for raw STM primitive costs: per-read,
// per-write, commit, read-set validation scaling, lock-mode fall-through,
// RW-lock acquisition and EBR overhead. These quantify the constant factors
// behind every figure reproduction.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/ebr/ebr.h"
#include "src/stm/stm_factory.h"
#include "src/sync/rwlock.h"

namespace sb7 {
namespace {

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

std::vector<std::unique_ptr<Cell>> MakeCells(int n) {
  std::vector<std::unique_ptr<Cell>> cells;
  cells.reserve(n);
  for (int i = 0; i < n; ++i) {
    cells.push_back(std::make_unique<Cell>(i));
  }
  return cells;
}

const char* StmName(int index) {
  switch (index) {
    case 0:
      return "tl2";
    case 1:
      return "tinystm";
    default:
      return "astm";
  }
}

// Transactional read throughput: one transaction reading `kCells` locations.
void BM_TxReadSet(benchmark::State& state) {
  const auto cells = MakeCells(static_cast<int>(state.range(1)));
  auto stm = MakeStm(StmName(static_cast<int>(state.range(0))));
  int64_t sink = 0;
  for (auto _ : state) {
    stm->RunAtomically([&](Transaction&) {
      for (const auto& cell : cells) {
        sink += cell->value.Get();
      }
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(StmName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TxReadSet)
    ->ArgsProduct({{0, 1, 2}, {16, 128, 1024}})
    ->Unit(benchmark::kMicrosecond);

// Transactional write throughput (distinct objects).
void BM_TxWriteSet(benchmark::State& state) {
  const auto cells = MakeCells(static_cast<int>(state.range(1)));
  auto stm = MakeStm(StmName(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    stm->RunAtomically([&](Transaction&) {
      for (const auto& cell : cells) {
        cell->value.Set(1);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(StmName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TxWriteSet)
    ->ArgsProduct({{0, 1, 2}, {16, 128, 1024}})
    ->Unit(benchmark::kMicrosecond);

// The O(k^2) signature: total time per transaction vs read-set size. Under
// TL2/TinySTM this is linear; under ASTM it is quadratic (each new read-open
// validates the whole list).
void BM_ReadValidationScaling(benchmark::State& state) {
  const auto cells = MakeCells(static_cast<int>(state.range(1)));
  auto stm = MakeStm(StmName(static_cast<int>(state.range(0))));
  int64_t sink = 0;
  for (auto _ : state) {
    stm->RunAtomically([&](Transaction&) {
      for (const auto& cell : cells) {
        sink += cell->value.Get();
      }
    });
  }
  benchmark::DoNotOptimize(sink);
  state.counters["validation_steps_per_tx"] = benchmark::Counter(
      static_cast<double>(stm->stats().validation_steps.load()) /
      static_cast<double>(state.iterations()));
  state.SetLabel(StmName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ReadValidationScaling)
    ->ArgsProduct({{0, 2}, {64, 256, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);

// Lock-mode fall-through: TxField access with no transaction installed.
void BM_DirectFieldAccess(benchmark::State& state) {
  Cell cell(7);
  int64_t sink = 0;
  for (auto _ : state) {
    sink += cell.value.Get();
    cell.value.Set(sink);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_DirectFieldAccess);

// Read-only transaction overhead floor (begin + 1 read + commit).
void BM_ReadOnlyTxOverhead(benchmark::State& state) {
  Cell cell(7);
  auto stm = MakeStm(StmName(static_cast<int>(state.range(0))));
  int64_t sink = 0;
  for (auto _ : state) {
    stm->RunAtomically([&](Transaction&) { sink += cell.value.Get(); });
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(StmName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ReadOnlyTxOverhead)->Arg(0)->Arg(1)->Arg(2);

void BM_RwLockRead(benchmark::State& state) {
  RwLock lock;
  for (auto _ : state) {
    ReadGuard guard(lock);
  }
}
BENCHMARK(BM_RwLockRead);

void BM_RwLockWrite(benchmark::State& state) {
  RwLock lock;
  for (auto _ : state) {
    WriteGuard guard(lock);
  }
}
BENCHMARK(BM_RwLockWrite);

// The contended handoff: every thread of a run takes this one lock, so most
// acquisitions wait for another thread's release.
RwLock contended_lock;
int64_t contended_writes = 0;  // written under contended_lock's write mode

void BM_RwLockWriteContended(benchmark::State& state) {
  for (auto _ : state) {
    WriteGuard guard(contended_lock);
    ++contended_writes;
  }
}
BENCHMARK(BM_RwLockWriteContended)->Threads(2)->Threads(4)->UseRealTime();

// Nine writes to one read, the shape of perfbench's short-write-2t mix.
void BM_RwLockMixedContended(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    if (i++ % 10 == 0) {
      ReadGuard guard(contended_lock);
      benchmark::DoNotOptimize(contended_writes);
    } else {
      WriteGuard guard(contended_lock);
      ++contended_writes;
    }
  }
}
BENCHMARK(BM_RwLockMixedContended)->Threads(2)->Threads(4)->UseRealTime();

void BM_EbrRetireAndQuiesce(benchmark::State& state) {
  EbrDomain& domain = EbrDomain::Global();
  for (auto _ : state) {
    domain.RetireObject(new int64_t(1));
    domain.Quiesce();
  }
  domain.DrainAll();
}
BENCHMARK(BM_EbrRetireAndQuiesce);

void BM_EbrQuiesceOnly(benchmark::State& state) {
  EbrDomain& domain = EbrDomain::Global();
  for (auto _ : state) {
    domain.Quiesce();
  }
}
BENCHMARK(BM_EbrQuiesceOnly);

}  // namespace
}  // namespace sb7

BENCHMARK_MAIN();
