/// \file
/// Declarative benchmark sweep specifications.
///
/// A sweep is the cartesian product of up to nine axes — backend ×
/// threads × workload/scenario preset × structure scale (plus the secondary
/// index / contention-manager / operation-mix / serve axes) — with per-cell
/// warmup/measure windows and a repetition count. The `sb7-bench` driver
/// expands a spec into cells, runs each one through the phase-aware
/// `BenchmarkRunner` (reusing the scenario engine: every cell is a scenario
/// of a warmup phase plus one or more measure phases), and emits a
/// `BENCH_<sweep>.json` artifact with median-of-N statistics.
///
/// Specs come from built-ins reproducing the paper's figures/tables
/// (fig3, fig4, fig6, table3, the ablations, scenario-sweep, smoke) or from
/// `key=value` spec files in the same idiom as scenario specs — see
/// ParseSweepSpec for the format. The files under `bench/specs/` mirror the
/// built-ins one-to-one (pinned by tests/perf_test.cc).

#ifndef STMBENCH7_SRC_PERF_SWEEP_H_
#define STMBENCH7_SRC_PERF_SWEEP_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace sb7::perf {

/// The statistic a sweep optimizes for. It selects the headline number of
/// the human-readable table and the quantity `--compare` gates on:
/// throughput regresses downward, probe latency regresses upward.
enum class SweepMetric { kThroughput, kLatency };

std::string_view SweepMetricName(SweepMetric metric);

/// A named operation-mix preset, the "which operations run" axis:
///   full        everything enabled (long traversals included)
///   short       long traversals disabled (the Figure 4 configuration)
///   short-only  the paper's Figure 6 subset (no large read sets, no manual
///               or large-index writers)
///   pinpoint    path/index operations only — fine-grained locking's best
///               case (ablation-locks)
///   index-heavy the index-centric subset of ablation-index
struct MixPreset {
  std::string name;
  bool long_traversals = true;
  std::set<std::string> disabled_ops;
};

/// Resolves a mix preset by name; nullopt for unknown names.
std::optional<MixPreset> FindMixPreset(std::string_view name);
/// Comma-separated preset names, for error messages.
std::string MixPresetList();

/// One declarative sweep. Empty axis vectors mean "single default value";
/// Validate() fills the defaults in and rejects inconsistent specs.
struct SweepSpec {
  std::string name;
  /// Header of the human-readable comparison table.
  std::string title;
  SweepMetric metric = SweepMetric::kThroughput;

  // --- axes (cartesian product) ---
  std::vector<std::string> backends;   ///< strategy names; required
  std::vector<int> threads;            ///< default {1}
  std::vector<std::string> workloads;  ///< "r" | "rw" | "w"; default {"r"}
  std::vector<std::string> scenarios;  ///< built-in scenario names; empty = plain cells
  std::vector<std::string> scales;     ///< tiny | small | medium; default {"small"}
  std::vector<std::string> indexes;    ///< "default" | stdmap | snapshot | skiplist
  std::vector<std::string> cms;        ///< "default" | contention manager names
  std::vector<std::string> mixes;      ///< mix preset names; default {"full"}
  /// "inproc" (workers generate operations in-process, the classic path) or
  /// "wire" (operations arrive over loopback TCP through an OpServer and
  /// its ingress queue, driven by the closed-loop load client).
  /// Default {"inproc"}.
  std::vector<std::string> serves;
  /// Redo-log fsync policy (docs/DURABILITY.md): "off" (no redo log at all —
  /// the classic cell, comparable against pre-durability baselines), "group"
  /// (log + one fsync per commit group) or "always" (log + groups of one,
  /// one fsync per commit). Non-"off" values require mvstm-only backends.
  /// Default {"off"}.
  std::vector<std::string> durabilities;

  /// Operations whose per-cell max latency is recorded (required when
  /// metric == kLatency, e.g. fig3 probes T1 and T2b).
  std::vector<std::string> probes;

  // --- per-cell execution window ---
  double seconds = 1.0;  ///< measure window per body phase, in seconds
  double warmup = 0.2;   ///< warmup window per cell (0 = none), in seconds
  int reps = 3;          ///< repetitions; the report carries median + spread
  uint64_t seed = 20070326;  ///< base RNG seed; repetition r uses seed + r
  /// Relative noise threshold for `--compare` (overridable on the CLI).
  double threshold = 0.15;
  /// Coefficient-of-variation threshold for the steady-state detector that
  /// runs over each cell's live telemetry series (in (0,1]).
  double cv_threshold = 0.10;
  /// Optional started-operation cap applied to every phase of every cell
  /// (a capped phase ends as soon as it fills — determinism in tests).
  int64_t max_ops = -1;

  /// Fills axis defaults and validates names/ranges. Returns an error
  /// message, or the empty string when the spec is runnable.
  std::string Validate();
};

/// Built-in sweep names, in presentation order.
const std::vector<std::string>& BuiltinSweepNames();
/// Comma-separated BuiltinSweepNames(), for error messages.
std::string BuiltinSweepList();
/// Resolves a built-in sweep (already validated); nullopt for unknown names.
std::optional<SweepSpec> FindBuiltinSweep(std::string_view name);
/// One-line description of a built-in, for `sb7-bench --list`.
std::string BuiltinSweepDescription(std::string_view name);

struct SweepParseResult {
  std::optional<SweepSpec> spec;
  std::string error;  ///< set iff spec is empty
};

/// Parses the spec-file format: one `key=value` per line, `#` comments and
/// blank lines ignored, list values comma-separated. Keys:
///   name=<id>                 sweep name (default: `default_name`)
///   title=<text>              table header
///   metric=throughput|latency
///   backends=coarse,tl2,...   axis: synchronization strategies (required)
///   threads=1,2,4,8           axis: worker thread counts
///   workloads=r,rw,w          axis: workload presets
///   scenarios=write-storm,... axis: built-in scenarios (phased cells)
///   scales=tiny,small,medium  axis: structure sizes
///   indexes=default,skiplist  axis: index implementations
///   cms=default,polka,...     axis: astm contention managers
///   mixes=full,short,...      axis: operation-mix presets (see MixPreset)
///   serves=inproc,wire        axis: in-process vs over-the-wire execution
///   durabilities=off,group,always  axis: redo-log fsync policy (mvstm only)
///   probes=T1,T2b             latency probe operations
///   seconds=<f> warmup=<f> reps=<n> seed=<n> threshold=<f> max_ops=<n>
///   cv_threshold=<f>          steady-state CV threshold in (0,1]
/// The parsed spec is validated before being returned.
SweepParseResult ParseSweepSpec(std::istream& in, std::string_view default_name);

/// Resolves `--sweep <name|file>`: built-in names first, then a spec-file
/// path. Unknown names produce an error listing the valid built-ins.
SweepParseResult LoadSweep(const std::string& name_or_path);

}  // namespace sb7::perf

#endif  // STMBENCH7_SRC_PERF_SWEEP_H_
