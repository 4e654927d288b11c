#include "src/perf/sweep.h"

#include <fstream>
#include <istream>
#include <map>
#include <sstream>

#include "src/common/checked_parse.h"
#include "src/common/text.h"
#include "src/harness/workload.h"
#include "src/ops/operation.h"
#include "src/scenario/scenario.h"
#include "src/stm/contention.h"

namespace sb7::perf {
namespace {

const std::vector<std::string> kStrategies = {"coarse", "medium",  "fine",  "tl2",
                                              "tinystm", "norec", "astm", "mvstm"};
const std::vector<std::string> kScales = {"tiny", "small", "medium"};
const std::vector<std::string> kIndexes = {"default", "stdmap", "snapshot", "skiplist"};

bool Contains(const std::vector<std::string>& haystack, const std::string& needle) {
  for (const std::string& item : haystack) {
    if (item == needle) {
      return true;
    }
  }
  return false;
}

std::string Join(const std::vector<std::string>& items, const char* separator = ", ") {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += items[i];
  }
  return out;
}

// Everything except the operations named in `keep` — the mix presets that
// isolate a subset (pinpoint, index-heavy) are defined by their keep set so
// newly added operations default to disabled instead of silently joining.
std::set<std::string> AllBut(const std::set<std::string>& keep) {
  OperationRegistry registry;
  std::set<std::string> disabled;
  for (const auto& op : registry.all()) {
    if (keep.count(op->name()) == 0) {
      disabled.insert(op->name());
    }
  }
  return disabled;
}

const std::vector<std::string>& MixNames() {
  static const std::vector<std::string> names = {"full", "short", "short-only", "pinpoint",
                                                 "index-heavy"};
  return names;
}

}  // namespace

std::string_view SweepMetricName(SweepMetric metric) {
  return metric == SweepMetric::kThroughput ? "throughput" : "latency";
}

std::optional<MixPreset> FindMixPreset(std::string_view name) {
  MixPreset preset;
  preset.name = std::string(name);
  if (name == "full") {
    preset.long_traversals = true;
    return preset;
  }
  if (name == "short") {
    preset.long_traversals = false;
    return preset;
  }
  if (name == "short-only") {
    preset.long_traversals = false;
    preset.disabled_ops = Figure6DisabledOps();
    return preset;
  }
  if (name == "pinpoint") {
    // Path/index operations only: fine-grained locking's best case (narrow
    // lock footprints, no whole-structure scans).
    preset.long_traversals = false;
    preset.disabled_ops = AllBut({"ST1", "ST2", "ST3", "ST6", "ST7", "ST8", "OP1", "OP6",
                                  "OP7", "OP8", "OP9", "OP12", "OP13", "OP14", "OP15"});
    return preset;
  }
  if (name == "index-heavy") {
    // The index-centric operations: OP1 (id probes), OP2 (range), OP15
    // (indexed date updates), ST3 (index + bottom-up), SM1/SM2 (bulk index
    // insert/remove via part creation/deletion).
    preset.long_traversals = false;
    preset.disabled_ops = AllBut({"OP1", "OP2", "OP15", "ST3", "SM1", "SM2"});
    return preset;
  }
  return std::nullopt;
}

std::string MixPresetList() { return Join(MixNames()); }

std::string SweepSpec::Validate() {
  if (name.empty()) {
    return "sweep has no name";
  }
  if (backends.empty()) {
    return "sweep '" + name + "' declares no backends";
  }
  for (const std::string& backend : backends) {
    if (!Contains(kStrategies, backend)) {
      return "unknown backend: " + backend + " (expected one of " + Join(kStrategies) + ")";
    }
  }
  if (threads.empty()) {
    threads = {1};
  }
  for (const int t : threads) {
    if (t < 1) {
      return "thread counts must be >= 1";
    }
  }
  if (workloads.empty()) {
    workloads = {"r"};
  }
  for (const std::string& workload : workloads) {
    if (workload != "r" && workload != "rw" && workload != "w") {
      return "unknown workload: " + workload + " (expected r, rw or w)";
    }
  }
  for (const std::string& scenario : scenarios) {
    if (!FindBuiltinScenario(scenario).has_value()) {
      return "unknown scenario: " + scenario + " (expected one of " + BuiltinScenarioList() +
             ")";
    }
  }
  if (scales.empty()) {
    scales = {"small"};
  }
  for (const std::string& scale : scales) {
    if (!Contains(kScales, scale)) {
      return "unknown scale: " + scale + " (expected tiny, small or medium)";
    }
  }
  if (indexes.empty()) {
    indexes = {"default"};
  }
  for (const std::string& index : indexes) {
    if (!Contains(kIndexes, index)) {
      return "unknown index kind: " + index + " (expected " + Join(kIndexes) + ")";
    }
  }
  if (cms.empty()) {
    cms = {"default"};
  }
  for (const std::string& cm : cms) {
    if (cm != "default" && MakeContentionManager(cm) == nullptr) {
      return "unknown contention manager: " + cm;
    }
  }
  if (mixes.empty()) {
    mixes = {"full"};
  }
  for (const std::string& mix : mixes) {
    if (!FindMixPreset(mix).has_value()) {
      return "unknown mix preset: " + mix + " (expected " + MixPresetList() + ")";
    }
  }
  if (serves.empty()) {
    serves = {"inproc"};
  }
  for (const std::string& serve : serves) {
    if (serve != "inproc" && serve != "wire") {
      return "unknown serve mode: " + serve + " (expected inproc or wire)";
    }
    if (serve == "wire" && !scenarios.empty()) {
      // Wire cells run a plain warmup+measure window; a phased scenario has
      // no meaningful over-the-wire analogue (clients pace, not phases).
      return "serves=wire cannot be combined with scenarios";
    }
  }
  if (durabilities.empty()) {
    durabilities = {"off"};
  }
  for (const std::string& durability : durabilities) {
    if (durability != "off" && durability != "group" && durability != "always") {
      return "unknown durability: " + durability + " (expected off, group or always)";
    }
    if (durability != "off") {
      // The redo log is an mvstm subsystem (group-commit sequencer); a
      // durability cell on any other backend would silently measure nothing.
      for (const std::string& backend : backends) {
        if (backend != "mvstm") {
          return "durabilities=" + durability + " requires mvstm-only backends, got " +
                 backend;
        }
      }
    }
  }
  {
    OperationRegistry registry;
    for (const std::string& probe : probes) {
      if (registry.Find(probe) == nullptr) {
        return "unknown probe operation: " + probe;
      }
    }
  }
  if (metric == SweepMetric::kLatency && probes.empty()) {
    return "metric=latency requires at least one probe operation";
  }
  if (seconds <= 0) {
    return "seconds must be > 0";
  }
  if (warmup < 0) {
    return "warmup must be >= 0";
  }
  if (reps < 1) {
    return "reps must be >= 1";
  }
  if (threshold <= 0 || threshold >= 1) {
    return "threshold must be in (0, 1)";
  }
  if (cv_threshold <= 0 || cv_threshold > 1) {
    return "cv_threshold must be in (0, 1]";
  }
  if (title.empty()) {
    title = name;
  }
  return "";
}

namespace {

SweepSpec MakeFig3() {
  SweepSpec spec;
  spec.name = "fig3";
  spec.title = "Figure 3: max latency [ms] of the long traversals (T1 read-dom., T2b "
               "write-dom.), all operations enabled";
  spec.metric = SweepMetric::kLatency;
  spec.backends = {"coarse", "medium"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"r", "w"};
  spec.probes = {"T1", "T2b"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeFig4() {
  SweepSpec spec;
  spec.name = "fig4";
  spec.title = "Figure 4: total throughput [op/s], long traversals disabled";
  spec.backends = {"coarse", "medium"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"r", "rw", "w"};
  spec.mixes = {"short"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeFig6() {
  SweepSpec spec;
  spec.name = "fig6";
  spec.title = "Figure 6: throughput [op/s], short-only operation subset";
  spec.backends = {"coarse", "medium", "astm", "tl2", "tinystm", "norec"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"r", "rw", "w"};
  spec.mixes = {"short-only"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeTable3() {
  SweepSpec spec;
  spec.name = "table3";
  spec.title = "Table 3: throughput [op/s], coarse lock vs the naive ASTM port, long "
               "traversals disabled";
  spec.backends = {"coarse", "astm"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"r", "rw", "w"};
  spec.mixes = {"short"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeAblationCm() {
  SweepSpec spec;
  spec.name = "ablation-cm";
  spec.title = "Ablation: ASTM contention managers, write-dominated short-only workload";
  spec.backends = {"astm"};
  spec.cms = {"polka", "karma", "aggressive", "timid"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"w"};
  spec.mixes = {"short-only"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeAblationIndex() {
  SweepSpec spec;
  spec.name = "ablation-index";
  spec.title = "Ablation: index representation (snapshot vs skiplist), index-heavy mix";
  spec.backends = {"tl2", "astm"};
  spec.indexes = {"snapshot", "skiplist"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"w"};
  spec.mixes = {"index-heavy"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeAblationLocks() {
  SweepSpec spec;
  spec.name = "ablation-locks";
  spec.title = "Ablation: lock granularity (coarse / medium / fine), read-write workload";
  spec.backends = {"coarse", "medium", "fine"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"rw"};
  spec.mixes = {"full", "short", "pinpoint"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeAblationMvcc() {
  SweepSpec spec;
  spec.name = "ablation-mvcc";
  spec.title = "MVCC ablation: mvstm vs tl2, read-dominated workload, with and without "
               "long traversals";
  spec.backends = {"tl2", "mvstm"};
  spec.threads = {1, 2, 4, 8};
  spec.workloads = {"r"};
  spec.mixes = {"short", "full"};
  spec.probes = {"T1"};
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeScenarioSweep() {
  SweepSpec spec;
  spec.name = "scenario-sweep";
  spec.title = "Scenario sweep: built-in phased scenarios, tl2 vs mvstm";
  spec.backends = {"tl2", "mvstm"};
  spec.threads = {4};
  spec.scenarios = BuiltinScenarioNames();
  spec.warmup = 0.25;
  return spec;
}

SweepSpec MakeSmoke() {
  // The CI gate: small enough to finish (builds included) well under a
  // minute on one core, broad enough to cover a lock strategy, a word STM
  // and the multi-version backend.
  SweepSpec spec;
  spec.name = "smoke";
  spec.title = "Smoke sweep: coarse vs tl2 vs mvstm, tiny structure";
  spec.backends = {"coarse", "tl2", "mvstm"};
  spec.threads = {2};
  spec.workloads = {"r", "w"};
  spec.scales = {"tiny"};
  spec.mixes = {"short"};
  spec.seconds = 0.4;
  spec.warmup = 0.1;
  spec.reps = 1;
  return spec;
}

SweepSpec MakeServe() {
  // In-process vs over-the-wire: the same tl2 cell executed by local worker
  // threads and again with operations arriving through the loopback TCP
  // front-end of a served run (closed-loop client, one connection per
  // worker). The gap between the two columns is the serving overhead;
  // --serve-factor gates it.
  SweepSpec spec;
  spec.name = "serve";
  spec.title = "Serve sweep: in-process vs over-the-wire (loopback TCP), tl2";
  spec.backends = {"tl2"};
  spec.threads = {4};
  spec.workloads = {"rw"};
  spec.scales = {"tiny"};
  spec.mixes = {"short"};
  spec.serves = {"inproc", "wire"};
  spec.seconds = 0.8;
  spec.warmup = 0.2;
  spec.reps = 1;
  return spec;
}

SweepSpec MakeDurability() {
  // The cost of crash durability (docs/DURABILITY.md): the same 8-thread
  // mvstm write storm with no redo log, with group commit (one fsync per
  // commit group) and with a forced fsync per commit. Group commit's whole
  // point is the middle column sitting near the left one and well above the
  // right one.
  SweepSpec spec;
  spec.name = "durability";
  spec.title = "Durability sweep: mvstm write storm — no log vs group commit vs "
               "fsync-per-commit";
  spec.backends = {"mvstm"};
  spec.threads = {8};
  spec.workloads = {"w"};
  spec.scales = {"tiny"};
  spec.mixes = {"short"};
  spec.durabilities = {"off", "group", "always"};
  spec.seconds = 0.8;
  spec.warmup = 0.2;
  spec.reps = 3;
  return spec;
}

const std::map<std::string, SweepSpec (*)()>& BuiltinFactories() {
  static const std::map<std::string, SweepSpec (*)()> factories = {
      {"fig3", &MakeFig3},
      {"fig4", &MakeFig4},
      {"fig6", &MakeFig6},
      {"table3", &MakeTable3},
      {"ablation-cm", &MakeAblationCm},
      {"ablation-index", &MakeAblationIndex},
      {"ablation-locks", &MakeAblationLocks},
      {"ablation-mvcc", &MakeAblationMvcc},
      {"scenario-sweep", &MakeScenarioSweep},
      {"serve", &MakeServe},
      {"durability", &MakeDurability},
      {"smoke", &MakeSmoke},
  };
  return factories;
}

}  // namespace

const std::vector<std::string>& BuiltinSweepNames() {
  static const std::vector<std::string> names = {
      "fig3",           "fig4",           "fig6",          "table3",  "ablation-cm",
      "ablation-index", "ablation-locks", "ablation-mvcc", "scenario-sweep", "serve",
      "durability",     "smoke"};
  return names;
}

std::string BuiltinSweepList() { return Join(BuiltinSweepNames()); }

std::optional<SweepSpec> FindBuiltinSweep(std::string_view name) {
  const auto& factories = BuiltinFactories();
  const auto it = factories.find(std::string(name));
  if (it == factories.end()) {
    return std::nullopt;
  }
  SweepSpec spec = it->second();
  const std::string error = spec.Validate();
  if (!error.empty()) {
    // A built-in that fails its own validation is a programming error; the
    // consistency test in tests/perf_test.cc catches it.
    return std::nullopt;
  }
  return spec;
}

std::string BuiltinSweepDescription(std::string_view name) {
  const std::optional<SweepSpec> spec = FindBuiltinSweep(name);
  return spec.has_value() ? spec->title : std::string();
}

namespace {

bool SplitList(const std::string& value, std::vector<std::string>& out) {
  out = SplitCommaList(value);
  return !out.empty();
}

}  // namespace

SweepParseResult ParseSweepSpec(std::istream& in, std::string_view default_name) {
  SweepParseResult result;
  SweepSpec spec;
  spec.name = std::string(default_name);

  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    // Trim.
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) {
      continue;
    }
    const size_t end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);

    const size_t eq = line.find('=');
    auto fail = [&](const std::string& message) {
      result.error = "line " + std::to_string(line_number) + ": " + message;
      return result;
    };
    if (eq == std::string::npos) {
      return fail("expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key == "name") {
      spec.name = value;
    } else if (key == "title") {
      spec.title = value;
    } else if (key == "metric") {
      if (value == "throughput") {
        spec.metric = SweepMetric::kThroughput;
      } else if (value == "latency") {
        spec.metric = SweepMetric::kLatency;
      } else {
        return fail("metric must be throughput or latency");
      }
    } else if (key == "backends") {
      if (!SplitList(value, spec.backends)) {
        return fail("backends requires a comma-separated list");
      }
    } else if (key == "threads") {
      std::vector<std::string> items;
      if (!SplitList(value, items)) {
        return fail("threads requires a comma-separated list");
      }
      spec.threads.clear();
      for (const std::string& item : items) {
        int t = 0;
        if (!ParseIntAtLeast(item, 1, t)) {
          return fail("invalid thread count: " + item);
        }
        spec.threads.push_back(t);
      }
    } else if (key == "workloads") {
      if (!SplitList(value, spec.workloads)) {
        return fail("workloads requires a comma-separated list");
      }
    } else if (key == "scenarios") {
      if (!SplitList(value, spec.scenarios)) {
        return fail("scenarios requires a comma-separated list");
      }
    } else if (key == "scales") {
      if (!SplitList(value, spec.scales)) {
        return fail("scales requires a comma-separated list");
      }
    } else if (key == "indexes") {
      if (!SplitList(value, spec.indexes)) {
        return fail("indexes requires a comma-separated list");
      }
    } else if (key == "cms") {
      if (!SplitList(value, spec.cms)) {
        return fail("cms requires a comma-separated list");
      }
    } else if (key == "mixes") {
      if (!SplitList(value, spec.mixes)) {
        return fail("mixes requires a comma-separated list");
      }
    } else if (key == "serves") {
      if (!SplitList(value, spec.serves)) {
        return fail("serves requires a comma-separated list");
      }
    } else if (key == "durabilities") {
      if (!SplitList(value, spec.durabilities)) {
        return fail("durabilities requires a comma-separated list");
      }
    } else if (key == "probes") {
      if (!SplitList(value, spec.probes)) {
        return fail("probes requires a comma-separated list");
      }
    } else if (key == "seconds") {
      if (!ParseFinite(value, spec.seconds)) {
        return fail("invalid seconds value: " + value);
      }
    } else if (key == "warmup") {
      if (!ParseFinite(value, spec.warmup)) {
        return fail("invalid warmup value: " + value);
      }
    } else if (key == "reps") {
      if (!ParseIntAtLeast(value, 1, spec.reps)) {
        return fail("reps requires a positive integer");
      }
    } else if (key == "seed") {
      if (!ParseUint64(value, spec.seed)) {
        return fail("invalid seed: " + value);
      }
    } else if (key == "threshold") {
      if (!ParseFinite(value, spec.threshold)) {
        return fail("invalid threshold: " + value);
      }
    } else if (key == "cv_threshold") {
      if (!ParseFinite(value, spec.cv_threshold)) {
        return fail("invalid cv_threshold: " + value);
      }
    } else if (key == "max_ops") {
      if (!ParseInt64(value, spec.max_ops)) {
        return fail("invalid max_ops: " + value);
      }
    } else {
      return fail("unknown key: " + key);
    }
  }

  const std::string error = spec.Validate();
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  result.spec = std::move(spec);
  return result;
}

SweepParseResult LoadSweep(const std::string& name_or_path) {
  if (std::optional<SweepSpec> builtin = FindBuiltinSweep(name_or_path)) {
    SweepParseResult result;
    result.spec = std::move(builtin);
    return result;
  }
  std::ifstream file(name_or_path);
  if (!file) {
    SweepParseResult result;
    result.error = "'" + name_or_path + "' is neither a built-in sweep (" +
                   BuiltinSweepList() + ") nor a readable spec file";
    return result;
  }
  // Default the name to the file's basename, sans extension.
  std::string base = name_or_path;
  const size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) {
    base = base.substr(slash + 1);
  }
  const size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) {
    base = base.substr(0, dot);
  }
  return ParseSweepSpec(file, base);
}

}  // namespace sb7::perf
