// sb7-lint: in-tree source checker for the STM-specific rules the compiler
// cannot enforce. No dependencies beyond the standard library; wired into
// ctest as `lint` (the tree must be clean) and `lint_selftest` (the seeded
// bad fixtures under tools/lint/fixtures/ must trip every rule).
//
// Rules:
//   R1  atomics discipline — in src/stm, src/mvstm, src/trace,
//       src/telemetry, src/net and src/sync every atomic
//       member op (.load/.store/.exchange/.fetch_*/.compare_exchange_*)
//       must name a memory_order (no defaulted seq_cst) and carry a
//       `// mo:` rationale on the same line or within the 6 preceding ones.
//   R2  seam scope — raw Field storage access (LoadRaw, StoreRaw,
//       LoadMvHistory, StoreMvHistory) and the field's versioned lock
//       (LockWord) are only allowed inside src/stm/ and src/mvstm/ (the Tx
//       API seam and the backends behind it). Sites elsewhere need a
//       `// raw-ok: <reason>` annotation nearby.
//   R3  observer contract — TxObserver callback overrides must be noexcept
//       (callbacks run inside commit/abort paths; an escaping exception
//       would unwind through backend code holding field locks).
//   R4  schema drift — the StmStats X-macro field list, kCsvSchemaVersion,
//       kBenchSchemaVersion, kTelemetrySchemaVersion and
//       kRedoLogFormatVersion must match tools/lint/schema.lock; adding a
//       counter or changing an artifact layout without bumping the consumer
//       schema (and the lock) is the exact drift this catches. The redo-log
//       pin matters doubly: old logs must stay replayable after a crash.
//       Refresh the lock deliberately with `sb7-lint --update-schema-lock`.
//   R5  layering — no file under src/harness/ other than main.cc may
//       include a src/mvstm/ or src/net/ header: the driver, CLI and report
//       stay generic, and main.cc plugs in the redo log (an mvstm
//       capability) and the network front-end. No file under src/telemetry/
//       or src/trace/ may include a src/perf/ or src/harness/ header: the
//       instruments sit below the driver and the sweep tooling that use them.
//
// Exit codes: 0 clean, 1 findings, 2 usage/environment error.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if __has_include(<filesystem>)
#include <filesystem>
namespace fs = std::filesystem;
#else
#error "sb7-lint needs <filesystem>"
#endif

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string label;               // path as reported in findings
  std::vector<std::string> raw;    // verbatim lines (comments intact)
  std::vector<std::string> code;   // comments and literals blanked out
};

// --- tokenizer-lite: blank out comments and string/char literals ----------

std::vector<std::string> StripNonCode(const std::vector<std::string>& raw) {
  std::vector<std::string> code;
  code.reserve(raw.size());
  bool in_block_comment = false;
  for (const std::string& line : raw) {
    std::string out(line.size(), ' ');
    for (size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        break;  // rest of the line is a comment
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        out[i] = quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            ++i;
          } else if (line[i] == quote) {
            out[i] = quote;
            break;
          }
          ++i;
        }
        continue;
      }
      out[i] = c;
    }
    code.push_back(std::move(out));
  }
  return code;
}

std::optional<SourceFile> LoadFile(const fs::path& path, const std::string& label) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  SourceFile file;
  file.label = label;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    file.raw.push_back(line);
  }
  file.code = StripNonCode(file.raw);
  return file;
}

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Finds `name` as a whole identifier in `text`, starting at `from`.
size_t FindIdent(const std::string& text, const std::string& name, size_t from) {
  size_t pos = from;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + name.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      return pos;
    }
    pos = end;
  }
  return std::string::npos;
}

// Collects the balanced-paren argument text of a call whose '(' is at
// code[line][open], spanning at most `max_lines` lines.
std::string CallArgs(const std::vector<std::string>& code, size_t line, size_t open,
                     size_t max_lines = 8) {
  std::string args;
  int depth = 0;
  for (size_t l = line; l < code.size() && l < line + max_lines; ++l) {
    const std::string& text = code[l];
    for (size_t i = (l == line ? open : 0); i < text.size(); ++i) {
      if (text[i] == '(') {
        ++depth;
        if (depth == 1) {
          continue;
        }
      } else if (text[i] == ')') {
        --depth;
        if (depth == 0) {
          return args;
        }
      }
      if (depth >= 1) {
        args.push_back(text[i]);
      }
    }
    args.push_back(' ');
  }
  return args;  // unbalanced within the window; caller treats as-is
}

// True when one of raw[line-window .. line] contains a comment holding `tag`.
bool CommentNearby(const SourceFile& file, size_t line, const std::string& tag,
                   size_t window) {
  const size_t first = line >= window ? line - window : 0;
  for (size_t l = first; l <= line && l < file.raw.size(); ++l) {
    const size_t comment = file.raw[l].find("//");
    if (comment != std::string::npos &&
        file.raw[l].find(tag, comment) != std::string::npos) {
      return true;
    }
    // Block comments: anything after /* on the line counts.
    const size_t block = file.raw[l].find("/*");
    if (block != std::string::npos && file.raw[l].find(tag, block) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- R1: atomics discipline -----------------------------------------------

const char* const kAtomicOps[] = {
    "load",        "store",        "exchange",
    "fetch_add",   "fetch_sub",    "fetch_and",
    "fetch_or",    "fetch_xor",    "compare_exchange_strong",
    "compare_exchange_weak",
};

void CheckAtomicsDiscipline(const SourceFile& file, std::vector<Finding>* findings) {
  for (size_t l = 0; l < file.code.size(); ++l) {
    const std::string& text = file.code[l];
    for (const char* op : kAtomicOps) {
      size_t pos = 0;
      while ((pos = FindIdent(text, op, pos)) != std::string::npos) {
        const size_t start = pos;
        pos += std::string(op).size();
        // Member call only: preceded by '.' or '->' (skips std::exchange,
        // free functions, and declarations of same-named methods).
        const bool member =
            (start >= 1 && text[start - 1] == '.') ||
            (start >= 2 && text[start - 2] == '-' && text[start - 1] == '>');
        if (!member || pos >= text.size() || text[pos] != '(') {
          continue;
        }
        const std::string args = CallArgs(file.code, l, pos);
        if (args.find("order") == std::string::npos) {
          findings->push_back(
              {file.label, static_cast<int>(l + 1), "R1",
               std::string("atomic ") + op +
                   " defaults to seq_cst: name the memory_order explicitly"});
        } else if (!CommentNearby(file, l, "mo:", 6)) {
          findings->push_back(
              {file.label, static_cast<int>(l + 1), "R1",
               std::string("atomic ") + op +
                   " has no `// mo:` rationale on this line or the 6 above"});
        }
      }
    }
  }
}

// --- R2: raw Field access scope -------------------------------------------

const char* const kRawAccessors[] = {"LoadRaw", "StoreRaw", "LoadMvHistory",
                                     "StoreMvHistory", "LockWord"};

void CheckRawAccessScope(const SourceFile& file, std::vector<Finding>* findings) {
  for (size_t l = 0; l < file.code.size(); ++l) {
    const std::string& text = file.code[l];
    for (const char* accessor : kRawAccessors) {
      size_t pos = 0;
      while ((pos = FindIdent(text, accessor, pos)) != std::string::npos) {
        const size_t end = pos + std::string(accessor).size();
        pos = end;
        if (end >= text.size() || text[end] != '(') {
          continue;  // mention in a comment-stripped context, not a call
        }
        if (!CommentNearby(file, l, "raw-ok:", 2)) {
          findings->push_back(
              {file.label, static_cast<int>(l + 1), "R2",
               std::string(accessor) +
                   " outside src/stm//src/mvstm/ needs a `// raw-ok: <reason>`"});
        }
      }
    }
  }
}

// --- R3: TxObserver callbacks noexcept ------------------------------------

const char* const kObserverCallbacks[] = {
    "OnTxBegin",  "OnTxRead",      "OnTxWrite",        "OnTxCommit",
    "OnTxAbort",  "OnTxValidation", "OnTxBackoff",     "OnTxAttemptTiming",
    "OnFieldBirth", "OnRawStore",
};

void CheckObserverNoexcept(const SourceFile& file, std::vector<Finding>* findings) {
  for (size_t l = 0; l < file.code.size(); ++l) {
    const std::string& text = file.code[l];
    for (const char* callback : kObserverCallbacks) {
      const size_t pos = FindIdent(text, callback, 0);
      if (pos == std::string::npos || pos + std::string(callback).size() >= text.size() ||
          text[pos + std::string(callback).size()] != '(') {
        continue;
      }
      // Gather the declaration up to its body or terminating ';'.
      std::string decl;
      for (size_t k = l; k < file.code.size() && k < l + 8; ++k) {
        decl += file.code[k];
        decl.push_back(' ');
        if (file.code[k].find('{') != std::string::npos ||
            file.code[k].find(';') != std::string::npos) {
          break;
        }
      }
      if (FindIdent(decl, "override", 0) == std::string::npos) {
        continue;  // base-class declaration or a definition; header carries it
      }
      if (FindIdent(decl, "noexcept", 0) == std::string::npos) {
        findings->push_back({file.label, static_cast<int>(l + 1), "R3",
                             std::string(callback) +
                                 " override is not noexcept (TxObserver contract)"});
      }
    }
  }
}

bool HasPrefix(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

// --- R5: layering ---------------------------------------------------------

// The header directories a file at `label` may not include; empty where no
// layering rule applies.
std::vector<std::string> ForbiddenIncludes(const std::string& label) {
  if (HasPrefix(label, "src/harness/") && label != "src/harness/main.cc") {
    return {"src/mvstm/", "src/net/"};
  }
  if (HasPrefix(label, "src/telemetry/") || HasPrefix(label, "src/trace/")) {
    return {"src/perf/", "src/harness/"};
  }
  return {};
}

void CheckLayering(const SourceFile& file, const std::string& label,
                   std::vector<Finding>* findings) {
  const std::vector<std::string> forbidden = ForbiddenIncludes(label);
  for (size_t l = 0; l < file.code.size(); ++l) {
    // `code` keeps the directive but blanks the quoted path; `raw` has it.
    const size_t hash = file.code[l].find_first_not_of(" \t");
    if (hash == std::string::npos || file.code[l].compare(hash, 8, "#include") != 0) {
      continue;
    }
    for (const std::string& layer : forbidden) {
      if (file.raw[l].find('"' + layer) != std::string::npos) {
        const std::string dir = label.substr(0, label.find('/', 4) + 1);
        findings->push_back({file.label, static_cast<int>(l + 1), "R5",
                             dir + " may not include a " + layer + " header"});
      }
    }
  }
}

// --- R4: schema drift ------------------------------------------------------

struct Schema {
  std::vector<std::string> stats_fields;
  int csv_version = -1;
  int bench_version = -1;
  int telemetry_version = -1;
  int redo_log_version = -1;
};

std::optional<int> ParseVersionConstant(const fs::path& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t pos = line.find(name);
    if (pos == std::string::npos || line.find("constexpr") == std::string::npos) {
      continue;
    }
    const size_t eq = line.find('=', pos);
    if (eq == std::string::npos) {
      continue;
    }
    return std::atoi(line.c_str() + eq + 1);
  }
  return std::nullopt;
}

std::optional<Schema> CollectSchema(const fs::path& root, std::string* error) {
  Schema schema;
  std::ifstream in(root / "src/stm/stm.h");
  if (!in) {
    *error = "cannot read src/stm/stm.h";
    return std::nullopt;
  }
  std::string line;
  bool in_macro = false;
  while (std::getline(in, line)) {
    if (!in_macro) {
      if (line.find("#define SB7_STM_STATS_FIELDS") != std::string::npos) {
        in_macro = true;
      } else {
        continue;
      }
    }
    size_t pos = 0;
    while ((pos = FindIdent(line, "X", pos)) != std::string::npos) {
      ++pos;
      if (pos >= line.size() || line[pos] != '(') {
        continue;
      }
      const size_t close = line.find(')', pos);
      if (close != std::string::npos) {
        schema.stats_fields.push_back(line.substr(pos + 1, close - pos - 1));
      }
    }
    // The macro continues while lines end in a backslash.
    std::string trimmed = line;
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(trimmed.back()))) {
      trimmed.pop_back();
    }
    if (trimmed.empty() || trimmed.back() != '\\') {
      break;
    }
  }
  if (schema.stats_fields.empty()) {
    *error = "found no X(field) entries in SB7_STM_STATS_FIELDS (parser rot?)";
    return std::nullopt;
  }
  const auto csv = ParseVersionConstant(root / "src/harness/report.cc", "kCsvSchemaVersion");
  const auto bench = ParseVersionConstant(root / "src/perf/report.h", "kBenchSchemaVersion");
  const auto telemetry =
      ParseVersionConstant(root / "src/telemetry/series.h", "kTelemetrySchemaVersion");
  const auto redo =
      ParseVersionConstant(root / "src/mvstm/redo_log.h", "kRedoLogFormatVersion");
  if (!csv || !bench || !telemetry || !redo) {
    *error =
        "cannot parse kCsvSchemaVersion / kBenchSchemaVersion / "
        "kTelemetrySchemaVersion / kRedoLogFormatVersion";
    return std::nullopt;
  }
  schema.csv_version = *csv;
  schema.bench_version = *bench;
  schema.telemetry_version = *telemetry;
  schema.redo_log_version = *redo;
  return schema;
}

std::optional<Schema> ReadSchemaLock(const fs::path& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path.string() + " (run `sb7-lint --update-schema-lock`)";
    return std::nullopt;
  }
  Schema lock;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "csv_schema_version") {
      fields >> lock.csv_version;
    } else if (key == "bench_schema_version") {
      fields >> lock.bench_version;
    } else if (key == "telemetry_schema_version") {
      fields >> lock.telemetry_version;
    } else if (key == "redo_log_format_version") {
      fields >> lock.redo_log_version;
    } else if (key == "stats_fields") {
      std::string name;
      while (fields >> name) {
        lock.stats_fields.push_back(name);
      }
    } else {
      *error = "unknown key '" + key + "' in " + path.string();
      return std::nullopt;
    }
  }
  return lock;
}

bool WriteSchemaLock(const fs::path& path, const Schema& schema) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "# sb7-lint schema lock. Regenerate deliberately (after bumping the\n"
         "# consumer schema versions) with: sb7-lint --update-schema-lock\n";
  out << "csv_schema_version " << schema.csv_version << "\n";
  out << "bench_schema_version " << schema.bench_version << "\n";
  out << "telemetry_schema_version " << schema.telemetry_version << "\n";
  out << "redo_log_format_version " << schema.redo_log_version << "\n";
  out << "stats_fields";
  for (const std::string& field : schema.stats_fields) {
    out << " " << field;
  }
  out << "\n";
  return static_cast<bool>(out);
}

void CompareSchemas(const Schema& lock, const Schema& current,
                    std::vector<Finding>* findings) {
  const std::string lock_file = "tools/lint/schema.lock";
  if (lock.stats_fields != current.stats_fields) {
    std::ostringstream message;
    message << "StmStats X-macro drifted from the lock (lock " << lock.stats_fields.size()
            << " fields, tree " << current.stats_fields.size()
            << "): bump kCsvSchemaVersion/kBenchSchemaVersion if the artifact layout "
               "changed, then run `sb7-lint --update-schema-lock`";
    findings->push_back({lock_file, 1, "R4", message.str()});
  }
  if (lock.csv_version != current.csv_version) {
    findings->push_back({lock_file, 1, "R4",
                         "kCsvSchemaVersion is " + std::to_string(current.csv_version) +
                             " but the lock says " + std::to_string(lock.csv_version)});
  }
  if (lock.bench_version != current.bench_version) {
    findings->push_back({lock_file, 1, "R4",
                         "kBenchSchemaVersion is " + std::to_string(current.bench_version) +
                             " but the lock says " + std::to_string(lock.bench_version)});
  }
  if (lock.telemetry_version != current.telemetry_version) {
    findings->push_back(
        {lock_file, 1, "R4",
         "kTelemetrySchemaVersion is " + std::to_string(current.telemetry_version) +
             " but the lock says " + std::to_string(lock.telemetry_version)});
  }
  if (lock.redo_log_version != current.redo_log_version) {
    findings->push_back(
        {lock_file, 1, "R4",
         "kRedoLogFormatVersion is " + std::to_string(current.redo_log_version) +
             " but the lock says " + std::to_string(lock.redo_log_version) +
             " — old logs must stay replayable; bump deliberately and run "
             "`sb7-lint --update-schema-lock`"});
  }
}

// --- driver ----------------------------------------------------------------

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

std::vector<Finding> LintTree(const fs::path& root, std::string* error) {
  std::vector<Finding> findings;
  std::vector<std::string> labels;
  for (const char* top : {"src", "tests"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        labels.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(labels.begin(), labels.end());
  for (const std::string& label : labels) {
    const auto file = LoadFile(root / label, label);
    if (!file) {
      *error = "cannot read " + label;
      return findings;
    }
    const bool r1_scope = HasPrefix(label, "src/stm/") || HasPrefix(label, "src/mvstm/") ||
                          HasPrefix(label, "src/trace/") ||
                          HasPrefix(label, "src/telemetry/") ||
                          HasPrefix(label, "src/net/") || HasPrefix(label, "src/sync/");
    const bool r2_allowed = HasPrefix(label, "src/stm/") || HasPrefix(label, "src/mvstm/");
    if (r1_scope) {
      CheckAtomicsDiscipline(*file, &findings);
    }
    if (!r2_allowed) {
      CheckRawAccessScope(*file, &findings);
    }
    CheckObserverNoexcept(*file, &findings);
    CheckLayering(*file, label, &findings);
  }
  const auto current = CollectSchema(root, error);
  if (!current) {
    return findings;
  }
  const auto lock = ReadSchemaLock(root / "tools/lint/schema.lock", error);
  if (!lock) {
    return findings;
  }
  CompareSchemas(*lock, *current, &findings);
  return findings;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int count = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == rule) {
      ++count;
    }
  }
  return count;
}

// Self-test: every seeded-bad fixture must trip its rule; the clean fixture
// must not trip anything; the schema comparator must flag a corrupted lock.
int RunSelfTest(const fs::path& root) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "selftest FAIL: " << what << "\n";
      ++failures;
    }
  };
  const fs::path fixtures = root / "tools/lint/fixtures";
  // `as` is the path the selftest treats the fixture as living at (R5
  // depends on the directory).
  struct Case {
    const char* file;
    const char* as;
    const char* rule;
    int min_findings;
  };
  for (const Case& c : {Case{"bad_r1.cc", "src/stm/bad_r1.cc", "R1", 2},
                        Case{"bad_r2.cc", "src/ops/bad_r2.cc", "R2", 3},
                        Case{"bad_r3.cc", "src/trace/bad_r3.cc", "R3", 1},
                        Case{"bad_r5.cc", "src/harness/bad_r5.cc", "R5", 2},
                        Case{"bad_r5_instruments.cc", "src/telemetry/bad_r5_instruments.cc",
                             "R5", 2}}) {
    const auto file = LoadFile(fixtures / c.file, c.file);
    if (!file) {
      expect(false, std::string("missing fixture ") + c.file);
      continue;
    }
    std::vector<Finding> findings;
    CheckAtomicsDiscipline(*file, &findings);
    CheckRawAccessScope(*file, &findings);
    CheckObserverNoexcept(*file, &findings);
    CheckLayering(*file, c.as, &findings);
    expect(CountRule(findings, c.rule) >= c.min_findings,
           std::string(c.file) + " should trip " + c.rule + " at least " +
               std::to_string(c.min_findings) + "x, got " +
               std::to_string(CountRule(findings, c.rule)));
  }
  const auto clean = LoadFile(fixtures / "good_clean.cc", "good_clean.cc");
  if (!clean) {
    expect(false, "missing fixture good_clean.cc");
  } else {
    std::vector<Finding> findings;
    CheckAtomicsDiscipline(*clean, &findings);
    CheckRawAccessScope(*clean, &findings);
    CheckObserverNoexcept(*clean, &findings);
    CheckLayering(*clean, "src/harness/good_clean.cc", &findings);
    CheckLayering(*clean, "src/telemetry/good_clean.cc", &findings);
    expect(findings.empty(), "good_clean.cc should be clean, got " +
                                 std::to_string(findings.size()) + " findings");
  }
  std::string error;
  const auto current = CollectSchema(root, &error);
  expect(static_cast<bool>(current), "schema parser: " + error);
  if (current) {
    expect(!current->stats_fields.empty() && current->csv_version > 0 &&
               current->bench_version > 0 && current->telemetry_version > 0 &&
               current->redo_log_version > 0,
           "schema parser returned implausible values");
    Schema corrupted = *current;
    corrupted.csv_version += 1;
    corrupted.telemetry_version += 1;
    corrupted.redo_log_version += 1;
    corrupted.stats_fields.push_back("bogus_counter");
    std::vector<Finding> findings;
    CompareSchemas(corrupted, *current, &findings);
    expect(CountRule(findings, "R4") >= 4, "corrupted lock should trip R4 four times");
  }
  if (failures == 0) {
    std::cout << "sb7-lint selftest: all fixtures behave\n";
  }
  return failures == 0 ? 0 : 1;
}

std::string UsageText() {
  return R"(usage: sb7-lint [options]
  --root <dir>           tree to lint (default: the configured source dir)
  --selftest             run the rule engines against the seeded fixtures
  --update-schema-lock   rewrite tools/lint/schema.lock from the tree
  --help                 show this message
)";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SB7_SOURCE_DIR
  fs::path root = SB7_SOURCE_DIR;
#else
  fs::path root = fs::current_path();
#endif
  bool selftest = false;
  bool update_lock = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << UsageText();
      return 0;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--update-schema-lock") {
      update_lock = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::cerr << "sb7-lint: unknown argument '" << arg << "'\n" << UsageText();
      return 2;
    }
  }
  if (!fs::exists(root / "src")) {
    std::cerr << "sb7-lint: " << root << " does not look like the repo root\n";
    return 2;
  }
  if (selftest) {
    return RunSelfTest(root);
  }
  if (update_lock) {
    std::string error;
    const auto current = CollectSchema(root, &error);
    if (!current) {
      std::cerr << "sb7-lint: " << error << "\n";
      return 2;
    }
    if (!WriteSchemaLock(root / "tools/lint/schema.lock", *current)) {
      std::cerr << "sb7-lint: cannot write tools/lint/schema.lock\n";
      return 2;
    }
    std::cout << "schema.lock updated: " << current->stats_fields.size()
              << " stats fields, csv v" << current->csv_version << ", bench v"
              << current->bench_version << "\n";
    return 0;
  }
  std::string error;
  const std::vector<Finding> findings = LintTree(root, &error);
  if (!error.empty()) {
    std::cerr << "sb7-lint: " << error << "\n";
    return 2;
  }
  for (const Finding& finding : findings) {
    std::cout << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
              << finding.message << "\n";
  }
  if (findings.empty()) {
    std::cout << "sb7-lint: clean\n";
    return 0;
  }
  std::cout << findings.size() << " finding(s)\n";
  return 1;
}
