// midway-lint: compile-time protocol-discipline analyzer for the midway DSM.
//
// Codifies the repo's write-detection soundness contracts as named, individually testable
// rules (R1..R6, docs/ANALYSIS.md) over a comment/scope-aware view of the C++ sources —
// no LLVM dependency, builds wherever CI does. Emits `file:line: rule-id: message`, an
// optional --json report, supports --baseline suppressions, and maintains the golden wire
// schema (--update-wire-golden). Exit: 0 clean, 1 findings, 2 usage/internal error.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "tools/midway_lint/rules.h"
#include "tools/midway_lint/source_model.h"

namespace fs = std::filesystem;
using midway_lint::Finding;
using midway_lint::LintTree;

namespace {

constexpr const char* kUsage =
    R"(usage: midway-lint [options]

Protocol-discipline analyzer for the midway DSM (see docs/ANALYSIS.md).

options:
  --root=DIR            tree to scan (default: .); expects src/, examples/, bench/ under it
  --rules=R1,R4,...     run only rules whose id starts with a listed prefix (default: all)
  --json=FILE           write a machine-readable report
  --baseline=FILE       suppression list (default: <root>/tools/lint_baseline.txt if present)
  --golden=FILE         golden wire schema (default: <root>/tools/wire_schema.golden)
  --update-wire-golden  regenerate the golden wire schema from the tree and exit
  --list-rules          print the rule ids and one-line summaries
  -h, --help            this text
)";

struct Options {
  std::string root = ".";
  std::string json;
  std::string baseline;
  std::string golden;
  std::vector<std::string> rules;
  bool update_golden = false;
  bool list_rules = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accepts both --flag=value and --flag value.
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      if (arg == flag && i + 1 < argc) {
        return argv[++i];
      }
      return nullptr;
    };
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      std::exit(0);
    } else if (arg == "--list-rules") {
      opt->list_rules = true;
    } else if (arg == "--update-wire-golden") {
      opt->update_golden = true;
    } else if (const char* v = value("--root")) {
      opt->root = v;
    } else if (const char* v = value("--json")) {
      opt->json = v;
    } else if (const char* v = value("--baseline")) {
      opt->baseline = v;
    } else if (const char* v = value("--golden")) {
      opt->golden = v;
    } else if (const char* v = value("--rules")) {
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) opt->rules.push_back(item);
      }
    } else {
      std::cerr << "midway-lint: unknown argument '" << arg << "'\n" << kUsage;
      return false;
    }
  }
  return true;
}

bool RuleEnabled(const Options& opt, const char* rule) {
  if (opt.rules.empty()) return true;
  for (const std::string& prefix : opt.rules) {
    if (std::string(rule).rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// The scanned tree: every C++ source under the protocol-relevant directories. tests/ is
// excluded by design (tests exercise raw paths and detector internals deliberately);
// tools/ is excluded so the analyzer never lints itself into a fixpoint problem.
std::vector<std::string> CollectFiles(const std::string& root) {
  std::vector<std::string> out;
  for (const char* dir : {"src", "examples", "bench"}) {
    fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".cc" && ext != ".h" && ext != ".cpp") continue;
      out.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  return out;
}

// Baseline format, one suppression per line (# comments allowed):
//   <rule-id> <root-relative-path>[:<line>]
// Every baseline entry must carry a justification comment — reviewed in docs/ANALYSIS.md.
struct BaselineEntry {
  std::string rule;
  std::string file;
  int line = 0;  // 0 = any line in the file
};

std::vector<BaselineEntry> LoadBaseline(const std::string& path) {
  std::vector<BaselineEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::stringstream ss(line);
    BaselineEntry e;
    if (!(ss >> e.rule >> e.file)) continue;
    size_t colon = e.file.rfind(':');
    if (colon != std::string::npos &&
        e.file.find_first_not_of("0123456789", colon + 1) == std::string::npos) {
      e.line = std::atoi(e.file.c_str() + colon + 1);
      e.file = e.file.substr(0, colon);
    }
    out.push_back(e);
  }
  return out;
}

bool Suppressed(const Finding& f, const std::vector<BaselineEntry>& baseline) {
  for (const BaselineEntry& e : baseline) {
    if (e.rule == f.rule && e.file == f.file && (e.line == 0 || e.line == f.line)) {
      return true;
    }
  }
  return false;
}

bool WriteJson(const std::string& path, const std::vector<Finding>& findings,
               const std::vector<Finding>& suppressed, size_t files_scanned) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  midway::JsonWriter w;
  w.BeginObject().Field("tool", "midway-lint").Field("schema", "midway-lint/v1");
  w.Field("files_scanned", files_scanned);
  const auto dump = [&w](const char* key, const std::vector<Finding>& list) {
    w.Key(key).BeginArray();
    for (const Finding& f : list) {
      w.BeginObject().Field("file", f.file).Field("line", f.line).Field("rule", f.rule);
      w.Field("message", f.message).EndObject();
    }
    w.EndArray();
  };
  dump("findings", findings);
  dump("suppressed", suppressed);
  w.EndObject();
  out << w.str();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;

  if (opt.list_rules) {
    std::cout
        << midway_lint::kRuleR1
        << "    raw_mutable() only inside `// init-phase` scopes, before BeginParallel\n"
        << midway_lint::kRuleR2
        << "      no node-0 pinning / modulo home assignment in coordination paths\n"
        << midway_lint::kRuleR3
        << " NodeHealth::kDead only in the failure detector and recovery module\n"
        << midway_lint::kRuleR4
        << "   trace emission and Span ends in Runtime must be mu_-guarded\n"
        << midway_lint::kRuleR5
        << "   wire-struct layout drift vs tools/wire_schema.golden\n"
        << midway_lint::kRuleR6
        << " MIDWAY_COUNTER_FIELDS entries all bumped; all bumps declared\n";
    return 0;
  }

  std::error_code ec;
  fs::path root_abs = fs::canonical(opt.root, ec);
  if (ec) {
    std::cerr << "midway-lint: cannot resolve --root=" << opt.root << ": " << ec.message()
              << "\n";
    return 2;
  }
  const std::string root = root_abs.generic_string();
  if (opt.golden.empty()) opt.golden = root + "/tools/wire_schema.golden";
  if (opt.baseline.empty()) {
    std::string candidate = root + "/tools/lint_baseline.txt";
    if (fs::exists(candidate)) opt.baseline = candidate;
  }

  LintTree tree(root, CollectFiles(root));
  std::vector<Finding> findings;

  if (opt.update_golden) {
    midway_lint::RunR5(tree, opt.golden, /*update=*/true, &findings);
    if (!findings.empty()) {
      for (const Finding& f : findings) {
        std::cerr << f.file << ":" << f.line << ": " << f.rule << ": " << f.message << "\n";
      }
      return 2;
    }
    std::cout << "midway-lint: wrote " << opt.golden << "\n";
    return 0;
  }

  if (RuleEnabled(opt, midway_lint::kRuleR1)) midway_lint::RunR1(tree, &findings);
  if (RuleEnabled(opt, midway_lint::kRuleR2)) midway_lint::RunR2(tree, &findings);
  if (RuleEnabled(opt, midway_lint::kRuleR3)) midway_lint::RunR3(tree, &findings);
  if (RuleEnabled(opt, midway_lint::kRuleR4)) midway_lint::RunR4(tree, &findings);
  if (RuleEnabled(opt, midway_lint::kRuleR5)) {
    midway_lint::RunR5(tree, opt.golden, /*update=*/false, &findings);
  }
  if (RuleEnabled(opt, midway_lint::kRuleR6)) midway_lint::RunR6(tree, &findings);

  std::vector<BaselineEntry> baseline;
  if (!opt.baseline.empty()) baseline = LoadBaseline(opt.baseline);
  std::vector<Finding> active;
  std::vector<Finding> suppressed;
  for (Finding& f : findings) {
    (Suppressed(f, baseline) ? suppressed : active).push_back(std::move(f));
  }
  std::sort(active.begin(), active.end());
  std::sort(suppressed.begin(), suppressed.end());

  for (const Finding& f : active) {
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": " << f.message << "\n";
  }

  if (!opt.json.empty() && !WriteJson(opt.json, active, suppressed, tree.files().size())) {
    std::cerr << "midway-lint: cannot write --json=" << opt.json << "\n";
    return 2;
  }

  if (active.empty()) {
    std::cout << "midway-lint: OK (" << tree.files().size() << " files";
    if (!suppressed.empty()) std::cout << ", " << suppressed.size() << " baselined";
    std::cout << ")\n";
    return 0;
  }
  std::cerr << "midway-lint: " << active.size() << " finding(s)";
  if (!suppressed.empty()) std::cerr << " (" << suppressed.size() << " baselined)";
  std::cerr << "\n";
  return 1;
}
