// Shared helpers for the table/figure benchmark binaries.
#ifndef MIDWAY_BENCH_BENCH_UTIL_H_
#define MIDWAY_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/json_writer.h"
#include "src/common/options.h"
#include "src/common/table.h"

namespace midway {
namespace bench {

inline const std::vector<std::string>& AppNames() {
  static const std::vector<std::string> names = {"water", "quicksort", "matmul", "sor",
                                                 "cholesky"};
  return names;
}

struct SuiteOptions {
  uint16_t procs = 8;
  bool full = false;
  TransportKind transport = TransportKind::kInProc;

  static SuiteOptions FromArgs(const Options& options) {
    SuiteOptions s;
    s.procs = static_cast<uint16_t>(options.GetInt("procs", 8));
    s.full = options.FullScale();
    s.transport =
        options.GetString("transport", "inproc") == "tcp" ? TransportKind::kTcp
                                                          : TransportKind::kInProc;
    return s;
  }
};

// Runs every application under `mode`, returning reports keyed by app name.
inline std::map<std::string, AppReport> RunSuite(DetectionMode mode, const SuiteOptions& opts) {
  std::map<std::string, AppReport> reports;
  for (const std::string& app : AppNames()) {
    SystemConfig config;
    config.mode = mode;
    config.num_procs = opts.procs;
    config.transport = opts.transport;
    AppReport report = RunAppByName(app, config, opts.full);
    if (!report.verified) {
      std::fprintf(stderr, "WARNING: %s under %s did not verify against its sequential "
                           "reference\n",
                   app.c_str(), DetectionModeName(mode));
    }
    reports[app] = std::move(report);
  }
  return reports;
}

// Writes one CSV file (header row + data rows) when the user passed --csv=<dir>; returns
// true if written. Series benches use this to emit plot-ready data next to the tables.
inline bool MaybeWriteCsv(const Options& options, const std::string& name,
                          const std::vector<std::string>& header,
                          const std::vector<std::vector<double>>& rows) {
  const std::string dir = options.GetString("csv", "");
  if (dir.empty()) return false;
  const std::string path = dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  for (size_t i = 0; i < header.size(); ++i) {
    out << (i ? "," : "") << header[i];
  }
  out << "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? "," : "") << row[i];
    }
    out << "\n";
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// Writes a finished BENCH_*.json document to `path`.
inline void WriteJsonFile(const std::string& path, const JsonWriter& w) {
  std::ofstream out(path);
  out << w.str();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s\n", path.c_str());
}

inline void PrintHeader(const std::string& title, const SuiteOptions& opts) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("procs=%u scale=%s transport=%s\n", opts.procs,
              opts.full ? "paper (--full)" : "fast-default (pass --full for paper scale)",
              opts.transport == TransportKind::kTcp ? "tcp" : "inproc");
}

}  // namespace bench
}  // namespace midway

#endif  // MIDWAY_BENCH_BENCH_UTIL_H_
