#pragma once

// Shared main() of the google-benchmark micro benches that tools/ci.sh
// gates. Every result goes to the console reporter and, when
// NTCO_BENCH_OUT names a directory, is mirrored as (name, items/s,
// ns/item) into <dir>/BENCH_<id>.json. The JSON is written here (not by
// google-benchmark's --benchmark_out) so the schema stays stable and the
// ci.sh regression guard can parse it with POSIX awk.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace ntco::bench {

struct CapturedRun {
  std::string name;
  double items_per_second = 0.0;
  double ns_per_item = 0.0;
};

class MirroringReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      CapturedRun c;
      c.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        c.items_per_second = static_cast<double>(it->second);
        if (c.items_per_second > 0.0) c.ns_per_item = 1e9 / c.items_per_second;
      }
      captured.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<CapturedRun> captured;
};

inline bool write_micro_json(const std::string& path, const std::string& id,
                             const std::vector<CapturedRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n", id.c_str());
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"items_per_second\": %.6g, "
                 "\"ns_per_item\": %.6g}%s\n",
                 runs[i].name.c_str(), runs[i].items_per_second,
                 runs[i].ns_per_item, i + 1 < runs.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Runs every registered benchmark and mirrors the results to
/// $NTCO_BENCH_OUT/BENCH_<id>.json. Returns main()'s exit status.
inline int run_micro(int argc, char** argv, const std::string& id) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MirroringReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* dir = std::getenv("NTCO_BENCH_OUT");
      dir != nullptr && dir[0] != '\0') {
    const std::string path = std::string(dir) + "/BENCH_" + id + ".json";
    if (!write_micro_json(path, id, reporter.captured)) {
      std::fprintf(stderr, "ntco: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace ntco::bench
