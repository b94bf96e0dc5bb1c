#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ntco/lint/lint.hpp"

/// \file lint_main.cpp
/// `ntco-lint` CLI — the static counterpart to the dynamic determinism
/// gates in tools/ci.sh (artifact diffing) and tools/sanitize.sh
/// (ASan/TSan). See DESIGN.md "Static analysis & determinism contract".
///
///   ntco-lint [--root DIR] [--json-out FILE] [--sarif FILE] [--fail-stale]
///             [--dump-names] [paths...]
///
/// Scans src/ bench/ tests/ examples/ under --root (or the given relative
/// paths instead), prints `file:line: [Rn] message` for every diagnostic,
/// and exits non-zero if there is any. A scan root that does not exist is
/// a configuration error (exit 2), never a clean run.

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--root DIR] [--json-out FILE] [--sarif FILE] [--fail-stale]\n"
         "       [--dump-names] [paths...]\n"
         "\n"
         "Determinism, layering & hot-path lint for the ntco tree. Rules:\n"
         "  R1  nondeterminism sources outside sanctioned files\n"
         "  R2  iteration over unordered containers\n"
         "  R3  threading primitives outside src/fleet/ and src/dataplane/\n"
         "  R4  module-layering back-edges (declared DAG over ntco includes)\n"
         "  R5  += accumulation of unordered-container lookups\n"
         "  R6  allocation inside hot-path regions (tools/lint_hotpath.txt\n"
         "      or hotpath begin/end markers)\n"
         "  R7  telemetry names missing from src/obs/.../names.hpp (and\n"
         "      dead registry rows)\n"
         "  R8  stale includes / missing direct includes (IWYU-lite)\n"
         "  R9  kernel handler lambdas that copy-capture allocating types\n"
         "\n"
         "  --json-out FILE  write the JSON report\n"
         "  --sarif FILE     write a SARIF 2.1.0 report\n"
         "  --fail-stale     exit 1 if any allow() directive silenced nothing\n"
         "  --dump-names     print DESIGN.md markdown tables from the name\n"
         "                   registry and exit\n"
         "\n"
         "Suppress inline (reason mandatory, counted in the report):\n"
         "  code();  " /* keep the directive non-contiguous in this binary's
                          own source */
      << "// ntco-"
      << "lint: allow(R2) why this is order-insensitive\n"
         "\n"
         "Exit status: 0 clean, 1 diagnostics (or stale suppressions with\n"
         "--fail-stale), 2 usage/config error (including a missing root).\n";
  return 2;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_out;
  std::string sarif_out;
  bool fail_stale = false;
  bool dump_names = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--root") {
      if (const char* v = next()) root = v; else return usage(argv[0]);
    } else if (arg == "--json-out") {
      if (const char* v = next()) json_out = v; else return usage(argv[0]);
    } else if (arg == "--sarif") {
      if (const char* v = next()) sarif_out = v; else return usage(argv[0]);
    } else if (arg == "--fail-stale") {
      fail_stale = true;
    } else if (arg == "--dump-names") {
      dump_names = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ntco-lint: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }

  try {
    ntco::lint::Config cfg = ntco::lint::default_config(root);
    if (!roots.empty()) cfg.roots = roots;

    if (dump_names) {
      const auto entries = ntco::lint::load_names_registry(
          root + "/" + cfg.names_registry);
      if (entries.empty()) {
        std::cerr << "ntco-lint: no entries in " << cfg.names_registry
                  << "\n";
        return 2;
      }
      std::cout << ntco::lint::names_markdown(entries);
      return 0;
    }

    const ntco::lint::Report report = ntco::lint::run(cfg);

    for (const auto& d : report.diagnostics)
      std::cout << d.file << ":" << d.line << ": ["
                << ntco::lint::rule_name(d.rule) << "] " << d.message << "\n";

    if (!json_out.empty()) write_file(json_out, ntco::lint::to_json(report));
    if (!sarif_out.empty()) write_file(sarif_out, ntco::lint::to_sarif(report));

    if (fail_stale) {
      for (const auto& s : report.stale_suppressions)
        std::cout << s.file << ":" << s.line << ": stale suppression ("
                  << s.rules << ") — its rule no longer fires here\n";
    }

    std::cout << "ntco-lint: " << report.files_scanned << " files, "
              << report.diagnostics.size() << " diagnostics, "
              << report.suppressions.size() << " suppressions ("
              << report.stale_suppressions.size() << " stale)\n";
    if (!report.diagnostics.empty()) return 1;
    if (fail_stale && !report.stale_suppressions.empty()) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ntco-lint: error: " << e.what() << "\n";
    return 2;
  }
}
