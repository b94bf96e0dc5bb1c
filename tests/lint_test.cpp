#include "ntco/lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

// Fixture-driven tests for the ntco-lint analyzer. Every rule R1-R5 has a
// violating and a clean fixture under tests/lint_fixtures/ (the directory
// is excluded from the repo-wide scan precisely because its files violate
// on purpose). NTCO_LINT_FIXTURE_DIR is injected by tests/CMakeLists.txt.

namespace ntco::lint {
namespace {

std::string fixture_root() { return NTCO_LINT_FIXTURE_DIR; }

// Scan the given files/dirs (relative to the fixture dir, or to
// `root_suffix` below it) with the repo's default rule config.
Report scan(const std::vector<std::string>& roots,
            const std::string& root_suffix = "") {
  Config cfg = default_config(
      root_suffix.empty() ? fixture_root() : fixture_root() + "/" + root_suffix);
  cfg.roots = roots;
  cfg.exclude.clear();  // the default config excludes the fixture tree
  return run(cfg);
}

std::vector<Diagnostic> of_rule(const Report& r, Rule rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : r.diagnostics)
    if (d.rule == rule) out.push_back(d);
  return out;
}

bool has_line(const std::vector<Diagnostic>& ds, int line) {
  return std::any_of(ds.begin(), ds.end(),
                     [line](const Diagnostic& d) { return d.line == line; });
}

// ---------------------------------------------------------------------------
// R1: nondeterminism sources.

TEST(LintR1, FlagsWallClockEnvAndAdHocRng) {
  const Report r = scan({"r1_violation.cpp"});
  const auto d = of_rule(r, Rule::R1);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_TRUE(has_line(d, 9));   // std::random_device
  EXPECT_TRUE(has_line(d, 10));  // system_clock
  EXPECT_TRUE(has_line(d, 11));  // steady_clock
  EXPECT_TRUE(has_line(d, 12));  // getenv
  EXPECT_TRUE(has_line(d, 13));  // std::rand
  EXPECT_EQ(r.diagnostics.size(), d.size()) << "no other rules should fire";
}

TEST(LintR1, CleanVariantAndLookalikeIdentifiersPass) {
  const Report r = scan({"r1_clean.cpp"});
  EXPECT_TRUE(r.diagnostics.empty())
      << "first: " << (r.diagnostics.empty() ? "" : r.diagnostics[0].message);
  EXPECT_EQ(r.files_scanned, 1u);
}

TEST(LintR1, SanctionedFilesAreAllowlisted) {
  // The same violating contents under an allowlisted path must pass: the
  // bench harness legitimately times itself and reads NTCO_BENCH_OUT.
  Config cfg = default_config(fixture_root());
  Report rep;
  std::ifstream in(fixture_root() + "/r1_violation.cpp");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  analyze_source(cfg, "bench/bench_common.hpp", ss.str(), rep);
  EXPECT_TRUE(of_rule(rep, Rule::R1).empty());
}

// ---------------------------------------------------------------------------
// R2: unordered-container iteration.

TEST(LintR2, FlagsRangeForAndIteratorLoops) {
  const Report r = scan({"r2_violation.cpp"});
  const auto d = of_rule(r, Rule::R2);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_TRUE(has_line(d, 10));  // structured-binding range-for
  EXPECT_TRUE(has_line(d, 16));  // qualified-type range-for
  EXPECT_TRUE(has_line(d, 22));  // .begin() in a for header
  // Fingerprints are line-number-free so SARIF partialFingerprints
  // survive edits that shift lines.
  for (const auto& diag : d)
    EXPECT_EQ(diag.fingerprint.find(':'), diag.fingerprint.rfind(':'))
        << "no line numbers in fingerprints: " << diag.fingerprint;
}

TEST(LintR2, DeclarationLookupAndSortedExtractionPass) {
  const Report r = scan({"r2_clean.cpp"});
  EXPECT_TRUE(r.diagnostics.empty())
      << "first: " << (r.diagnostics.empty() ? "" : r.diagnostics[0].message);
}

// ---------------------------------------------------------------------------
// R3: threading primitives.

TEST(LintR3, FlagsThreadingPrimitivesOutsideFleet) {
  const Report r = scan({"r3_violation.cpp"});
  const auto d = of_rule(r, Rule::R3);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_TRUE(has_line(d, 9));   // std::atomic
  EXPECT_TRUE(has_line(d, 10));  // std::mutex
  EXPECT_TRUE(has_line(d, 11));  // std::thread
  EXPECT_TRUE(has_line(d, 13));  // std::lock_guard
}

TEST(LintR3, FleetPathsAreAllowlistedAndLookalikesPass) {
  EXPECT_TRUE(scan({"r3_clean.cpp"}).diagnostics.empty());
  // Identical threading code under src/fleet/ is sanctioned.
  Config cfg = default_config(fixture_root());
  Report rep;
  std::ifstream in(fixture_root() + "/r3_violation.cpp");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  analyze_source(cfg, "src/fleet/src/pool_extras.cpp", ss.str(), rep);
  EXPECT_TRUE(of_rule(rep, Rule::R3).empty());
}

// ---------------------------------------------------------------------------
// R4: module layering.

TEST(LintR4, FlagsBackEdgesAndUnknownModules) {
  const Report r = scan({"src"}, "layering");
  const auto d = of_rule(r, Rule::R4);
  ASSERT_EQ(d.size(), 3u);
  int back_edges = 0, unknown = 0;
  for (const auto& diag : d) {
    if (diag.fingerprint.find("|edge:") != std::string::npos) ++back_edges;
    if (diag.fingerprint.find("|unknown:") != std::string::npos) ++unknown;
  }
  EXPECT_EQ(back_edges, 2);  // stats->core, common->stats
  EXPECT_EQ(unknown, 1);     // common->mystery
  // The clean sim header (obs direct, common via closure) contributes none.
  for (const auto& diag : d)
    EXPECT_EQ(diag.file.find("good_dep"), std::string::npos) << diag.file;
}

TEST(LintR4, DeclaredCycleIsAConfigError) {
  Config cfg = default_config(fixture_root());
  cfg.dag = {{"a", {"b"}}, {"b", {"a"}}};
  Report rep;
  EXPECT_THROW(analyze_source(cfg, "src/a/x.hpp", "", rep),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// R5: unordered-sourced accumulation.

TEST(LintR5, FlagsAccumulationFromUnorderedLookups) {
  const Report r = scan({"r5_violation.cpp"});
  const auto d = of_rule(r, Rule::R5);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(has_line(d, 11));  // operator[]
  EXPECT_TRUE(has_line(d, 13));  // .at()
}

TEST(LintR5, OrderedSourcesPass) {
  EXPECT_TRUE(scan({"r5_clean.cpp"}).diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Suppressions.

TEST(LintSuppression, ReasonedAllowSilencesAndIsCounted) {
  const Report r = scan({"suppressed.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.suppressions.size(), 2u);
  EXPECT_EQ(r.suppressions[0].rules, "R2");
  EXPECT_FALSE(r.suppressions[0].reason.empty());
  EXPECT_FALSE(r.suppressions[1].reason.empty());
}

TEST(LintSuppression, MissingReasonFailsClosed) {
  const Report r = scan({"suppressed_missing_reason.cpp"});
  EXPECT_EQ(of_rule(r, Rule::Sup).size(), 1u);
  EXPECT_EQ(of_rule(r, Rule::R2).size(), 1u)
      << "a reasonless allow() must not suppress";
  EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintSuppression, UnusedAllowIsReportedStale) {
  const Report r = scan({"stale_allow.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
  // A stale directive still counts as a (well-formed) suppression; it is
  // *additionally* reported stale so --fail-stale can gate on it.
  EXPECT_EQ(r.suppressions.size(), 1u);
  ASSERT_EQ(r.stale_suppressions.size(), 1u);
  EXPECT_EQ(r.stale_suppressions[0].line, 4);
  EXPECT_EQ(r.stale_suppressions[0].rules, "R2");
}

// ---------------------------------------------------------------------------
// R6: hot-path allocation.

TEST(LintR6, FlagsAllocationInsideMarkedRegion) {
  const Report r = scan({"r6_violation.cpp"});
  const auto d = of_rule(r, Rule::R6);
  ASSERT_EQ(d.size(), 6u);
  EXPECT_TRUE(has_line(d, 12));  // new
  EXPECT_TRUE(has_line(d, 13));  // push_back
  EXPECT_TRUE(has_line(d, 14));  // make_shared
  EXPECT_TRUE(has_line(d, 15));  // std::function
  EXPECT_TRUE(has_line(d, 16));  // resize
  EXPECT_TRUE(has_line(d, 17));  // try_emplace
  EXPECT_EQ(r.diagnostics.size(), d.size()) << "no other rules should fire";
}

TEST(LintR6, OutsideRegionAndReasonedAllowPass) {
  const Report r = scan({"r6_clean.cpp"});
  EXPECT_TRUE(r.diagnostics.empty())
      << "first: " << (r.diagnostics.empty() ? "" : r.diagnostics[0].message);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rules, "R6");
}

TEST(LintR6, HotpathFileListCoversTheWholeFile) {
  // The same clean fixture, but listed whole-file hot: the reserve() that
  // sat before the marked region now fires; the allow still holds.
  Config cfg = default_config(fixture_root());
  cfg.exclude.clear();
  cfg.roots = {"r6_clean.cpp"};
  cfg.hotpath_files = {"r6_clean.cpp"};
  const Report r = run(cfg);
  const auto d = of_rule(r, Rule::R6);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(has_line(d, 6));  // v.reserve(64)
  EXPECT_EQ(r.suppressions.size(), 1u);
}

// ---------------------------------------------------------------------------
// R7: telemetry-name contract.

TEST(LintR7, EnforcesRegistryContractAcrossTheTree) {
  const Report r = scan({"src"}, "r7");
  const auto d = of_rule(r, Rule::R7);
  ASSERT_EQ(d.size(), 4u);
  int unknown = 0, kind = 0, dup = 0, dead = 0;
  for (const auto& diag : d) {
    if (diag.fingerprint.find("|name:demo.typo") != std::string::npos) {
      ++unknown;
      EXPECT_EQ(diag.line, 7);
    }
    if (diag.fingerprint.find("|kind:demo.jobs") != std::string::npos) {
      ++kind;
      EXPECT_EQ(diag.line, 8);  // counter used as a gauge
    }
    if (diag.fingerprint.find("|dup:demo.dup") != std::string::npos) {
      ++dup;
      EXPECT_EQ(diag.line, 14);  // the second registry row
    }
    if (diag.fingerprint.find("|dead:demo.dead") != std::string::npos) {
      ++dead;
      EXPECT_EQ(diag.line, 12);
    }
  }
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(kind, 1);
  EXPECT_EQ(dup, 1);
  EXPECT_EQ(dead, 1);
  EXPECT_EQ(r.diagnostics.size(), d.size()) << "no other rules should fire";
  // The registered names good.cpp emits (including the duplicated one)
  // produce nothing; the unregistered prototype name is allow(R7)'d.
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rules, "R7");
}

TEST(LintR7, RegistryLoaderParsesRowsInFileOrder) {
  const auto entries = load_names_registry(
      fixture_root() + "/r7/src/obs/include/ntco/obs/names.hpp");
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].ident, "kDemoEvent");
  EXPECT_EQ(entries[0].kind, "trace");
  EXPECT_EQ(entries[0].name, "demo.event");
  EXPECT_EQ(entries[0].fields, "`id`");
  EXPECT_EQ(entries[0].line, 10);
  EXPECT_EQ(entries[1].kind, "counter");
  EXPECT_EQ(entries[4].name, "demo.dup");
  const std::string md = names_markdown(entries);
  EXPECT_NE(md.find("demo.event"), std::string::npos);
  EXPECT_NE(md.find("demo.jobs"), std::string::npos);
}

// ---------------------------------------------------------------------------
// R8: include hygiene.

TEST(LintR8, FlagsStaleAndMissingIncludesAcrossFiles) {
  const Report r = scan({"src"}, "r8");
  const auto d = of_rule(r, Rule::R8);
  ASSERT_EQ(d.size(), 2u);
  for (const auto& diag : d) {
    if (diag.fingerprint.find("|stale:") != std::string::npos) {
      EXPECT_NE(diag.file.find("stale_user"), std::string::npos) << diag.file;
      EXPECT_EQ(diag.line, 2);
    } else {
      EXPECT_NE(diag.fingerprint.find("|missing:ntco/app/widget.hpp"),
                std::string::npos)
          << diag.fingerprint;
      EXPECT_NE(diag.file.find("missing_user"), std::string::npos)
          << diag.file;
      EXPECT_EQ(diag.line, 6);
    }
  }
  // clean_user (direct include + use), fwd_user (namespace-scope forward
  // declaration), gadget.cpp (associated-header re-export), and tuned_user
  // (digit separator + u8 literal in the header) all pass.
  EXPECT_EQ(r.diagnostics.size(), 2u);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rules, "R8");
}

// ---------------------------------------------------------------------------
// R9: kernel-handler copy-capture audit. Handler size is checked by the
// compiler instead (tests/compile_fail).

TEST(LintR9, FlagsCopyCaptures) {
  const Report r = scan({"r9_violation.cpp"});
  const auto d = of_rule(r, Rule::R9);
  ASSERT_EQ(d.size(), 2u);
  int copies = 0;
  for (const auto& diag : d)
    if (diag.fingerprint.find("|copy:") != std::string::npos) ++copies;
  EXPECT_EQ(copies, 2);  // plain-copied string + vector at line 8
  EXPECT_TRUE(has_line(d, 8));
  EXPECT_EQ(r.diagnostics.size(), d.size()) << "no other rules should fire";
}

TEST(LintR9, MovesReferencesAndScalarsPass) {
  const Report r = scan({"r9_clean.cpp"});
  EXPECT_TRUE(r.diagnostics.empty())
      << "first: " << (r.diagnostics.empty() ? "" : r.diagnostics[0].message);
}

TEST(LintR9, OneDirectiveAbsorbsAllFindingsOnTheCallLine) {
  const Report r = scan({"r9_suppressed.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_TRUE(r.stale_suppressions.empty());
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rules, "R9");
}

// ---------------------------------------------------------------------------
// Stripper: raw strings with non-empty delimiters.

TEST(LintStrip, RawStringDelimitersBlankContentAndRecover) {
  const Report r = scan({"rawstring.cpp"});
  const auto d = of_rule(r, Rule::R1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(has_line(d, 14)) << "only the code after the raw strings";
  EXPECT_EQ(r.diagnostics.size(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptance probes against the real repo config: the two deliberate
// regressions named in the issue must fail the gate.

TEST(LintAcceptance, TypoedMetricNameFailsAgainstRealRegistry) {
  Config cfg = default_config(NTCO_LINT_REPO_ROOT);
  Report rep;
  analyze_source(cfg, "src/sched/src/typo_probe.cpp",
                 "void f(M& m) { m.counter(\"sched.jbos.planned\").add(); }\n",
                 rep);
  const auto d = of_rule(rep, Rule::R7);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_NE(d[0].fingerprint.find("name:sched.jbos.planned"),
            std::string::npos);
}

TEST(LintAcceptance, HotpathGrowthInKernelFails) {
  Config cfg = default_config(NTCO_LINT_REPO_ROOT);
  ASSERT_FALSE(cfg.hotpath_files.empty())
      << "tools/lint_hotpath.txt must seed the hot file list";
  Report rep;
  analyze_source(cfg, "src/sim/include/ntco/sim/simulator.hpp",
                 "void f(std::vector<int>& v) { v.push_back(1); }\n", rep);
  EXPECT_EQ(of_rule(rep, Rule::R6).size(), 1u);
}

// ---------------------------------------------------------------------------
// Scan roots.

TEST(LintRun, MissingScanRootIsAnError) {
  // A mistyped root would otherwise scan zero files and report a clean
  // tree, silently switching every rule off.
  EXPECT_THROW((void)scan({"no_such_dir"}), std::runtime_error);
  EXPECT_THROW((void)scan({"r1_clean.cpp", "no_such_file.cpp"}),
               std::runtime_error);
  Config cfg = default_config(fixture_root() + "/no_such_root");
  EXPECT_THROW((void)run(cfg), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(LintReport, JsonCarriesCountsDiagnosticsAndSuppressions) {
  const Report viol = scan({"r2_violation.cpp", "suppressed.cpp"});
  const std::string json = to_json(viol);
  EXPECT_NE(json.find("\"diagnostics_total\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"suppressions\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"R2\""), std::string::npos);
  EXPECT_NE(json.find("order-insensitive"), std::string::npos);
}

TEST(LintReport, SarifCarriesRulesResultsAndLocations) {
  const Report r = scan({"r6_violation.cpp"});
  const std::string s = to_sarif(r);
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"ntco-lint\""), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"R6\""), std::string::npos);
  EXPECT_NE(s.find("\"level\": \"error\""), std::string::npos);
  EXPECT_EQ(s.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(s.find("r6_violation.cpp"), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(s.find("partialFingerprints"), std::string::npos);
}

TEST(LintReport, RepoTreeIsCleanUnderDefaultConfig) {
  // The real gate is the LintClean ctest (which runs the CLI with
  // --fail-stale); this is the same assertion in-process so a violation
  // shows up with gtest context too. NTCO_LINT_REPO_ROOT points
  // at the source tree.
  Config cfg = default_config(NTCO_LINT_REPO_ROOT);
  const Report r = run(cfg);
  EXPECT_GT(r.files_scanned, 100u);
  for (const auto& d : r.diagnostics)
    ADD_FAILURE() << d.file << ":" << d.line << ": [" << rule_name(d.rule)
                  << "] " << d.message;
  for (const auto& s : r.suppressions)
    EXPECT_FALSE(s.reason.empty())
        << s.file << ":" << s.line << " suppression without reason";
}

}  // namespace
}  // namespace ntco::lint
