//===- tests/lint_test.cpp - hds_lint rule engine tests ---------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Drives the hds_lint rule engine in-process over the fixture files in
// tests/lint_fixtures/.  Each rule has a positive fixture (the rule must
// fire) and a suppressed fixture (a well-formed `// hds-lint: <tag>(<why>)`
// note must silence it).  Fixtures are lexed with *virtual* display paths
// so the path-scoped rule (D1 in src/) behaves exactly as it does on the
// real tree.  The STALE audit runs on inline sources.
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"
#include "lint/Rules.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace hds::lint;

namespace {

std::string readFixture(const std::string &Name) {
  const std::string Path = std::string(HDS_LINT_FIXTURE_DIR) + "/" + Name;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open fixture " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Lexes fixture \p Name as if it lived at \p DisplayPath and lints it in
/// isolation.
std::vector<Finding> lintFixture(const std::string &Name,
                                 const std::string &DisplayPath) {
  std::vector<hds::lint::LexedFile> Files;
  Files.push_back(lexSource(DisplayPath, readFixture(Name)));
  return runLint(Files);
}

/// Histogram of finding rule ids.
std::map<std::string, int> idCounts(const std::vector<Finding> &Fs) {
  std::map<std::string, int> Counts;
  for (const Finding &F : Fs)
    ++Counts[F.RuleId];
  return Counts;
}

std::string dump(const std::vector<Finding> &Fs) {
  std::string S;
  for (const Finding &F : Fs)
    S += formatFinding(F) + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// D1: ambient nondeterminism
//===----------------------------------------------------------------------===//

TEST(LintD1Test, FiresOnRandomClockAndEnvironment) {
  auto Fs = lintFixture("d1_positive.cpp", "src/fixture/d1_positive.cpp");
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D1"], 4) << dump(Fs); // rand, mt19937, getenv, time
  EXPECT_EQ(static_cast<int>(Fs.size()), Counts["D1"]) << dump(Fs);
}

TEST(LintD1Test, DoesNotFireOutsideSrc) {
  auto Fs = lintFixture("d1_positive.cpp", "tools/fixture/d1_positive.cpp");
  EXPECT_EQ(idCounts(Fs)["D1"], 0) << dump(Fs);
}

TEST(LintD1Test, SuppressionSilencesFindings) {
  auto Fs = lintFixture("d1_suppressed.cpp", "src/fixture/d1_suppressed.cpp");
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

TEST(LintD1Test, MethodCallsAreNotFreeCalls) {
  // A member function named `time` is not the libc call.
  auto File = lexSource("src/fixture/inline.cpp",
                        "int f(Clock &C) { return C.time() + Obj->rand(); }");
  auto Fs = runLint({File});
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

TEST(LintD1Test, StringsAndCommentsAreIgnored) {
  auto File = lexSource("src/fixture/inline.cpp",
                        "// rand() in a comment\n"
                        "const char *S = \"rand() time() getenv()\";\n");
  auto Fs = runLint({File});
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// D2: unordered iteration
//===----------------------------------------------------------------------===//

TEST(LintD2Test, FiresOnRangeForAndIteratorWalk) {
  auto Fs = lintFixture("d2_positive.cpp", "src/fixture/d2_positive.cpp");
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D2"], 2) << dump(Fs);
}

TEST(LintD2Test, OrderedOkSilencesFindings) {
  auto Fs = lintFixture("d2_suppressed.cpp", "src/fixture/d2_suppressed.cpp");
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

TEST(LintD2Test, TracksDeclarationsAcrossIncludes) {
  // Header declares the unordered member; the .cpp iterates it.  The
  // cross-file index must connect the two through the quoted include.
  auto Header = lexSource("src/fixture/Store.h",
                          "#ifndef HDS_FIXTURE_STORE_H\n"
                          "#define HDS_FIXTURE_STORE_H\n"
                          "#include <unordered_map>\n"
                          "inline std::unordered_map<int, int> Table;\n"
                          "#endif // HDS_FIXTURE_STORE_H\n");
  auto Impl = lexSource("src/fixture/Store.cpp",
                        "#include \"fixture/Store.h\"\n"
                        "int sum() {\n"
                        "  int S = 0;\n"
                        "  for (auto &KV : Table) S += KV.second;\n"
                        "  return S;\n"
                        "}\n");
  auto Fs = runLint({Header, Impl});
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D2"], 1) << dump(Fs);
  ASSERT_FALSE(Fs.empty());
  EXPECT_EQ(Fs.front().Path, "src/fixture/Store.cpp");
}

TEST(LintD2Test, ClassicIndexLoopIsFine) {
  auto File = lexSource("src/fixture/inline.cpp",
                        "#include <unordered_map>\n"
                        "std::unordered_map<int, int> M;\n"
                        "int f(int K) { return M.count(K) ? M.at(K) : 0; }\n");
  auto Fs = runLint({File});
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// D3: pointer-keyed ordering
//===----------------------------------------------------------------------===//

TEST(LintD3Test, FiresOnPointerKeyedMapAndComparator) {
  auto Fs = lintFixture("d3_positive.cpp", "src/fixture/d3_positive.cpp");
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D3"], 2) << dump(Fs);
}

TEST(LintD3Test, PointerKeyOkSilencesFindings) {
  auto Fs = lintFixture("d3_suppressed.cpp", "src/fixture/d3_suppressed.cpp");
  EXPECT_TRUE(Fs.empty()) << dump(Fs);
}

TEST(LintD3Test, ValueKeyedMapIsFine) {
  auto File = lexSource("src/fixture/inline.cpp",
                        "#include <map>\n"
                        "std::map<int, int> ByValue;\n"
                        "std::map<const char *, int> ByName; // still flagged\n");
  auto Fs = runLint({File});
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D3"], 1) << dump(Fs); // only the pointer-keyed one
}

//===----------------------------------------------------------------------===//
// SUP: suppression hygiene
//===----------------------------------------------------------------------===//

TEST(LintSupTest, MalformedSuppressionsAreReportedAndIgnored) {
  auto Fs = lintFixture("sup_bad.cpp", "src/fixture/sup_bad.cpp");
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["SUP"], 2) << dump(Fs); // missing reason, unknown tag
  EXPECT_EQ(Counts["D2"], 2) << dump(Fs);  // neither note suppresses
}

TEST(LintSupTest, SuppressionOnlyCoversTheNextLine) {
  auto File = lexSource("src/fixture/inline.cpp",
                        "// hds-lint: randomness-ok(covers only line 2)\n"
                        "int A = 0;\n"
                        "int B = rand();\n");
  auto Fs = runLint({File});
  auto Counts = idCounts(Fs);
  EXPECT_EQ(Counts["D1"], 1) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// STALE: suppression audit
//===----------------------------------------------------------------------===//

TEST(LintStale, UnusedSuppressionIsAlwaysReported) {
  const auto File =
      lexSource("src/core/quiet.cpp",
                "// hds-lint: ordered-ok(nothing here iterates anything)\n"
                "int answer() { return 42; }\n");
  auto Fs = runLint({File});
  ASSERT_EQ(idCounts(Fs)["STALE"], 1) << dump(Fs);
  EXPECT_EQ(Fs.size(), 1u) << dump(Fs);
  EXPECT_NE(dump(Fs).find("ordered-ok"), std::string::npos);
}

TEST(LintStale, UsedSuppressionIsNotStale) {
  const auto File =
      lexSource("src/core/used.cpp",
                "#include <unordered_map>\n"
                "void walk(const std::unordered_map<int, int> &Table) {\n"
                "  // hds-lint: ordered-ok(sums are order-independent)\n"
                "  for (const auto &KV : Table)\n"
                "    (void)KV;\n"
                "}\n");
  auto Fs = runLint({File});
  EXPECT_EQ(idCounts(Fs)["D2"], 0) << dump(Fs);
  EXPECT_EQ(idCounts(Fs)["STALE"], 0) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// Driver-level behaviour
//===----------------------------------------------------------------------===//

TEST(LintDriverTest, FindingsAreSortedByPathLineRule) {
  std::vector<hds::lint::LexedFile> Files;
  Files.push_back(lexSource("src/fixture/b.cpp", "int X = rand();\n"));
  Files.push_back(lexSource("src/fixture/a.cpp",
                            "int Y = rand();\nint Z = rand();\n"));
  auto Fs = runLint(Files);
  ASSERT_EQ(Fs.size(), 3u) << dump(Fs);
  EXPECT_EQ(Fs[0].Path, "src/fixture/a.cpp");
  EXPECT_EQ(Fs[0].Line, 1u);
  EXPECT_EQ(Fs[1].Line, 2u);
  EXPECT_EQ(Fs[2].Path, "src/fixture/b.cpp");
}

TEST(LintDriverTest, FormatIncludesPathLineRuleAndHint) {
  Finding F{"D1", "src/x.cpp", 12, "message text", "hint text"};
  const std::string S = formatFinding(F);
  EXPECT_NE(S.find("src/x.cpp:12: [D1] message text"), std::string::npos)
      << S;
  EXPECT_NE(S.find("fix: hint text"), std::string::npos) << S;
}

TEST(LintDriverTest, EveryRuleHasCatalogEntryWithSummary) {
  bool SawSup = false;
  for (const RuleInfo &R : ruleCatalog()) {
    EXPECT_NE(R.Id, nullptr);
    EXPECT_NE(R.Summary, nullptr);
    std::string Id = R.Id;
    if (Id == "SUP" || Id == "STALE") {
      SawSup |= Id == "SUP";
      EXPECT_EQ(R.Tag, nullptr) << Id << " must not be suppressible";
    } else {
      EXPECT_NE(R.Tag, nullptr) << Id;
    }
  }
  EXPECT_TRUE(SawSup);
}

} // namespace
