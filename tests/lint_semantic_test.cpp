//===- tests/lint_semantic_test.cpp - semantic lint engine tests ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for the semantic (cross-TU) half of hds_lint: E1 exhaustive
// dispatch, STALE suppression auditing and the H1 symbol table.
// Sources are supplied inline or from tests/lint_fixtures/ with virtual
// display paths, so path-scoped behavior matches the real tree.
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"
#include "lint/Rules.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

std::string dump(const std::vector<Finding> &Fs) {
  std::string S;
  for (const Finding &F : Fs)
    S += formatFinding(F) + "\n";
  return S;
}

int countRule(const std::vector<Finding> &Fs, const std::string &Id) {
  int N = 0;
  for (const Finding &F : Fs)
    if (F.RuleId == Id)
      ++N;
  return N;
}

std::vector<Finding> lintSources(
    const std::vector<std::pair<std::string, std::string>> &Sources,
    const LintOptions &Opts = LintOptions()) {
  std::vector<LexedFile> Files;
  for (const auto &[Path, Text] : Sources)
    Files.push_back(lexSource(Path, Text));
  return runLint(Files, Opts);
}

//===----------------------------------------------------------------------===//
// E1: exhaustive dispatch
//===----------------------------------------------------------------------===//

TEST(LintE1, PositiveFixtureFires) {
  auto Fs = lintSources(
      {{"src/obs/e1_positive.cpp", readFixture("e1_positive.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 3) << dump(Fs);
}

TEST(LintE1, SuppressedFixtureIsClean) {
  auto Fs = lintSources(
      {{"src/obs/e1_suppressed.cpp", readFixture("e1_suppressed.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, EnumDefinitionCrossesFiles) {
  const char *Header = R"(
// hds-exhaustive
enum class Kind { A = 0, B = 1 };
)";
  const char *User = R"(
enum class Kind;
int pick(Kind K) {
  switch (K) {
  case Kind::A:
    return 0;
  }
  return -1;
}
)";
  auto Fs = lintSources({{"src/obs/Kind.h", Header},
                         {"src/obs/pick.cpp", User}});
  ASSERT_EQ(countRule(Fs, "E1"), 1) << dump(Fs);
  for (const Finding &F : Fs)
    if (F.RuleId == "E1") {
      EXPECT_NE(F.Message.find("B"), std::string::npos);
    }
}

TEST(LintE1, ClassScopeFixtureFires) {
  auto Fs = lintSources({{"src/prefetch/e1_class_scope.cpp",
                          readFixture("e1_class_scope.cpp")}});
  EXPECT_EQ(countRule(Fs, "E1"), 2) << dump(Fs);
}

TEST(LintE1, BareLabelsInsideOwningClassCount) {
  const char *Src = R"(
struct Widget {
  // hds-exhaustive
  enum State { Off = 0, On = 1 };
  bool lit(State S) const {
    switch (S) {
    case Off:
      return false;
    case On:
      return true;
    }
    return false;
  }
};
)";
  auto Fs = lintSources({{"src/obs/widget.cpp", Src}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, SameNameEnumIsNotMisattributed) {
  // The JsonValue regression: a switch over an unrelated enum that also
  // happens to be called `Kind` must not be measured against the marked
  // one.  Membership, not the bare name, decides attribution.
  const char *Header = R"(
struct Engine {
  // hds-exhaustive
  enum Kind { Stride = 0, Markov = 1 };
};
)";
  const char *User = R"(
enum class Kind { Number = 0, Text = 1 };
const char *token(Kind K) {
  switch (K) {
  case Kind::Number:
    return "number";
  default:
    return "text";
  }
}
)";
  auto Fs = lintSources(
      {{"src/prefetch/Engine.h", Header}, {"src/engine/json.cpp", User}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

TEST(LintE1, UnmarkedEnumIsIgnored) {
  const char *Src = R"(
enum class Kind { A = 0, B = 1 };
int pick(Kind K) {
  switch (K) {
  case Kind::A:
    return 0;
  default:
    return -1;
  }
}
)";
  auto Fs = lintSources({{"src/obs/unmarked.cpp", Src}});
  EXPECT_EQ(countRule(Fs, "E1"), 0) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// STALE: suppression audit
//===----------------------------------------------------------------------===//

TEST(LintStale, UnusedSuppressionIsReportedOnlyWhenAsked) {
  const char *Src = R"(
// hds-lint: ordered-ok(nothing here iterates anything)
int answer() { return 42; }
)";
  auto Quiet = lintSources({{"src/core/quiet.cpp", Src}});
  EXPECT_EQ(countRule(Quiet, "STALE"), 0) << dump(Quiet);

  LintOptions Opts;
  Opts.ReportStale = true;
  auto Audited = lintSources({{"src/core/quiet.cpp", Src}}, Opts);
  ASSERT_EQ(countRule(Audited, "STALE"), 1) << dump(Audited);
  EXPECT_NE(dump(Audited).find("ordered-ok"), std::string::npos);
}

TEST(LintStale, UsedSuppressionIsNotStale) {
  const char *Src = R"(
#include <unordered_map>
void walk(const std::unordered_map<int, int> &Table) {
  // hds-lint: ordered-ok(sums are order-independent)
  for (const auto &KV : Table)
    (void)KV;
}
)";
  LintOptions Opts;
  Opts.ReportStale = true;
  auto Fs = lintSources({{"src/core/used.cpp", Src}}, Opts);
  EXPECT_EQ(countRule(Fs, "D2"), 0) << dump(Fs);
  EXPECT_EQ(countRule(Fs, "STALE"), 0) << dump(Fs);
}

//===----------------------------------------------------------------------===//
// H1 symbol table: the project's table of symbol -> providing header
//===----------------------------------------------------------------------===//

TEST(LintProjectModel, GeneratedTableDrivesH1) {
  // A header using std::optional without <optional>: the table entry for
  // optional must catch it, and including the header must silence it.
  const char *Header = R"(#pragma once
inline int orZero(int *P) { return P ? *P : 0; }
inline std::optional<int> maybe(int *P);
)";
  LintOptions Opts;
  Opts.OnlyRules = {"H1"};
  auto Fs = lintSources({{"src/support/Maybe.h", Header}}, Opts);
  ASSERT_EQ(countRule(Fs, "H1"), 1) << dump(Fs);
  EXPECT_NE(Fs.front().Message.find("optional"), std::string::npos);

  const char *Fixed = R"(#pragma once
#include <optional>
inline int orZero(int *P) { return P ? *P : 0; }
inline std::optional<int> maybe(int *P);
)";
  auto Clean = lintSources({{"src/support/Maybe.h", Fixed}}, Opts);
  EXPECT_EQ(countRule(Clean, "H1"), 0) << dump(Clean);
}

} // namespace
