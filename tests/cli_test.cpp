//===- tests/cli_test.cpp - Shared command-line option tests --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Covers every registration kind in cli::OptionSet (src/cli/Options.h)
// plus the vocabulary helpers the tools share (prefetcher flags,
// generated token lists), including the strict error paths that exit
// the process.
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"

#include "engine/ExperimentSpec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace hds;
using namespace hds::cli;

namespace {

/// Runs \p Set.parse over \p Args as if they were argv[1..]; argv[0] is
/// a dummy binary name, matching how the tools call it.
void parseArgs(const OptionSet &Set, std::vector<std::string> Args) {
  std::vector<char *> Argv;
  static std::string Binary = "test-tool";
  Argv.push_back(Binary.data());
  for (std::string &Arg : Args)
    Argv.push_back(Arg.data());
  Set.parse(static_cast<int>(Argv.size()), Argv.data());
}

/// Escapes the POSIX regex metacharacters in \p Text for EXPECT_EXIT.
std::string regexQuote(const std::string &Text) {
  std::string Out;
  for (const char C : Text) {
    if (std::string(".[]{}()\\*+?^$|").find(C) != std::string::npos)
      Out += '\\';
    Out += C;
  }
  return Out;
}

TEST(OptionSet, EveryRegistrationKindParses) {
  bool Flag = false;
  std::string Str;
  std::vector<std::string> List;
  std::string PairA, PairB, Operand;
  uint64_t U64 = 0;
  unsigned Uns = 0, AtLeastOne = 0;
  double Positive = 0.0, NonNegative = -1.0;
  core::RunMode Mode = core::RunMode::Original;

  bool UsageCalled = false;
  OptionSet Set([&UsageCalled] { UsageCalled = true; });
  Set.flag("--flag", Flag)
      .str("--str", Str)
      .strList("--list", List)
      .strPair("--pair", PairA, PairB)
      .u64("--u64", U64)
      .uns("--uns", Uns)
      .unsAtLeastOne("--at-least-one", AtLeastOne)
      .positiveDouble("--positive", Positive)
      .nonNegativeDouble("--nonneg", NonNegative)
      .runMode("--mode", Mode)
      .operand(Operand);

  parseArgs(Set, {"--flag", "--str", "hello", "--list", "a", "--list", "b",
                  "--pair", "left", "right", "--u64", "18446744073709551615",
                  "--at-least-one", "4096", "--uns", "7", "--positive",
                  "2.25", "--nonneg", "0", "trace.txt", "--mode", "dynpref"});

  EXPECT_FALSE(UsageCalled);
  EXPECT_TRUE(Flag);
  EXPECT_EQ(Str, "hello");
  EXPECT_EQ(List, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(PairA, "left");
  EXPECT_EQ(PairB, "right");
  EXPECT_EQ(U64, 18446744073709551615ull);
  EXPECT_EQ(Uns, 7u);
  EXPECT_EQ(AtLeastOne, 4096u);
  EXPECT_DOUBLE_EQ(Positive, 2.25);
  EXPECT_DOUBLE_EQ(NonNegative, 0.0);
  EXPECT_EQ(Mode, core::RunMode::DynamicPrefetch);
  EXPECT_EQ(Operand, "trace.txt");
}

TEST(OptionSet, UnknownOptionAndMissingOperandHitUsage) {
  bool Flag = false;
  std::string Str;
  unsigned UsageCalls = 0;
  OptionSet Set([&UsageCalls] { ++UsageCalls; });
  Set.flag("--flag", Flag).str("--str", Str);

  parseArgs(Set, {"--bogus"});
  EXPECT_EQ(UsageCalls, 1u);
  // Without an operand() registration a bare argument is unknown too.
  parseArgs(Set, {"trace.txt"});
  EXPECT_EQ(UsageCalls, 2u);
  // The operand for --str runs off the end of argv.
  parseArgs(Set, {"--str"});
  EXPECT_EQ(UsageCalls, 3u);
  // An unparsable run-mode token also routes through usage.
  core::RunMode Mode = core::RunMode::Original;
  Set.runMode("--mode", Mode);
  parseArgs(Set, {"--mode", "spicy"});
  EXPECT_EQ(UsageCalls, 4u);
}

TEST(OptionSetDeathTest, StrictNumericOptionsExitWithLegacyMessages) {
  double Positive = 0.0, NonNegative = 0.0;
  unsigned Repeat = 0;
  OptionSet Set([] {});
  Set.positiveDouble("--scale", Positive)
      .nonNegativeDouble("--threshold", NonNegative)
      .unsAtLeastOne("--repeat", Repeat);

  EXPECT_EXIT(parseArgs(Set, {"--scale", "0"}),
              testing::ExitedWithCode(2),
              "error: invalid --scale '0' \\(need a finite number > 0\\)");
  // hds_run --scale once read these with atof: "-1" ran without end,
  // and "abc" or "inf" printed "-nan cycles/access" and exited 0.
  for (const char *Bad : {"1.5x", "-1", "abc", "inf", "nan", "1e400"})
    EXPECT_EXIT(parseArgs(Set, {"--scale", Bad}), testing::ExitedWithCode(2),
                "error: invalid --scale '" + regexQuote(Bad) +
                    "' \\(need a finite number > 0\\)")
        << Bad;
  EXPECT_EXIT(parseArgs(Set, {"--threshold", "-1"}),
              testing::ExitedWithCode(2),
              "error: invalid --threshold '-1' \\(need a number >= 0\\)");
  EXPECT_EXIT(parseArgs(Set, {"--repeat", "0"}),
              testing::ExitedWithCode(2), "error: --repeat must be >= 1");
}

TEST(OptionSetDeathTest, IntegerOptionsRejectSignsGarbageAndOverflow) {
  uint64_t Seeds = 0;
  unsigned HeadLength = 0, Jobs = 0, Repeat = 0;
  OptionSet Set([] {});
  // --jobs carries hds_matrix's cap, so an oversized value is refused
  // while parsing, before any thread is started.
  Set.u64("--seeds", Seeds)
      .unsAtLeastOne("--headlen", HeadLength)
      .uns("--jobs", Jobs, 256)
      .unsAtLeastOne("--repeat", Repeat);

  // strtoull used to wrap "-1" to 2^64-1 (a std::bad_alloc downstream)
  // and read "abc" / "8x" as 0 / 8.
  const std::vector<std::vector<std::string>> Bad = {
      {"--seeds", "-1"},       {"--seeds", "abc"},
      {"--seeds", ""},         {"--seeds", "+3"},
      {"--seeds", " 3"},       {"--seeds", "18446744073709551616"},
      {"--headlen", "4294967296"}, {"--jobs", "-2"},
      {"--jobs", "8x"},        {"--jobs", "100000"},
      {"--repeat", "-1"},      {"--repeat", "2.5"}};
  for (const std::vector<std::string> &Args : Bad)
    EXPECT_EXIT(parseArgs(Set, Args), testing::ExitedWithCode(2),
                "error: invalid " + Args[0] + " '" + regexQuote(Args[1]) +
                    "' \\(need an integer in \\[[01], [0-9]+\\]\\)")
        << Args[0] << " " << Args[1];
  // hds_run --headlen 0 once scanned every clause and matched nothing,
  // and hds_fuzz failed every seed's DFSM oracle.
  EXPECT_EXIT(parseArgs(Set, {"--headlen", "0"}), testing::ExitedWithCode(2),
              "error: --headlen must be >= 1");

  parseArgs(Set, {"--seeds", "007", "--headlen", "4294967295", "--jobs", "0",
                  "--repeat", "3"});
  EXPECT_EQ(Seeds, 7u);
  EXPECT_EQ(HeadLength, 4294967295u);
  EXPECT_EQ(Jobs, 0u);
  EXPECT_EQ(Repeat, 3u);
  parseArgs(Set, {"--jobs", "256"});
  EXPECT_EQ(Jobs, 256u);
}

//===----------------------------------------------------------------------===//
// Vocabulary helpers
//===----------------------------------------------------------------------===//

TEST(CliVocabulary, PrefetcherFlagsCoverTheRoster) {
  prefetch::PrefetcherSelection Selection;
  OptionSet Set([] { FAIL() << "usage must not fire"; });
  addPrefetcherFlags(Set, Selection);

  parseArgs(Set, {"--stride", "--pair"});
  EXPECT_TRUE(Selection.has(prefetch::Prefetcher::Stride));
  EXPECT_TRUE(Selection.has(prefetch::Prefetcher::PairTable));
  EXPECT_FALSE(Selection.has(prefetch::Prefetcher::Markov));
  EXPECT_EQ(Selection.token(), "stride+pair");

  parseArgs(Set, {"--markov"});
  EXPECT_EQ(Selection.count(), prefetch::PrefetcherSelection::NumKinds);
}

TEST(CliVocabularyDeathTest, RemovedDuelSpellingsAreUsageErrors) {
  // hds_run --duel: an unknown flag, so it reaches the tool's usage
  // handler, which (like hds_run's) prints the usage and exits 1.
  prefetch::PrefetcherSelection Selection;
  OptionSet Set([] {
    std::fprintf(stderr, "usage: test-tool\n");
    std::exit(1);
  });
  addPrefetcherFlags(Set, Selection);
  EXPECT_EXIT(parseArgs(Set, {"--duel"}), testing::ExitedWithCode(1),
              "usage: test-tool");

  // hds_matrix --filter prefetcher=duel: an unknown prefetcher, which
  // hds_matrix prints as "error: ..." and exits 2 on.
  std::vector<engine::ExperimentSpec> Specs = engine::defaultMatrix(0.02);
  const size_t Before = Specs.size();
  std::string Error;
  EXPECT_FALSE(engine::applyFilters(Specs, {"prefetcher=duel"}, &Error));
  EXPECT_EQ(Error, "unknown prefetcher 'duel' (expected "
                   "none|stride|markov|pair)");
  EXPECT_EQ(Specs.size(), Before);
}

TEST(CliVocabulary, UsageFragmentsComeFromSharedTokenLists) {
  EXPECT_EQ(prefetcherFlagsUsage(), " [--stride] [--markov] [--pair]");
  EXPECT_EQ(core::runModeTokenList(),
            "original|base|prof|hds|nopref|seqpref|dynpref");
  // The filter help every tool prints must name the spec axes (the
  // usage-parity ctest greps tool output for the same strings).
  const std::string Help = engine::filterHelp();
  EXPECT_NE(Help.find("prefetcher=<none|stride|markov|pair>"),
            std::string::npos);
  EXPECT_EQ(Help.find("tuning="), std::string::npos);
  EXPECT_NE(Help.find("mode=<original|base|prof|hds|nopref|seqpref|dynpref>"),
            std::string::npos);
}

} // namespace
