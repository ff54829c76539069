//===- tests/cli_test.cpp - Shared command-line option tests --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Covers every registration kind in cli::OptionSet (src/cli/Options.h)
// plus the vocabulary helpers the tools share (prefetcher flags, the
// --adaptive tuning flag, generated token lists), including the strict
// error paths that exit the process.
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
  std::string PairA, PairB;
  uint64_t U64 = 0;
  uint32_t U32 = 0;
  unsigned Uns = 0;
  double Loose = 0.0, Positive = 0.0, NonNegative = -1.0;
  core::RunMode Mode = core::RunMode::Original;

  bool UsageCalled = false;
  OptionSet Set([&UsageCalled] { UsageCalled = true; });
  Set.flag("--flag", Flag)
      .str("--str", Str)
      .strList("--list", List)
      .strPair("--pair", PairA, PairB)
      .u64("--u64", U64)
      .u32("--u32", U32)
      .uns("--uns", Uns)
      .looseDouble("--loose", Loose)
      .positiveDouble("--positive", Positive)
      .nonNegativeDouble("--nonneg", NonNegative)
      .runMode("--mode", Mode);

  parseArgs(Set, {"--flag", "--str", "hello", "--list", "a", "--list", "b",
                  "--pair", "left", "right", "--u64", "18446744073709551615",
                  "--u32", "4096", "--uns", "7", "--loose", "0.5",
                  "--positive", "2.25", "--nonneg", "0", "--mode", "dynpref"});

  EXPECT_FALSE(UsageCalled);
  EXPECT_TRUE(Flag);
  EXPECT_EQ(Str, "hello");
  EXPECT_EQ(List, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(PairA, "left");
  EXPECT_EQ(PairB, "right");
  EXPECT_EQ(U64, 18446744073709551615ull);
  EXPECT_EQ(U32, 4096u);
  EXPECT_EQ(Uns, 7u);
  EXPECT_DOUBLE_EQ(Loose, 0.5);
  EXPECT_DOUBLE_EQ(Positive, 2.25);
  EXPECT_DOUBLE_EQ(NonNegative, 0.0);
  EXPECT_EQ(Mode, core::RunMode::DynamicPrefetch);
}

TEST(OptionSet, UnknownOptionAndMissingOperandHitUsage) {
  bool Flag = false;
  std::string Str;
  unsigned UsageCalls = 0;
  OptionSet Set([&UsageCalls] { ++UsageCalls; });
  Set.flag("--flag", Flag).str("--str", Str);

  parseArgs(Set, {"--bogus"});
  EXPECT_EQ(UsageCalls, 1u);
  // The operand for --str runs off the end of argv.
  parseArgs(Set, {"--str"});
  EXPECT_EQ(UsageCalls, 2u);
  // An unparsable run-mode token also routes through usage.
  core::RunMode Mode = core::RunMode::Original;
  Set.runMode("--mode", Mode);
  parseArgs(Set, {"--mode", "spicy"});
  EXPECT_EQ(UsageCalls, 3u);
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
  EXPECT_EXIT(parseArgs(Set, {"--scale", "1.5x"}),
              testing::ExitedWithCode(2),
              "error: invalid --scale '1.5x' \\(need a finite number > 0\\)");
  EXPECT_EXIT(parseArgs(Set, {"--threshold", "-1"}),
              testing::ExitedWithCode(2),
              "error: invalid --threshold '-1' \\(need a number >= 0\\)");
  EXPECT_EXIT(parseArgs(Set, {"--repeat", "0"}),
              testing::ExitedWithCode(2), "error: --repeat must be >= 1");
}

TEST(OptionSetDeathTest, IntegerOptionsRejectSignsGarbageAndOverflow) {
  uint64_t Seeds = 0;
  uint32_t HeadLength = 0;
  unsigned Jobs = 0, Repeat = 0;
  OptionSet Set([] {});
  // --jobs carries hds_matrix's cap, so an oversized value is refused
  // while parsing, before any thread is started.
  Set.u64("--seeds", Seeds)
      .u32("--headlen", HeadLength)
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

  parseArgs(Set, {"--markov", "--stream"});
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
                   "none|stride|markov|stream|pair)");
  EXPECT_EQ(Specs.size(), Before);
}

TEST(CliVocabulary, TunedFlagIsDefinedOnce) {
  EXPECT_STREQ(TunedFlag, "--adaptive");
  bool Tuned = false;
  OptionSet Set([] { FAIL() << "usage must not fire"; });
  addTunedFlag(Set, Tuned);
  parseArgs(Set, {"--adaptive"});
  EXPECT_TRUE(Tuned);
}

TEST(CliVocabulary, UsageFragmentsComeFromSharedTokenLists) {
  EXPECT_EQ(prefetcherFlagsUsage(),
            " [--stride] [--markov] [--stream] [--pair]");
  EXPECT_EQ(core::runModeTokenList(),
            "original|base|prof|hds|nopref|seqpref|dynpref");
  // The filter help every tool prints must name the spec axes (the
  // usage-parity ctest greps tool output for the same strings).
  const std::string Help = engine::filterHelp();
  EXPECT_NE(Help.find("prefetcher=<none|stride|markov|stream|pair>"),
            std::string::npos);
  EXPECT_NE(Help.find("tuning=<adaptive|fixed>"), std::string::npos);
  EXPECT_NE(Help.find("mode=<original|base|prof|hds|nopref|seqpref|dynpref>"),
            std::string::npos);
}

} // namespace
