//===- tests/analysis_test.cpp - Hot data stream analysis tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Coverage.h"
#include "analysis/DataRef.h"
#include "analysis/FastAnalyzer.h"
#include "analysis/PreciseAnalyzer.h"

#include "sequitur/Grammar.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace hds;
using namespace hds::analysis;
using hds::sequitur::Grammar;
using hds::sequitur::GrammarSnapshot;

namespace {

GrammarSnapshot snapshotOf(const std::string &Text) {
  Grammar G;
  for (char C : Text)
    G.append(static_cast<uint64_t>(static_cast<unsigned char>(C)));
  return G.snapshot();
}

std::string wordOf(const HotDataStream &Stream) {
  std::string Out;
  for (uint32_t S : Stream.Symbols)
    Out.push_back(static_cast<char>(S));
  return Out;
}

//===----------------------------------------------------------------------===//
// DataRefTable
//===----------------------------------------------------------------------===//

TEST(DataRefTableTest, InternIsStable) {
  DataRefTable T;
  const RefId A = T.intern({1, 100});
  const RefId B = T.intern({1, 200});
  const RefId C = T.intern({2, 100});
  EXPECT_NE(A, B);
  EXPECT_NE(A, C);
  EXPECT_NE(B, C);
  EXPECT_EQ(T.intern({1, 100}), A);
  EXPECT_EQ(T.size(), 3u);
}

TEST(DataRefTableTest, LookupAndReverse) {
  DataRefTable T;
  const RefId Id = T.intern({7, 0xABCD});
  EXPECT_EQ(T.lookup({7, 0xABCD}), Id);
  EXPECT_EQ(T.lookup({7, 0xABCE}), InvalidRefId);
  EXPECT_EQ(T.refOf(Id).Pc, 7u);
  EXPECT_EQ(T.refOf(Id).Addr, 0xABCDu);
}

TEST(DataRefTableTest, DenseIds) {
  DataRefTable T;
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_EQ(T.intern({I, I * 3}), RefId(I));
}

TEST(DataRefTableTest, ClearResets) {
  DataRefTable T;
  T.intern({1, 1});
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.lookup({1, 1}), InvalidRefId);
}

TEST(DataRefTableTest, ClearKeepsCapacityAndRestartsIds) {
  // The profiler clears the table every cycle: the buffers one cycle grew
  // stay for the next, and ids start again from 0 in first-seen order.
  DataRefTable T;
  for (uint64_t I = 0; I < 1000; ++I)
    T.intern({I, I * 64});
  const size_t Held = T.storeBytes();
  T.clear();
  EXPECT_EQ(T.storeBytes(), Held);
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.lookup({0, 0}), InvalidRefId);
  EXPECT_EQ(T.intern({999, 999 * 64}), 0u);
  EXPECT_EQ(T.intern({0, 0}), 1u);
  EXPECT_EQ(T.lookup({1, 64}), InvalidRefId);
  EXPECT_EQ(T.storeBytes(), Held);
}

TEST(DataRefTableTest, IdsFollowFirstSightAcrossIndexGrowths) {
  // 5000 references grow the index from 16 to 16384 slots; every id must
  // stay the order of first sight, whatever the interleaving of repeats.
  DataRefTable T;
  for (uint64_t I = 0; I < 5000; ++I) {
    const DataRef Ref{0x400000 + (I % 7) * 4, 0x10000000 + I * 64};
    EXPECT_EQ(T.intern(Ref), RefId(I));
    EXPECT_EQ(T.intern(DataRef{0x400000, 0x10000000}), 0u);
  }
  ASSERT_EQ(T.size(), 5000u);
  for (uint64_t I = 0; I < 5000; ++I) {
    const DataRef Ref{0x400000 + (I % 7) * 4, 0x10000000 + I * 64};
    EXPECT_EQ(T.lookup(Ref), RefId(I));
    EXPECT_EQ(T.refOf(RefId(I)), Ref);
  }
  EXPECT_EQ(T.lookup({0x400000, 0x10000000 + 5000 * 64}), InvalidRefId);
  EXPECT_EQ(T.lookup({0x400004, 0x10000000}), InvalidRefId);
}

TEST(DataRefTableTest, CopyKeepsIds) {
  DataRefTable T;
  for (uint64_t I = 0; I < 300; ++I)
    T.intern({I % 3, I * 8});
  const DataRefTable Copy = T;
  ASSERT_EQ(Copy.size(), 300u);
  for (uint64_t I = 0; I < 300; ++I)
    EXPECT_EQ(Copy.lookup({I % 3, I * 8}), RefId(I));
  T.intern({99, 99});
  EXPECT_EQ(Copy.lookup({99, 99}), InvalidRefId);
}

TEST(DataRefTableTest, StoreFootprint) {
  // Nothing before the first intern; then 16-byte references in id order
  // plus an index of 32-bit ids at load <= 1/2.  10000 references need
  // 32768 index slots; the reference vector grows by doubling to 16384.
  DataRefTable T;
  EXPECT_EQ(T.storeBytes(), 0u);
  for (uint64_t I = 0; I < 10000; ++I)
    T.intern({I, I});
  EXPECT_LE(T.storeBytes(), 16384u * 16 + 32768u * 4);
}

//===----------------------------------------------------------------------===//
// FastAnalyzer — the paper's worked example, locked down exactly
//===----------------------------------------------------------------------===//

TEST(FastAnalyzerTest, PaperTable1Exactly) {
  const GrammarSnapshot Snap = snapshotOf("abaabcabcabcabc");
  ASSERT_EQ(Snap.Rules.size(), 4u);

  AnalysisConfig Config;
  Config.MinLength = 2;
  Config.MaxLength = 7;
  Config.HeatThreshold = 8;
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);

  EXPECT_EQ(Result.TraceLength, 15u);

  // Identify rules by their expansions (S=whole, A=ab, B=abcabc, C=abc).
  uint32_t RuleA = ~0u, RuleB = ~0u, RuleC = ~0u;
  for (uint32_t R = 1; R < 4; ++R) {
    std::vector<uint64_t> Word = Snap.expand(R);
    std::string Text;
    for (uint64_t W : Word)
      Text.push_back(static_cast<char>(W));
    if (Text == "ab")
      RuleA = R;
    else if (Text == "abcabc")
      RuleB = R;
    else if (Text == "abc")
      RuleC = R;
  }
  ASSERT_NE(RuleA, ~0u);
  ASSERT_NE(RuleB, ~0u);
  ASSERT_NE(RuleC, ~0u);

  // Table 1 values.
  EXPECT_EQ(Result.PerRule[0].Length, 15u);
  EXPECT_EQ(Result.PerRule[0].Uses, 1u);
  EXPECT_EQ(Result.PerRule[0].ColdUses, 1u);
  EXPECT_EQ(Result.PerRule[0].Heat, 15u);
  EXPECT_FALSE(Result.PerRule[0].Hot); // "no, start"

  EXPECT_EQ(Result.PerRule[RuleA].Length, 2u);
  EXPECT_EQ(Result.PerRule[RuleA].Uses, 5u);
  EXPECT_EQ(Result.PerRule[RuleA].ColdUses, 1u);
  EXPECT_EQ(Result.PerRule[RuleA].Heat, 2u);
  EXPECT_FALSE(Result.PerRule[RuleA].Hot); // "no, cold"

  EXPECT_EQ(Result.PerRule[RuleB].Length, 6u);
  EXPECT_EQ(Result.PerRule[RuleB].Uses, 2u);
  EXPECT_EQ(Result.PerRule[RuleB].ColdUses, 2u);
  EXPECT_EQ(Result.PerRule[RuleB].Heat, 12u);
  EXPECT_TRUE(Result.PerRule[RuleB].Hot); // "yes"

  EXPECT_EQ(Result.PerRule[RuleC].Length, 3u);
  EXPECT_EQ(Result.PerRule[RuleC].Uses, 4u);
  EXPECT_EQ(Result.PerRule[RuleC].ColdUses, 0u);
  EXPECT_EQ(Result.PerRule[RuleC].Heat, 0u);
  EXPECT_FALSE(Result.PerRule[RuleC].Hot); // "no, cold"

  // One hot data stream: abcabc with heat 12 (80% of references).
  ASSERT_EQ(Result.Streams.size(), 1u);
  EXPECT_EQ(wordOf(Result.Streams[0]), "abcabc");
  EXPECT_EQ(Result.Streams[0].Heat, 12u);
  EXPECT_EQ(Result.Streams[0].Frequency, 2u);
  EXPECT_NEAR(Result.coverage(), 0.8, 1e-9);

  // Index numbering: parents before children.
  EXPECT_EQ(Result.PerRule[0].Index, 0u);
  EXPECT_LT(Result.PerRule[RuleB].Index, Result.PerRule[RuleC].Index);
  EXPECT_LT(Result.PerRule[RuleC].Index, Result.PerRule[RuleA].Index);
}

TEST(FastAnalyzerTest, EmptyTrace) {
  Grammar G;
  AnalysisConfig Config;
  const FastAnalysisResult Result = analyzeHotStreams(G.snapshot(), Config);
  EXPECT_TRUE(Result.Streams.empty());
  EXPECT_EQ(Result.TraceLength, 0u);
}

TEST(FastAnalyzerTest, StartRuleNeverReported) {
  // A trace that is one long repetition: the start rule itself is the
  // hottest thing, but must not be reported.
  const GrammarSnapshot Snap = snapshotOf("xy");
  AnalysisConfig Config;
  Config.MinLength = 1;
  Config.MaxLength = 100;
  Config.HeatThreshold = 1;
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  EXPECT_TRUE(Result.Streams.empty());
}

TEST(FastAnalyzerTest, LengthBoundsRespected) {
  const GrammarSnapshot Snap = snapshotOf("abcabcabcabcabcabc");
  AnalysisConfig Config;
  Config.HeatThreshold = 1;
  Config.MinLength = 4; // "abc" (len 3) is too short
  Config.MaxLength = 5; // "abcabc" (len 6) is too long
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  for (const HotDataStream &S : Result.Streams) {
    EXPECT_GE(S.length(), 4u);
    EXPECT_LE(S.length(), 5u);
  }
}

TEST(FastAnalyzerTest, HeatThresholdRespected) {
  const GrammarSnapshot Snap = snapshotOf("ababababXcdcd");
  AnalysisConfig Config;
  Config.MinLength = 2;
  Config.MaxLength = 10;
  Config.HeatThreshold = 5;
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  for (const HotDataStream &S : Result.Streams)
    EXPECT_GE(S.Heat, 5u);
  // "cd" repeats twice: heat 4 < 5, must be absent.
  for (const HotDataStream &S : Result.Streams)
    EXPECT_EQ(wordOf(S).find("cd"), std::string::npos);
}

TEST(FastAnalyzerTest, SubsumedRuleNotReportedTwice) {
  // In the worked example "abc" is fully subsumed by "abcabc": the fast
  // analysis must not double-report nested hot structure.
  const GrammarSnapshot Snap = snapshotOf("abaabcabcabcabc");
  AnalysisConfig Config{2, 7, 8};
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  EXPECT_EQ(Result.Streams.size(), 1u);
}

struct RandomAnalysisCase {
  uint64_t Seed;
  size_t Length;
  uint64_t Alphabet;
};

class FastAnalyzerPropertyTest
    : public ::testing::TestWithParam<RandomAnalysisCase> {};

TEST_P(FastAnalyzerPropertyTest, InvariantsHoldOnRandomTraces) {
  const RandomAnalysisCase &Case = GetParam();
  Rng R(Case.Seed);
  Grammar G;
  std::vector<uint32_t> Trace;
  for (size_t I = 0; I < Case.Length; ++I) {
    // Mix random symbols with bursts of a repeated motif so hot streams
    // exist.
    if (R.nextBool(0.5)) {
      for (uint32_t M = 0; M < 6; ++M) {
        Trace.push_back(1000 + M);
        G.append(1000 + M);
      }
    } else {
      const uint32_t T = static_cast<uint32_t>(R.nextBelow(Case.Alphabet));
      Trace.push_back(T);
      G.append(T);
    }
  }

  AnalysisConfig Config;
  Config.MinLength = 3;
  Config.MaxLength = 50;
  Config.HeatThreshold = Trace.size() / 20;
  const FastAnalysisResult Result = analyzeHotStreams(G.snapshot(), Config);

  EXPECT_EQ(Result.TraceLength, Trace.size());
  uint64_t TotalHeat = 0;
  for (const HotDataStream &S : Result.Streams) {
    // Every reported stream satisfies the configured bounds.
    EXPECT_GE(S.length(), Config.MinLength);
    EXPECT_LE(S.length(), Config.MaxLength);
    EXPECT_GE(S.Heat, Config.HeatThreshold);
    EXPECT_EQ(S.Heat, S.length() * S.Frequency);
    TotalHeat += S.Heat;

    // The stream's word actually occurs in the trace at least Frequency
    // times (non-overlapping) — heat is never an overcount.
    uint64_t Occurrences = 0;
    auto It = Trace.begin();
    while (true) {
      It = std::search(It, Trace.end(), S.Symbols.begin(), S.Symbols.end());
      if (It == Trace.end())
        break;
      ++Occurrences;
      It += static_cast<ptrdiff_t>(S.Symbols.size());
    }
    EXPECT_GE(Occurrences, S.Frequency);
  }
  // Cold-use accounting: total reported heat can never exceed the trace.
  EXPECT_LE(TotalHeat, Result.TraceLength);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, FastAnalyzerPropertyTest,
    ::testing::Values(RandomAnalysisCase{21, 500, 8},
                      RandomAnalysisCase{22, 1000, 4},
                      RandomAnalysisCase{23, 2000, 16},
                      RandomAnalysisCase{24, 5000, 32},
                      RandomAnalysisCase{25, 1000, 2},
                      RandomAnalysisCase{26, 3000, 64},
                      RandomAnalysisCase{27, 800, 8},
                      RandomAnalysisCase{28, 10000, 16}));

//===----------------------------------------------------------------------===//
// PreciseAnalyzer
//===----------------------------------------------------------------------===//

std::vector<uint32_t> toTrace(const std::string &Text) {
  return std::vector<uint32_t>(Text.begin(), Text.end());
}

TEST(PreciseAnalyzerTest, FindsTheObviousStream) {
  AnalysisConfig Config{3, 10, 12};
  const PreciseAnalysisResult Result =
      analyzeHotStreamsPrecisely(toTrace("abcXabcYabcZabcWabc"), Config);
  ASSERT_FALSE(Result.Streams.empty());
  EXPECT_EQ(wordOf(Result.Streams[0]), "abc");
  EXPECT_EQ(Result.Streams[0].Frequency, 5u);
  EXPECT_EQ(Result.Streams[0].Heat, 15u);
}

TEST(PreciseAnalyzerTest, NonOverlappingCounting) {
  // "aaaa" contains "aa" at 3 positions but only 2 non-overlapping.
  AnalysisConfig Config{2, 2, 4};
  const PreciseAnalysisResult Result =
      analyzeHotStreamsPrecisely(toTrace("aaaa"), Config);
  ASSERT_EQ(Result.Streams.size(), 1u);
  EXPECT_EQ(Result.Streams[0].Frequency, 2u);
}

TEST(PreciseAnalyzerTest, MaximalityFilter) {
  // "abcabc..." : "abc" repeats 6x (heat 18); substreams of equally
  // frequent longer streams are dropped, so "ab" (also 6x, heat 12) must
  // not be reported alongside it.
  AnalysisConfig Config{2, 3, 12};
  const PreciseAnalysisResult Result = analyzeHotStreamsPrecisely(
      toTrace("abcabcabcabcabcabc"), Config);
  bool HasAbc = false;
  for (const HotDataStream &S : Result.Streams) {
    if (wordOf(S) == "abc")
      HasAbc = true;
    EXPECT_NE(wordOf(S), "ab");
    EXPECT_NE(wordOf(S), "bc");
  }
  EXPECT_TRUE(HasAbc);
}

TEST(PreciseAnalyzerTest, EmptyAndShortTraces) {
  AnalysisConfig Config{2, 10, 2};
  EXPECT_TRUE(analyzeHotStreamsPrecisely({}, Config).Streams.empty());
  EXPECT_TRUE(analyzeHotStreamsPrecisely({1}, Config).Streams.empty());
}

TEST(PreciseAnalyzerTest, SortedHottestFirst) {
  AnalysisConfig Config{2, 6, 4};
  const PreciseAnalysisResult Result = analyzeHotStreamsPrecisely(
      toTrace("ababababababXcdcdY"), Config);
  for (size_t I = 1; I < Result.Streams.size(); ++I)
    EXPECT_GE(Result.Streams[I - 1].Heat, Result.Streams[I].Heat);
}

/// The precise analyzer is the reference: on traces where the fast
/// analyzer reports a stream, the precise one must find a stream of at
/// least that heat (the fast algorithm is an under-approximation of the
/// best available heat, never an over-approximation).
TEST(PreciseAnalyzerTest, FastNeverBeatsPrecise) {
  Rng R(77);
  for (int Round = 0; Round < 10; ++Round) {
    Grammar G;
    std::vector<uint32_t> Trace;
    for (int I = 0; I < 400; ++I) {
      if (R.nextBool(0.6))
        for (uint32_t M = 0; M < 5; ++M) {
          Trace.push_back(500 + M);
          G.append(500 + M);
        }
      else {
        const uint32_t T = static_cast<uint32_t>(R.nextBelow(20));
        Trace.push_back(T);
        G.append(T);
      }
    }
    AnalysisConfig Config{3, 30, Trace.size() / 25};
    const FastAnalysisResult Fast = analyzeHotStreams(G.snapshot(), Config);
    const PreciseAnalysisResult Precise =
        analyzeHotStreamsPrecisely(Trace, Config);
    uint64_t FastBest = 0, PreciseBest = 0;
    for (const HotDataStream &S : Fast.Streams)
      FastBest = std::max(FastBest, S.Heat);
    for (const HotDataStream &S : Precise.Streams)
      PreciseBest = std::max(PreciseBest, S.Heat);
    EXPECT_LE(FastBest, PreciseBest) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Coverage
//===----------------------------------------------------------------------===//

TEST(CoverageTest, FullAndPartial) {
  const std::vector<uint32_t> Trace = toTrace("abcabcxyz");
  HotDataStream S;
  S.Symbols = toTrace("abc");
  EXPECT_NEAR(traceCoverage(Trace, {S}), 6.0 / 9.0, 1e-9);
  HotDataStream All;
  All.Symbols = Trace;
  EXPECT_NEAR(traceCoverage(Trace, {All}), 1.0, 1e-9);
  EXPECT_EQ(traceCoverage({}, {S}), 0.0);
  EXPECT_EQ(traceCoverage(Trace, {}), 0.0);
}

TEST(CoverageTest, OverlappingStreamsCountOnce) {
  const std::vector<uint32_t> Trace = toTrace("abcd");
  HotDataStream A, B;
  A.Symbols = toTrace("abc");
  B.Symbols = toTrace("bcd");
  EXPECT_NEAR(traceCoverage(Trace, {A, B}), 1.0, 1e-9);
}

TEST(HotDataStreamTest, UniqueRefs) {
  HotDataStream S;
  S.Symbols = {1, 2, 1, 3, 2, 1};
  EXPECT_EQ(S.uniqueRefs(), 3u);
  EXPECT_EQ(S.length(), 6u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Analyzer configuration edges
//===----------------------------------------------------------------------===//

namespace {

TEST(FastAnalyzerTest, InvertedLengthBoundsFindNothing) {
  const GrammarSnapshot Snap = snapshotOf("abcabcabcabc");
  AnalysisConfig Config;
  Config.MinLength = 50;
  Config.MaxLength = 10; // min > max: nothing can qualify
  Config.HeatThreshold = 1;
  EXPECT_TRUE(analyzeHotStreams(Snap, Config).Streams.empty());
}

TEST(FastAnalyzerTest, ZeroHeatThresholdClampsSafely) {
  const GrammarSnapshot Snap = snapshotOf("ababab");
  AnalysisConfig Config{2, 10, 0};
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  // Threshold 0 admits every qualifying rule; still no start rule.
  for (const HotDataStream &S : Result.Streams)
    EXPECT_LT(S.length(), 6u);
}

TEST(PreciseAnalyzerTest, SingleSymbolAlphabet) {
  AnalysisConfig Config{2, 4, 4};
  const PreciseAnalysisResult Result =
      analyzeHotStreamsPrecisely(std::vector<uint32_t>(16, 7), Config);
  ASSERT_FALSE(Result.Streams.empty());
  // The maximal stream is the longest window (length 4, 4 disjoint
  // occurrences in 16 symbols).
  EXPECT_EQ(Result.Streams[0].length(), 4u);
  EXPECT_EQ(Result.Streams[0].Frequency, 4u);
}

//===----------------------------------------------------------------------===//
// Degenerate traces and exact threshold boundaries
//===----------------------------------------------------------------------===//

TEST(FastAnalyzerTest, SingleSymbolTrace) {
  const GrammarSnapshot Snap = snapshotOf("a");
  AnalysisConfig Config{1, 10, 1};
  const FastAnalysisResult Result = analyzeHotStreams(Snap, Config);
  // A one-symbol grammar is just the start rule, which is never reported.
  EXPECT_TRUE(Result.Streams.empty());
  EXPECT_EQ(Result.TraceLength, 1u);
}

TEST(FastAnalyzerTest, AllUniqueReferencesFindNothing) {
  // Nothing repeats, so Sequitur forms no rules and there is nothing to
  // report no matter how permissive the thresholds are.
  Grammar G;
  for (uint64_t T = 0; T < 256; ++T)
    G.append(T);
  AnalysisConfig Config{1, 256, 1};
  const FastAnalysisResult Result = analyzeHotStreams(G.snapshot(), Config);
  EXPECT_TRUE(Result.Streams.empty());
  EXPECT_EQ(Result.TraceLength, 256u);
  EXPECT_EQ(Result.TotalHeat, 0u);
}

TEST(PreciseAnalyzerTest, AllUniqueReferencesFindNothing) {
  std::vector<uint32_t> Trace(256);
  for (uint32_t I = 0; I < 256; ++I)
    Trace[I] = I;
  AnalysisConfig Config{1, 256, 1};
  EXPECT_TRUE(analyzeHotStreamsPrecisely(Trace, Config).Streams.empty());
}

TEST(FastAnalyzerTest, HeatExactlyAtThresholdIsHot) {
  // "abab": rule A -> a b has length 2, coldUses 2, heat 4.  The
  // threshold test is inclusive (H <= heat, Figure 5), so heat == H
  // must be reported...
  const GrammarSnapshot Snap = snapshotOf("abab");
  AnalysisConfig Config{2, 10, 4};
  const FastAnalysisResult AtThreshold = analyzeHotStreams(Snap, Config);
  ASSERT_EQ(AtThreshold.Streams.size(), 1u);
  EXPECT_EQ(AtThreshold.Streams[0].Heat, 4u);

  // ...and one notch above the heat must not be.
  Config.HeatThreshold = 5;
  EXPECT_TRUE(analyzeHotStreams(Snap, Config).Streams.empty());
}

TEST(PreciseAnalyzerTest, HeatExactlyAtThresholdIsHot) {
  const std::vector<uint32_t> Trace = {1, 2, 1, 2}; // "ab" twice: heat 4
  AnalysisConfig Config{2, 2, 4};
  const PreciseAnalysisResult AtThreshold =
      analyzeHotStreamsPrecisely(Trace, Config);
  ASSERT_EQ(AtThreshold.Streams.size(), 1u);
  EXPECT_EQ(AtThreshold.Streams[0].Heat, 4u);

  Config.HeatThreshold = 5;
  EXPECT_TRUE(analyzeHotStreamsPrecisely(Trace, Config).Streams.empty());
}

} // namespace
