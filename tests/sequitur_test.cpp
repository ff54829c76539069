//===- tests/sequitur_test.cpp - Sequitur grammar tests --------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "sequitur/Grammar.h"

#include "support/Rng.h"
#include "testing/TraceGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using hds::Rng;
using hds::sequitur::Grammar;
using hds::sequitur::GrammarSnapshot;
using hds::sequitur::Rule;

namespace {

/// Appends every character of \p Text as a terminal.
void appendString(Grammar &G, const std::string &Text) {
  for (char C : Text)
    G.append(static_cast<uint64_t>(static_cast<unsigned char>(C)));
}

/// Expands the start rule back into a string.
std::string expandToString(const Grammar &G) {
  std::string Out;
  for (uint64_t T : G.expandRule(*G.start()))
    Out.push_back(static_cast<char>(T));
  return Out;
}

TEST(SequiturTest, EmptyGrammar) {
  Grammar G;
  EXPECT_EQ(G.inputLength(), 0u);
  EXPECT_EQ(G.ruleCount(), 1u); // just the start rule
  EXPECT_TRUE(G.expandRule(*G.start()).empty());
}

TEST(SequiturTest, SingleSymbol) {
  Grammar G;
  G.append(42);
  EXPECT_EQ(G.inputLength(), 1u);
  EXPECT_EQ(expandToString(G), std::string(1, char(42)));
}

TEST(SequiturTest, NoRepetitionMakesNoRules) {
  Grammar G;
  appendString(G, "abcdefg");
  EXPECT_EQ(G.ruleCount(), 1u);
  EXPECT_EQ(expandToString(G), "abcdefg");
}

TEST(SequiturTest, SimpleRepeatFormsRule) {
  Grammar G;
  appendString(G, "abab");
  // Classic sequitur result: S -> A A, A -> a b.
  EXPECT_EQ(G.ruleCount(), 2u);
  EXPECT_EQ(expandToString(G), "abab");
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
}

TEST(SequiturTest, PaperFigure4Example) {
  // Figure 4: w = abaabcabcabcabc.
  Grammar G;
  appendString(G, "abaabcabcabcabc");
  EXPECT_EQ(expandToString(G), "abaabcabcabcabc");
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
  EXPECT_TRUE(G.rulesAreNonTrivialHolds());

  // The paper's grammar has 4 rules: S -> A a B B, A -> a b, B -> C C,
  // C -> A c.  Sequitur's exact rule set for this string is canonical.
  EXPECT_EQ(G.ruleCount(), 4u);

  // The start rule derives the whole string; some rule derives "abcabc"
  // (the hot data stream of the worked example) and some rule derives
  // "abc".
  std::vector<std::string> Expansions;
  for (const Rule *R : G.rules()) {
    std::string Word;
    for (uint64_t T : G.expandRule(*R))
      Word.push_back(static_cast<char>(T));
    Expansions.push_back(Word);
  }
  EXPECT_NE(std::find(Expansions.begin(), Expansions.end(), "abcabc"),
            Expansions.end());
  EXPECT_NE(std::find(Expansions.begin(), Expansions.end(), "abc"),
            Expansions.end());
  EXPECT_NE(std::find(Expansions.begin(), Expansions.end(), "ab"),
            Expansions.end());
}

TEST(SequiturTest, TriplesAreHandled) {
  // Runs of one symbol exercise the overlapping-digram special case.
  for (size_t Len = 1; Len <= 40; ++Len) {
    Grammar G;
    appendString(G, std::string(Len, 'a'));
    EXPECT_EQ(expandToString(G), std::string(Len, 'a')) << "length " << Len;
    EXPECT_TRUE(G.digramUniquenessHolds()) << "length " << Len;
    EXPECT_TRUE(G.ruleUtilityHolds()) << "length " << Len;
  }
}

TEST(SequiturTest, RuleUtilityInlinesSingleUseRules) {
  // "abcdbcabcd": rule for "bc" forms, then gets subsumed; whatever the
  // final shape, no rule may be used fewer than two times.
  Grammar G;
  appendString(G, "abcdbcabcd");
  EXPECT_EQ(expandToString(G), "abcdbcabcd");
  EXPECT_TRUE(G.ruleUtilityHolds());
}

TEST(SequiturTest, SnapshotMatchesGrammar) {
  Grammar G;
  appendString(G, "xyxyzxyxyzw");
  GrammarSnapshot Snap = G.snapshot();
  ASSERT_EQ(Snap.Rules.size(), G.ruleCount());
  std::vector<uint64_t> FromSnap = Snap.expand(0);
  std::vector<uint64_t> FromGrammar = G.expandRule(*G.start());
  EXPECT_EQ(FromSnap, FromGrammar);
}

TEST(SequiturTest, DumpShowsRules) {
  Grammar G;
  appendString(G, "abab");
  const std::string Dump = G.dump();
  EXPECT_NE(Dump.find("R0 ->"), std::string::npos);
  EXPECT_NE(Dump.find("R1"), std::string::npos);
}

TEST(SequiturTest, TotalRhsSymbolsCountsGrammarSize) {
  Grammar G;
  appendString(G, "abab");
  // S -> A A (2 symbols), A -> a b (2 symbols).
  EXPECT_EQ(G.totalRhsSymbols(), 4u);
}

//===----------------------------------------------------------------------===//
// Property tests over random inputs
//===----------------------------------------------------------------------===//

struct RandomInputCase {
  uint64_t Seed;
  size_t Length;
  uint64_t AlphabetSize;
};

class SequiturPropertyTest : public ::testing::TestWithParam<RandomInputCase> {
};

TEST_P(SequiturPropertyTest, ExpansionEqualsInputAndInvariantsHold) {
  const RandomInputCase &Case = GetParam();
  Rng Rand(Case.Seed);
  Grammar G;
  std::vector<uint64_t> Input;
  Input.reserve(Case.Length);
  for (size_t I = 0; I < Case.Length; ++I) {
    const uint64_t T = Rand.nextBelow(Case.AlphabetSize);
    Input.push_back(T);
    G.append(T);
  }
  EXPECT_EQ(G.inputLength(), Case.Length);
  EXPECT_EQ(G.expandRule(*G.start()), Input);
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
  EXPECT_TRUE(G.rulesAreNonTrivialHolds());
  std::string Why;
  EXPECT_TRUE(G.checkInvariants(&Why)) << Why;

  // The snapshot agrees too.
  EXPECT_EQ(G.snapshot().expand(0), Input);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SequiturPropertyTest,
    ::testing::Values(
        RandomInputCase{1, 10, 2}, RandomInputCase{2, 100, 2},
        RandomInputCase{3, 1000, 2}, RandomInputCase{4, 100, 4},
        RandomInputCase{5, 1000, 4}, RandomInputCase{6, 5000, 4},
        RandomInputCase{7, 100, 16}, RandomInputCase{8, 1000, 16},
        RandomInputCase{9, 10000, 16}, RandomInputCase{10, 1000, 256},
        RandomInputCase{11, 10000, 256}, RandomInputCase{12, 2000, 3},
        RandomInputCase{13, 3000, 5}, RandomInputCase{14, 20000, 8},
        RandomInputCase{15, 500, 2}, RandomInputCase{16, 50000, 64}));

/// Repetitive inputs (the interesting case for compression).
TEST(SequiturTest, PeriodicInputCompressesWell) {
  Grammar G;
  std::vector<uint64_t> Input;
  for (int Rep = 0; Rep < 200; ++Rep)
    for (uint64_t T : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                       uint64_t{5}, uint64_t{6}, uint64_t{7}, uint64_t{8}}) {
      Input.push_back(T);
      G.append(T);
    }
  EXPECT_EQ(G.expandRule(*G.start()), Input);
  // 1600 symbols compress into a grammar far smaller than the input.
  EXPECT_LT(G.totalRhsSymbols(), 100u);
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
}

} // namespace

//===----------------------------------------------------------------------===//
// Adversarially structured inputs
//===----------------------------------------------------------------------===//

namespace {

/// Thue-Morse words are overlap-free (no factor of the form xyxyx), the
/// worst case for digram-based compression.
std::string thueMorse(unsigned Order) {
  std::string Word = "a";
  for (unsigned I = 0; I < Order; ++I) {
    std::string Next;
    for (char C : Word) {
      Next += C;
      Next += (C == 'a') ? 'b' : 'a';
    }
    Word = Next;
  }
  return Word;
}

/// Fibonacci words are Sturmian: maximally repetitive without being
/// periodic, the best case for hierarchical inference.
std::string fibonacciWord(unsigned Order) {
  std::string Previous = "b", Current = "a";
  for (unsigned I = 0; I < Order; ++I) {
    std::string Next = Current + Previous;
    Previous = std::move(Current);
    Current = std::move(Next);
  }
  return Current;
}

TEST(SequiturStructuredTest, ThueMorseInvariantsAndRoundTrip) {
  for (unsigned Order : {4u, 8u, 12u}) {
    const std::string Word = thueMorse(Order);
    Grammar G;
    appendString(G, Word);
    EXPECT_EQ(expandToString(G), Word) << "order " << Order;
    EXPECT_TRUE(G.digramUniquenessHolds()) << "order " << Order;
    EXPECT_TRUE(G.ruleUtilityHolds()) << "order " << Order;
  }
}

TEST(SequiturStructuredTest, FibonacciWordCompressesLogarithmically) {
  const std::string Word = fibonacciWord(20); // 10946 symbols
  Grammar G;
  appendString(G, Word);
  EXPECT_EQ(expandToString(G), Word);
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
  // Sturmian structure compresses to a grammar logarithmic in the input.
  EXPECT_LT(G.totalRhsSymbols(), 200u);
}

TEST(SequiturStructuredTest, NestedRepetition) {
  // ((ab)^4 c)^8 d repeated: deeply nested structure.
  std::string Unit;
  for (int I = 0; I < 4; ++I)
    Unit += "ab";
  Unit += 'c';
  std::string Big;
  for (int I = 0; I < 8; ++I)
    Big += Unit;
  Big += 'd';
  std::string Input;
  for (int I = 0; I < 5; ++I)
    Input += Big;

  Grammar G;
  appendString(G, Input);
  EXPECT_EQ(expandToString(G), Input);
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
  EXPECT_LT(G.totalRhsSymbols(), 60u);
}

TEST(SequiturStructuredTest, AlternatingPairsWithSeparators) {
  // Burst-boundary-like input: motif fragments separated by unique ids.
  Grammar G;
  std::vector<uint64_t> Input;
  uint64_t Unique = 1000;
  for (int Burst = 0; Burst < 50; ++Burst) {
    for (int Phase = Burst % 4; Phase < 12; ++Phase) {
      Input.push_back(100 + static_cast<uint64_t>(Phase));
      G.append(100 + static_cast<uint64_t>(Phase));
    }
    Input.push_back(Unique);
    G.append(Unique++);
  }
  EXPECT_EQ(G.expandRule(*G.start()), Input);
  EXPECT_TRUE(G.digramUniquenessHolds());
  EXPECT_TRUE(G.ruleUtilityHolds());
}

TEST(SequiturStructuredTest, LargeAlphabetNoCrashNearTagBoundary) {
  // Terminals close to (but below) the 2^63 tag boundary must work.
  Grammar G;
  const uint64_t Big = Grammar::MaxTerminal;
  std::vector<uint64_t> Input = {Big, Big - 1, Big, Big - 1, Big, Big - 1};
  for (uint64_t T : Input)
    G.append(T);
  EXPECT_EQ(G.expandRule(*G.start()), Input);
  EXPECT_TRUE(G.digramUniquenessHolds());
}

} // namespace

namespace {

TEST(SequiturTest, DumpWithTerminalNames) {
  Grammar G;
  appendString(G, "abab");
  const std::string Dump = G.dump(+[](uint64_t T) {
    return std::string(1, static_cast<char>(T));
  });
  EXPECT_NE(Dump.find("a b"), std::string::npos);
  EXPECT_EQ(Dump.find("97"), std::string::npos); // no raw codes
}

TEST(SequiturTest, RulesListStartsWithStartRule) {
  Grammar G;
  appendString(G, "xyxyxy");
  const std::vector<const Rule *> Rules = G.rules();
  ASSERT_FALSE(Rules.empty());
  EXPECT_EQ(Rules.front(), G.start());
  for (size_t I = 1; I < Rules.size(); ++I)
    EXPECT_GT(Rules[I]->id(), Rules[I - 1]->id());
}

//===----------------------------------------------------------------------===//
// checkInvariants (the combined oracle entry point)
//===----------------------------------------------------------------------===//

TEST(SequiturTest, CheckInvariantsHoldsAfterEveryAppend) {
  // The paper's Figure 4 input, checked exhaustively at every prefix —
  // this is the contract the trace fuzzer's grammar oracle relies on.
  Grammar G;
  std::string Why;
  for (char C : std::string("abcabcabcabcabc")) {
    G.append(static_cast<uint64_t>(C));
    EXPECT_TRUE(G.checkInvariants(&Why))
        << "after " << G.inputLength() << " appends: " << Why;
  }
}

TEST(SequiturTest, CheckInvariantsHoldsOnEmptyGrammar) {
  Grammar G;
  std::string Why;
  EXPECT_TRUE(G.checkInvariants(&Why)) << Why;
}

TEST(SequiturTest, CheckInvariantsHoldsOnTripleRuns) {
  // aaaa...: the classic overlapping-digram corner case.
  Grammar G;
  std::string Why;
  for (int I = 0; I < 64; ++I) {
    G.append(7);
    EXPECT_TRUE(G.checkInvariants(&Why))
        << "after " << G.inputLength() << " appends: " << Why;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Grammar pin: the exact grammars of the adversarial trace shapes
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over the snapshot's rule count and each rule's item sequence.
uint64_t snapshotDigest(const GrammarSnapshot &Snap) {
  uint64_t H = 0xCBF29CE484222325ULL;
  auto Mix = [&H](uint64_t Value) {
    for (int I = 0; I < 8; ++I) {
      H ^= (Value >> (8 * I)) & 0xFF;
      H *= 0x100000001B3ULL;
    }
  };
  Mix(Snap.Rules.size());
  for (const GrammarSnapshot::SnapshotRule &R : Snap.Rules) {
    Mix(R.Rhs.size());
    for (const GrammarSnapshot::Item &It : R.Rhs)
      Mix(It.IsRule ? (uint64_t{1} << 63) | It.RuleIndex : It.Terminal);
  }
  return H;
}

/// Seeds 0-39 run every TraceShape eight times.  The digests were taken
/// from the node-based grammar this pool-based one replaced; any change in
/// rule formation, rule numbering or right-hand-side order moves them.
TEST(SequiturPinTest, TraceShapeGrammarsAreUnchanged) {
  struct Expected {
    size_t Rules;
    uint64_t Digest;
  };
  static const Expected Pins[] = {
    {21, 0x238f17ea291dae90ULL}, // hot-loops
    {20, 0x6e399eb95311a3deULL}, // phase-shifts
    {5, 0x9bf3463c5a84b6c8ULL}, // noise-flood
    {38, 0x155e4479ffcf6931ULL}, // regex-recurrence
    {4, 0x513c9b1798bc0fc6ULL}, // cache-thrash
    {25, 0xccafc5f8d9e5f056ULL}, // hot-loops
    {37, 0x20eecccb497b4590ULL}, // phase-shifts
    {6, 0x52c2219c5012beebULL}, // noise-flood
    {25, 0xcddc8f034bf0b4bdULL}, // regex-recurrence
    {5, 0x7c72e158dbcdf2f8ULL}, // cache-thrash
    {30, 0x1d1a389395e8984cULL}, // hot-loops
    {21, 0x32d553c69f52c920ULL}, // phase-shifts
    {5, 0x65c5646d14767866ULL}, // noise-flood
    {35, 0x5bb44d31b1fda12dULL}, // regex-recurrence
    {4, 0x053cb8118e302e5fULL}, // cache-thrash
    {20, 0x70884a46a0274b14ULL}, // hot-loops
    {19, 0x7428e3705dbdce6fULL}, // phase-shifts
    {5, 0xbd13c10c0ffa2386ULL}, // noise-flood
    {31, 0xa853c439f0a80312ULL}, // regex-recurrence
    {5, 0xf2d9bc2c983fad48ULL}, // cache-thrash
    {37, 0x6828e726c9be7023ULL}, // hot-loops
    {35, 0x9eb5cce6daf4b759ULL}, // phase-shifts
    {6, 0xff1918458dac0bbaULL}, // noise-flood
    {34, 0x20c045793ebd727eULL}, // regex-recurrence
    {4, 0xb2db8bb5f72da7faULL}, // cache-thrash
    {36, 0xbacd939f420d4c05ULL}, // hot-loops
    {26, 0x31726dc1fc4d1dc2ULL}, // phase-shifts
    {6, 0x8bc041d0e2e23718ULL}, // noise-flood
    {33, 0xe5d6db4384385407ULL}, // regex-recurrence
    {5, 0xc0283a3714f30aa4ULL}, // cache-thrash
    {49, 0xa34ae03dc91663efULL}, // hot-loops
    {17, 0x70c73551503bdce0ULL}, // phase-shifts
    {5, 0x1f97aecd8fb2328fULL}, // noise-flood
    {36, 0xbe1b0f4815049063ULL}, // regex-recurrence
    {5, 0xc59c103fbb0ad916ULL}, // cache-thrash
    {17, 0x33857688513287f9ULL}, // hot-loops
    {32, 0x9bbb3fccf2e40371ULL}, // phase-shifts
    {5, 0x00422b8861e92eafULL}, // noise-flood
    {33, 0x28bbfc36c6950cf8ULL}, // regex-recurrence
    {4, 0xfff676cb2abdc134ULL}, // cache-thrash
  };
  Grammar Reused;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    const std::vector<uint32_t> Trace = hds::testing::generateTrace(Seed);
    Grammar Fresh;
    Reused.clear();
    for (uint32_t T : Trace) {
      Fresh.append(T);
      Reused.append(T);
    }
    const std::string Where =
        "seed " + std::to_string(Seed) + " (" +
        hds::testing::shapeName(hds::testing::shapeForSeed(Seed)) + ")";
    const GrammarSnapshot Snap = Fresh.snapshot();
    EXPECT_EQ(Snap.Rules.size(), Pins[Seed].Rules) << Where;
    EXPECT_EQ(snapshotDigest(Snap), Pins[Seed].Digest) << Where;
    EXPECT_EQ(snapshotDigest(Reused.snapshot()), Pins[Seed].Digest)
        << Where << " after clear()";
  }
}

TEST(SequiturPinTest, NothingIsAllocatedBeforeTheFirstAppend) {
  Grammar G;
  EXPECT_EQ(G.storeBytes(), 0u);
  G.append(1);
  EXPECT_GT(G.storeBytes(), 0u);
  const size_t Held = G.storeBytes();
  G.clear();
  EXPECT_EQ(G.storeBytes(), Held); // clear() keeps the capacity
  EXPECT_EQ(G.inputLength(), 0u);
  EXPECT_EQ(G.ruleCount(), 1u);
  EXPECT_TRUE(G.expandRule(*G.start()).empty());
  EXPECT_TRUE(G.checkInvariants());
}

} // namespace

namespace {

TEST(SequiturRuleStoreTest, FollowsTheLiveRulePeakOverManyCycles) {
  // Sequitur creates far more rules than it keeps: most are inlined again
  // once a longer rule absorbs their uses.  Deleted rules hand their slots
  // back, so over many cleared cycles the rule vector is bounded by the
  // most rules live at once (plus the few a nested match creates before
  // the enclosing one inlines), not by the rules a cycle creates.
  Grammar G;
  size_t PeakLive = 0;
  size_t Created = 0;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    G.clear();
    uint32_t LastId = 0;
    for (uint32_t T : hds::testing::generateTrace(Seed)) {
      G.append(T);
      PeakLive = std::max(PeakLive, G.ruleCount());
      LastId = std::max(LastId, G.rules().back()->id()); // creation order
    }
    Created = std::max<size_t>(Created, LastId + 1);
    ASSERT_TRUE(G.checkInvariants()) << "seed " << Seed;
  }
  EXPECT_GT(Created, 4 * PeakLive); // the bound below is not trivial
  EXPECT_LE(G.ruleStoreBytes(), 2 * (PeakLive + 8) * sizeof(Rule));
}

} // namespace
