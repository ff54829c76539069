//===- tests/dfsm_test.cpp - Prefix-matching DFSM tests --------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "dfsm/CheckCodeGen.h"
#include "dfsm/Matchers.h"
#include "dfsm/PrefixDfsm.h"

#include "analysis/DataRef.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace hds;
using namespace hds::dfsm;

namespace {

using Streams = std::vector<std::vector<uint32_t>>;

DfsmConfig configWithHead(uint32_t HeadLength) {
  DfsmConfig C;
  C.HeadLength = HeadLength;
  return C;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

TEST(PrefixDfsmTest, EmptyStreamSet) {
  PrefixDfsm M({}, configWithHead(2));
  EXPECT_EQ(M.stateCount(), 1u); // just the start state
  EXPECT_EQ(M.transitionCount(), 0u);
  EXPECT_EQ(M.step(0, 42), 0u);
}

TEST(PrefixDfsmTest, TooShortStreamsAreSkipped) {
  PrefixDfsm M({{1, 2}}, configWithHead(2)); // all head, no tail
  EXPECT_EQ(M.skippedStreamCount(), 1u);
  EXPECT_EQ(M.stateCount(), 1u);
}

TEST(PrefixDfsmTest, SingleStreamShape) {
  // Stream abcde with headLen 2: states {}, {[v,1]}, {[v,2]}.
  PrefixDfsm M({{1, 2, 3, 4, 5}}, configWithHead(2));
  EXPECT_EQ(M.stateCount(), 3u);
  const StateId S1 = M.step(0, 1);
  ASSERT_NE(S1, 0u);
  EXPECT_TRUE(M.completionsAt(S1).empty());
  const StateId S2 = M.step(S1, 2);
  ASSERT_NE(S2, 0u);
  ASSERT_EQ(M.completionsAt(S2).size(), 1u);
  EXPECT_EQ(M.completionsAt(S2)[0], 0u);
  // Non-matching symbol resets.
  EXPECT_EQ(M.step(S1, 9), 0u);
  EXPECT_EQ(M.step(S2, 9), 0u);
  // Restart mid-match: symbol 1 from S1 goes back to {[v,1]}.
  EXPECT_EQ(M.step(S1, 1), S1);
}

TEST(PrefixDfsmTest, PaperExampleStreams) {
  // Figure 8: v = abacadae, w = bbghij, headLen 3.
  // Symbols: a=1 b=2 c=3 d=4 e=5 g=6 h=7 i=8 j=9.
  const Streams S = {{1, 2, 1, 3, 1, 4, 1, 5}, {2, 2, 6, 7, 8, 9}};
  PrefixDfsm M(S, configWithHead(3));

  // Walk v's head: a, b, a -> complete match of v.
  StateId State = M.step(0, 1);
  State = M.step(State, 2);
  // After "ab" both v (2 seen) and w (1 seen, first b) are tracked.
  {
    const auto &Elements = M.elementsOf(State);
    EXPECT_EQ(Elements.size(), 2u);
  }
  State = M.step(State, 1);
  ASSERT_EQ(M.completionsAt(State).size(), 1u);
  EXPECT_EQ(M.completionsAt(State)[0], 0u);

  // Walk w's head: b, b, g -> complete match of w.
  State = M.step(0, 2);
  State = M.step(State, 2);
  State = M.step(State, 6);
  ASSERT_EQ(M.completionsAt(State).size(), 1u);
  EXPECT_EQ(M.completionsAt(State)[0], 1u);

  // "bb" then another b: still a partial match of w (bb seen... the
  // second b also restarts [w,1]).
  State = M.step(0, 2);
  State = M.step(State, 2);
  State = M.step(State, 2);
  bool HasW2 = false;
  for (const StateElement &E : M.elementsOf(State))
    if (E.Stream == 1 && E.Seen == 2)
      HasW2 = true;
  EXPECT_TRUE(HasW2);
}

TEST(PrefixDfsmTest, StateCountNearLinear) {
  // The paper: "we usually find close to headLen*n + 1 states".
  Rng R(5);
  for (uint32_t N : {5u, 10u, 20u, 40u}) {
    Streams S;
    for (uint32_t I = 0; I < N; ++I) {
      std::vector<uint32_t> Stream;
      for (int J = 0; J < 12; ++J)
        Stream.push_back(static_cast<uint32_t>(1000 * (I + 1) + J));
      S.push_back(std::move(Stream));
    }
    PrefixDfsm M(S, configWithHead(2));
    EXPECT_EQ(M.stateCount(), 2 * N + 1) << N << " disjoint streams";
    EXPECT_FALSE(M.hitStateLimit());
  }
}

TEST(PrefixDfsmTest, SharedPrefixesMergeStates) {
  // Two streams with identical heads share their prefix states.
  const Streams S = {{1, 2, 3, 4, 5, 6}, {1, 2, 9, 8, 7, 6}};
  PrefixDfsm M(S, configWithHead(2));
  const StateId S1 = M.step(0, 1);
  const StateId S2 = M.step(S1, 2);
  // Completing state completes *both* streams.
  EXPECT_EQ(M.completionsAt(S2).size(), 2u);
}

TEST(PrefixDfsmTest, HeadLengthOneCompletesImmediately) {
  PrefixDfsm M({{7, 8, 9, 10, 11}}, configWithHead(1));
  const StateId S1 = M.step(0, 7);
  ASSERT_EQ(M.completionsAt(S1).size(), 1u);
}

TEST(PrefixDfsmTest, RepeatedHeadSymbolTracksBothPhases) {
  // Head "aa" (headLen 2): after "aa", state holds [v,2] (complete) and
  // [v,1] (restart) simultaneously — the set semantics a scalar v.seen
  // cannot express.
  PrefixDfsm M({{1, 1, 2, 3, 4, 5}}, configWithHead(2));
  StateId State = M.step(0, 1);
  State = M.step(State, 1);
  EXPECT_EQ(M.completionsAt(State).size(), 1u);
  // A third 'a' completes again (the restart element advanced).
  State = M.step(State, 1);
  EXPECT_EQ(M.completionsAt(State).size(), 1u);
}

TEST(PrefixDfsmTest, PrefixAlphabetCoversHeads) {
  const Streams S = {{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}};
  PrefixDfsm M(S, configWithHead(2));
  const std::vector<uint32_t> &Alphabet = M.prefixAlphabet();
  const std::set<uint32_t> Set(Alphabet.begin(), Alphabet.end());
  EXPECT_EQ(Set, (std::set<uint32_t>{1, 2, 7, 8}));
}

TEST(PrefixDfsmTest, StateLimitStopsExpansion) {
  // Many streams over a tiny alphabet force state-set blowup; the limit
  // must cap construction without crashing.
  Rng R(11);
  Streams S;
  for (int I = 0; I < 12; ++I) {
    std::vector<uint32_t> Stream;
    for (int J = 0; J < 10; ++J)
      Stream.push_back(static_cast<uint32_t>(R.nextBelow(3)));
    S.push_back(std::move(Stream));
  }
  DfsmConfig Config;
  Config.HeadLength = 4;
  Config.MaxStates = 16;
  PrefixDfsm M(S, Config);
  EXPECT_LE(M.stateCount(), 16u);
}

//===----------------------------------------------------------------------===//
// Equivalence with the executable specification (ReferenceMatcher)
//===----------------------------------------------------------------------===//

struct EquivalenceCase {
  uint64_t Seed;
  uint32_t NumStreams;
  uint32_t StreamLength;
  uint32_t HeadLength;
  uint64_t AlphabetSize;
  uint32_t SequenceLength;
};

// Names the case by its seed: the discovered ctest names carry this
// text, where gtest's default would dump the struct's bytes, padding
// included, which change from build to build.
void PrintTo(const EquivalenceCase &Case, std::ostream *OS) {
  *OS << "seed" << Case.Seed;
}

class DfsmEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(DfsmEquivalenceTest, MatchesReferenceOnRandomSequences) {
  const EquivalenceCase &Case = GetParam();
  Rng R(Case.Seed);

  Streams S;
  for (uint32_t I = 0; I < Case.NumStreams; ++I) {
    std::vector<uint32_t> Stream;
    for (uint32_t J = 0; J < Case.StreamLength; ++J)
      Stream.push_back(static_cast<uint32_t>(R.nextBelow(Case.AlphabetSize)));
    S.push_back(std::move(Stream));
  }

  PrefixDfsm M(S, configWithHead(Case.HeadLength));
  ReferenceMatcher Ref(S, Case.HeadLength);

  StateId State = 0;
  for (uint32_t Step = 0; Step < Case.SequenceLength; ++Step) {
    const uint32_t Symbol =
        static_cast<uint32_t>(R.nextBelow(Case.AlphabetSize));
    State = M.step(State, Symbol);
    std::vector<StreamIndex> RefCompleted = Ref.step(Symbol);

    // Same state elements.
    EXPECT_EQ(M.elementsOf(State), Ref.elements()) << "step " << Step;

    // Same completions.
    std::vector<StreamIndex> DfsmCompleted = M.completionsAt(State);
    std::sort(DfsmCompleted.begin(), DfsmCompleted.end());
    std::sort(RefCompleted.begin(), RefCompleted.end());
    EXPECT_EQ(DfsmCompleted, RefCompleted) << "step " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreamSets, DfsmEquivalenceTest,
    ::testing::Values(EquivalenceCase{1, 1, 6, 2, 3, 2000},
                      EquivalenceCase{2, 2, 8, 2, 4, 2000},
                      EquivalenceCase{3, 4, 10, 3, 4, 3000},
                      EquivalenceCase{4, 8, 12, 2, 8, 3000},
                      EquivalenceCase{5, 3, 6, 1, 2, 2000},
                      EquivalenceCase{6, 6, 9, 4, 5, 3000},
                      EquivalenceCase{7, 10, 15, 2, 16, 4000},
                      EquivalenceCase{8, 2, 5, 2, 2, 5000},
                      EquivalenceCase{9, 16, 12, 3, 6, 4000},
                      EquivalenceCase{10, 5, 20, 5, 4, 3000}));

//===----------------------------------------------------------------------===//
// Check code generation
//===----------------------------------------------------------------------===//

/// Builds a DataRefTable where symbol k is (pc = k / 4, addr = 0x100 * k):
/// four symbols share each pc.
analysis::DataRefTable tableForSymbols(uint32_t Count) {
  analysis::DataRefTable T;
  for (uint32_t K = 0; K < Count; ++K) {
    const analysis::RefId Id = T.intern({K / 4, 0x100ull * K});
    EXPECT_EQ(Id, K);
  }
  return T;
}

TEST(CheckCodeGenTest, ClauseCountStaysNearStreamCount) {
  // Disjoint streams: the generated code needs roughly one address group
  // per head symbol and no specific state clauses beyond the advancing
  // ones — this is the paper's <~2n checks> property (Table 2).
  Streams S;
  for (uint32_t I = 0; I < 10; ++I) {
    std::vector<uint32_t> Stream;
    for (uint32_t J = 0; J < 8; ++J)
      Stream.push_back(I * 8 + J);
    S.push_back(std::move(Stream));
  }
  analysis::DataRefTable T = tableForSymbols(80);
  PrefixDfsm M(S, configWithHead(2));
  CheckCode Code = generateCheckCode(M, T);
  // 20 head symbols -> 20 address groups; advancing transitions beyond
  // the default add at most one specific clause each.
  EXPECT_LE(Code.totalClauses(), 2 * 20u);
  EXPECT_GE(Code.totalClauses(), 20u);
}

TEST(CheckCodeGenTest, SitesCoverHeadPcsOnly) {
  const Streams S = {{0, 1, 2, 3, 4, 5, 6, 7}};
  analysis::DataRefTable T = tableForSymbols(8);
  PrefixDfsm M(S, configWithHead(2));
  CheckCode Code = generateCheckCode(M, T);
  // Head symbols 0 and 1 share pc 0; tail pcs carry no checks.
  ASSERT_EQ(Code.Sites.size(), 1u);
  EXPECT_EQ(Code.Sites[0].Pc, 0u);
  EXPECT_EQ(Code.Sites[0].Groups.size(), 2u);
}

TEST(CheckCodeGenTest, InterpreterReproducesDfsm) {
  // Interpreting the generated code must be step-for-step equivalent to
  // the DFSM itself.  (The core PrefetchEngine embeds this interpreter;
  // here we drive the structure directly.)
  Rng R(31);
  Streams S;
  for (uint32_t I = 0; I < 6; ++I) {
    std::vector<uint32_t> Stream;
    for (uint32_t J = 0; J < 10; ++J)
      Stream.push_back(static_cast<uint32_t>(R.nextBelow(24)));
    S.push_back(std::move(Stream));
  }
  analysis::DataRefTable T = tableForSymbols(24);
  PrefixDfsm M(S, configWithHead(2));
  CheckCode Code = generateCheckCode(M, T);

  StateId DfsmState = 0, CodeState = 0;
  for (int Step = 0; Step < 4000; ++Step) {
    const uint32_t Symbol = static_cast<uint32_t>(R.nextBelow(24));
    const analysis::DataRef &Ref = T.refOf(Symbol);

    DfsmState = M.step(DfsmState, Symbol);

    // Interpret the generated code at Ref.Pc (uninstrumented pcs leave
    // the state alone only if the DFSM also has no transitions there —
    // in this test every symbol's pc carries code iff it is in a head).
    const SiteCheckCode *Site = nullptr;
    for (const SiteCheckCode &Candidate : Code.Sites)
      if (Candidate.Pc == Ref.Pc)
        Site = &Candidate;
    if (Site) {
      const AddrGroupCode *Group = nullptr;
      for (const AddrGroupCode &G : Site->Groups)
        if (G.Addr == Ref.Addr)
          Group = &G;
      if (!Group) {
        CodeState = 0;
      } else {
        const CheckClause *Match = nullptr;
        for (const CheckClause &Clause : Group->Specific)
          if (Clause.FromState == CodeState) {
            Match = &Clause;
            break;
          }
        CodeState = Match ? Match->ToState : Group->DefaultToState;
      }
      EXPECT_EQ(CodeState, DfsmState) << "step " << Step;
    } else {
      // No checks at this pc: the injected program cannot see the
      // access — and by construction the DFSM has no transition for
      // tail-only symbols either, so it reset to the start state.
      EXPECT_EQ(DfsmState, 0u) << "step " << Step;
      CodeState = DfsmState;
    }
  }
}

TEST(CheckCodeGenTest, DumpMentionsPrefetches) {
  const Streams S = {{0, 1, 2, 3, 4, 5}};
  analysis::DataRefTable T = tableForSymbols(8);
  PrefixDfsm M(S, configWithHead(2));
  CheckCode Code = generateCheckCode(M, T);
  const std::string Text = Code.dump();
  EXPECT_NE(Text.find("if (accessing"), std::string::npos);
  EXPECT_NE(Text.find("prefetch tails"), std::string::npos);
  EXPECT_NE(Text.find("else state = 0;"), std::string::npos);
}

TEST(CheckCodeGenTest, NaiveStatsCountStreamsTimesHead) {
  Streams S;
  for (uint32_t I = 0; I < 7; ++I) {
    std::vector<uint32_t> Stream;
    for (uint32_t J = 0; J < 6; ++J)
      Stream.push_back(I * 6 + J);
    S.push_back(std::move(Stream));
  }
  analysis::DataRefTable T = tableForSymbols(42);
  const NaiveCheckStats Stats = computeNaiveCheckStats(S, 2, T);
  EXPECT_EQ(Stats.Clauses, 14u);
}

//===----------------------------------------------------------------------===//
// ScalarMatcherBank
//===----------------------------------------------------------------------===//

TEST(ScalarMatcherTest, MatchesSimpleHead) {
  const Streams S = {{1, 2, 3, 4, 5, 6}};
  // SymbolPcs maps symbol id -> pc: head symbols 1 and 2 live at pc 0.
  const std::vector<uint64_t> Pcs = {9, 0, 0, 1, 1, 1, 1};
  ScalarMatcherBank Bank(S, 2, Pcs);
  EXPECT_TRUE(Bank.step(1, 0).empty());
  const auto Completed = Bank.step(2, 0);
  ASSERT_EQ(Completed.size(), 1u);
  EXPECT_EQ(Completed[0], 0u);
}

TEST(ScalarMatcherTest, UninstrumentedPcLeavesCountersAlone) {
  const Streams S = {{1, 2, 3, 4, 5, 6}};
  const std::vector<uint64_t> Pcs = {9, 0, 0, 1, 1, 1, 1};
  ScalarMatcherBank Bank(S, 2, Pcs);
  Bank.step(1, 0);
  // Accesses at pc 9 (not a head pc) are invisible.
  Bank.step(99, 9);
  const auto Completed = Bank.step(2, 0);
  EXPECT_EQ(Completed.size(), 1u);
}

TEST(ScalarMatcherTest, CountsClauseEvaluations) {
  // Two streams sharing their head pcs: each access at a head pc
  // consults both streams — the redundant work the DFSM removes.
  const Streams S = {{1, 2, 3, 4, 5, 6}, {1, 7, 8, 9, 10, 11}};
  std::vector<uint64_t> Pcs(12, 1);
  Pcs[1] = 0;
  Pcs[2] = 0;
  Pcs[7] = 0;
  ScalarMatcherBank Bank(S, 2, Pcs);
  Bank.step(1, 0);
  EXPECT_EQ(Bank.clauseEvaluations(), 2u);
}

} // namespace
