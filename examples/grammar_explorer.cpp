//===- examples/grammar_explorer.cpp - Explore the analysis pipeline -------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Feeds a string through the offline pieces of the pipeline and shows
// every intermediate artifact: the incremental Sequitur grammar, the fast
// hot data stream analysis values (the paper's Table 1 columns), the
// prefix-matching DFSM, and the generated detection/prefetching code in
// the shape of Figure 7.
//
// Usage: grammar_explorer [string] [heatThreshold] [minLen] [maxLen]
//   defaults: the paper's worked example, H=8, minLen=2, maxLen=7.
//   The numbers are plain decimal digits and minLen may not exceed
//   maxLen; anything else exits 2 with an "error:" line.
//
// With no arguments this is the program of record for Figures 4/6 and
// Table 1: the grammar of w = abaabcabcabcabc, the analysis values
// (index, uses, coldUses, heat), and the one hot data stream the paper
// finds, abcabc with heat 12, 80% of all data references.
//
// Try:
//   grammar_explorer
//   grammar_explorer mississippimississippi 6 3 11
//
//===----------------------------------------------------------------------===//

#include "analysis/DataRef.h"
#include "analysis/FastAnalyzer.h"
#include "dfsm/CheckCodeGen.h"
#include "dfsm/PrefixDfsm.h"
#include "sequitur/Grammar.h"
#include "support/ParseInt.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace hds;

namespace {

/// Argument \p Index of argv as a decimal number named \p Name, or
/// \p Default when it is absent.
uint64_t numberArg(int Argc, char **Argv, int Index, const char *Name,
                   uint64_t Default) {
  if (Argc <= Index)
    return Default;
  uint64_t Value = 0;
  if (!parseDecimal(Argv[Index], Value)) {
    std::fprintf(stderr, "error: invalid %s '%s' (need a decimal integer)\n",
                 Name, Argv[Index]);
    std::exit(2);
  }
  return Value;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Input = Argc > 1 ? Argv[1] : "abaabcabcabcabc";
  analysis::AnalysisConfig Config;
  Config.HeatThreshold = numberArg(Argc, Argv, 2, "heatThreshold", 8);
  Config.MinLength = numberArg(Argc, Argv, 3, "minLen", 2);
  Config.MaxLength = numberArg(Argc, Argv, 4, "maxLen", 7);
  if (Config.MinLength > Config.MaxLength) {
    std::fprintf(stderr, "error: minLen %llu is greater than maxLen %llu\n",
                 (unsigned long long)Config.MinLength,
                 (unsigned long long)Config.MaxLength);
    return 2;
  }

  std::printf("input: %s  (H=%llu, minLen=%llu, maxLen=%llu)\n\n",
              Input.c_str(), (unsigned long long)Config.HeatThreshold,
              (unsigned long long)Config.MinLength,
              (unsigned long long)Config.MaxLength);

  // Treat each character as a data reference (pc = addr = the character):
  // in the real system the profiler interns (pc, addr) pairs the same way.
  analysis::DataRefTable Refs;
  sequitur::Grammar Grammar;
  for (char C : Input) {
    const auto Ch = static_cast<uint64_t>(static_cast<unsigned char>(C));
    Grammar.append(Refs.intern({Ch, Ch}));
  }

  auto SymbolName = [&Refs](uint32_t Symbol) {
    return std::string(1, static_cast<char>(Refs.refOf(Symbol).Pc));
  };

  std::printf("-- Sequitur grammar (%zu rules, %zu RHS symbols for %zu "
              "input symbols) --\n",
              Grammar.ruleCount(), Grammar.totalRhsSymbols(),
              Grammar.inputLength());
  // Print with single-character terminals; rules are numbered densely, as
  // the analysis table below numbers them.
  const sequitur::GrammarSnapshot Snapshot = Grammar.snapshot();
  for (uint32_t R = 0; R < Snapshot.Rules.size(); ++R) {
    std::printf("R%u ->", R);
    for (const sequitur::GrammarSnapshot::Item &It : Snapshot.Rules[R].Rhs) {
      if (It.IsRule)
        std::printf(" R%u", It.RuleIndex);
      else
        std::printf(" %s",
                    SymbolName(static_cast<uint32_t>(It.Terminal)).c_str());
    }
    std::printf("\n");
  }

  const analysis::FastAnalysisResult Result =
      analysis::analyzeHotStreams(Snapshot, Config);

  std::printf("\n-- fast hot data stream analysis (Figure 5 / Table 1) "
              "--\n");
  Table Out;
  Out.row()
      .cell("rule")
      .cell("word")
      .cell("length")
      .cell("index")
      .cell("uses")
      .cell("coldUses")
      .cell("heat")
      .cell("hot?");
  for (uint32_t R = 0; R < Snapshot.Rules.size(); ++R) {
    const analysis::RuleAnalysis &A = Result.PerRule[R];
    std::string Word;
    for (uint64_t T : Snapshot.expand(R))
      Word += SymbolName(static_cast<uint32_t>(T));
    if (Word.size() > 24)
      Word = Word.substr(0, 21) + "...";
    Out.row()
        .cell(formatString("R%u", R))
        .cell(Word)
        .cell(uint64_t{A.Length})
        .cell(uint64_t{A.Index})
        .cell(uint64_t{A.Uses})
        .cell(uint64_t{A.ColdUses})
        .cell(uint64_t{A.Heat})
        .cell(R == 0 ? "start" : (A.Hot ? "HOT" : "cold"));
  }
  Out.print();

  if (Result.Streams.empty()) {
    std::printf("\nno hot data streams at these thresholds\n");
    return 0;
  }

  std::printf("\n-- hot data streams (%.0f%% of the trace) --\n",
              100.0 * Result.coverage());
  std::vector<std::vector<uint32_t>> StreamSymbols;
  for (const analysis::HotDataStream &Stream : Result.Streams) {
    std::string Word;
    for (uint32_t S : Stream.Symbols)
      Word += SymbolName(S);
    std::printf("  %-24s heat=%llu frequency=%llu\n", Word.c_str(),
                (unsigned long long)Stream.Heat,
                (unsigned long long)Stream.Frequency);
    StreamSymbols.push_back(Stream.Symbols);
  }

  dfsm::DfsmConfig MachineConfig;
  MachineConfig.HeadLength = 2;
  dfsm::PrefixDfsm Machine(StreamSymbols, MachineConfig);
  std::printf("\n-- prefix-matching DFSM (headLen=2) --\n");
  std::printf("%zu states, %zu transitions (%zu streams too short to "
              "prefetch)\n",
              Machine.stateCount(), Machine.transitionCount(),
              Machine.skippedStreamCount());
  for (dfsm::StateId S = 0; S < Machine.stateCount(); ++S) {
    std::printf("  state %u = {", S);
    bool FirstElement = true;
    for (const dfsm::StateElement &E : Machine.elementsOf(S)) {
      std::printf("%s[v%u,%u]", FirstElement ? "" : ", ", E.Stream, E.Seen);
      FirstElement = false;
    }
    std::printf("}%s\n",
                Machine.completionsAt(S).empty() ? "" : "  <- prefetch!");
  }

  const dfsm::CheckCode Code = dfsm::generateCheckCode(Machine, Refs);
  std::printf("\n-- generated detection/prefetching code (Figure 7 shape; "
              "%zu clauses) --\n%s",
              Code.totalClauses(), Code.dump().c_str());
  return 0;
}
