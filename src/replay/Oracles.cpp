//===- replay/Oracles.cpp - Differential testing oracles ------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "replay/Oracles.h"

#include "analysis/FastAnalyzer.h"
#include "analysis/PreciseAnalyzer.h"
#include "analysis/SubpathAnalyzer.h"
#include "dfsm/Matchers.h"
#include "dfsm/PrefixDfsm.h"
#include "sequitur/Grammar.h"
#include "support/Table.h"

#include <algorithm>
#include <set>
#include <unordered_set>

using namespace hds;
using namespace hds::replay;

namespace {

OracleReport failWith(std::string Why) {
  OracleReport Report;
  Report.Passed = false;
  Report.Failure = std::move(Why);
  return Report;
}

/// Grammar invariants are O(grammar size) to check, so validating after
/// every single append makes the oracle quadratic.  Checking on a stride
/// still catches invariant breakage (the invariants are maintained
/// incrementally — once broken they stay broken under further appends in
/// every failure mode we care about) while keeping fuzz runs fast.
constexpr size_t InvariantCheckStride = 64;

} // namespace

uint64_t
hds::replay::countNonOverlapping(const std::vector<uint32_t> &Trace,
                                 const std::vector<uint32_t> &Pattern) {
  if (Pattern.empty() || Pattern.size() > Trace.size())
    return 0;
  uint64_t Count = 0;
  auto It = Trace.begin();
  while (true) {
    It = std::search(It, Trace.end(), Pattern.begin(), Pattern.end());
    if (It == Trace.end())
      return Count;
    ++Count;
    It += static_cast<ptrdiff_t>(Pattern.size());
  }
}

//===----------------------------------------------------------------------===//
// Grammar oracle
//===----------------------------------------------------------------------===//

OracleReport
hds::replay::checkGrammarOracle(const std::vector<uint32_t> &Trace) {
  sequitur::Grammar G;
  std::string Why;
  for (size_t I = 0; I < Trace.size(); ++I) {
    G.append(Trace[I]);
    if ((I + 1) % InvariantCheckStride == 0 && !G.checkInvariants(&Why))
      return failWith(formatString("after %zu appends: ", I + 1) + Why);
  }
  if (!G.checkInvariants(&Why))
    return failWith("at end of input: " + Why);

  if (G.inputLength() != Trace.size())
    return failWith(formatString("input length %zu, appended %zu",
                                 G.inputLength(), Trace.size()));
  const std::vector<uint64_t> Expanded = G.expandRule(*G.start());
  if (Expanded.size() != Trace.size())
    return failWith(formatString("expansion has %zu symbols, input %zu",
                                 Expanded.size(), Trace.size()));
  for (size_t I = 0; I < Trace.size(); ++I)
    if (Expanded[I] != Trace[I])
      return failWith(formatString("expansion diverges from input at "
                                   "position %zu (%llu != %llu)",
                                   I, (unsigned long long)Expanded[I],
                                   (unsigned long long)Trace[I]));
  return OracleReport();
}

//===----------------------------------------------------------------------===//
// Analyzer oracle
//===----------------------------------------------------------------------===//

OracleReport
hds::replay::checkAnalyzerOracle(const std::vector<uint32_t> &Trace,
                                 const analysis::AnalysisConfig &Config) {
  sequitur::Grammar G;
  for (uint32_t Symbol : Trace)
    G.append(Symbol);
  const analysis::FastAnalysisResult Fast =
      analysis::analyzeHotStreams(G.snapshot(), Config);
  const analysis::PreciseAnalysisResult Precise =
      analysis::analyzeHotStreamsPrecisely(Trace, Config);

  if (Fast.TraceLength != Trace.size())
    return failWith(formatString("fast analyzer saw trace length %llu, "
                                 "actual %zu",
                                 (unsigned long long)Fast.TraceLength,
                                 Trace.size()));
  if (Precise.TraceLength != Trace.size())
    return failWith(formatString("precise analyzer saw trace length %llu, "
                                 "actual %zu",
                                 (unsigned long long)Precise.TraceLength,
                                 Trace.size()));

  // Fast streams: each must honour the config bounds and really occur in
  // the trace at least Frequency times without overlap (Frequency is a
  // count of parse-tree occurrences, which are disjoint substrings).
  uint64_t HeatSum = 0;
  uint64_t MaxFastHeat = 0;
  for (size_t I = 0; I < Fast.Streams.size(); ++I) {
    const analysis::HotDataStream &S = Fast.Streams[I];
    if (S.length() < Config.MinLength || S.length() > Config.MaxLength)
      return failWith(formatString("fast stream %zu has length %llu, "
                                   "outside [%llu, %llu]",
                                   I, (unsigned long long)S.length(),
                                   (unsigned long long)Config.MinLength,
                                   (unsigned long long)Config.MaxLength));
    if (S.Frequency == 0 || S.Heat != S.length() * S.Frequency)
      return failWith(formatString("fast stream %zu heat %llu != length "
                                   "%llu * frequency %llu",
                                   I, (unsigned long long)S.Heat,
                                   (unsigned long long)S.length(),
                                   (unsigned long long)S.Frequency));
    if (S.Heat < Config.HeatThreshold)
      return failWith(formatString("fast stream %zu heat %llu below "
                                   "threshold %llu",
                                   I, (unsigned long long)S.Heat,
                                   (unsigned long long)Config.HeatThreshold));
    const uint64_t Occurrences = countNonOverlapping(Trace, S.Symbols);
    if (Occurrences < S.Frequency)
      return failWith(formatString("fast stream %zu claims frequency %llu "
                                   "but only %llu non-overlapping "
                                   "occurrences exist",
                                   I, (unsigned long long)S.Frequency,
                                   (unsigned long long)Occurrences));
    HeatSum += S.Heat;
    MaxFastHeat = std::max(MaxFastHeat, S.Heat);
  }
  if (Fast.TotalHeat != HeatSum)
    return failWith(formatString("fast TotalHeat %llu != sum of stream "
                                 "heats %llu",
                                 (unsigned long long)Fast.TotalHeat,
                                 (unsigned long long)HeatSum));
  // Cold-uses accounting never double-counts a trace position, so the
  // reported streams cannot cover more than the whole trace.
  if (Fast.TotalHeat > Fast.TraceLength)
    return failWith(formatString("fast TotalHeat %llu exceeds trace "
                                 "length %llu",
                                 (unsigned long long)Fast.TotalHeat,
                                 (unsigned long long)Fast.TraceLength));

  // Precise streams: frequencies are exact, ordering is hottest-first,
  // and Frequency >= 2 by definition of a recurring stream.
  uint64_t MaxPreciseHeat = 0;
  for (size_t I = 0; I < Precise.Streams.size(); ++I) {
    const analysis::HotDataStream &S = Precise.Streams[I];
    if (S.length() < Config.MinLength || S.length() > Config.MaxLength)
      return failWith(formatString("precise stream %zu has length %llu, "
                                   "outside [%llu, %llu]",
                                   I, (unsigned long long)S.length(),
                                   (unsigned long long)Config.MinLength,
                                   (unsigned long long)Config.MaxLength));
    if (S.Frequency < 2)
      return failWith(formatString("precise stream %zu frequency %llu < 2",
                                   I, (unsigned long long)S.Frequency));
    if (S.Heat != S.length() * S.Frequency ||
        S.Heat < Config.HeatThreshold)
      return failWith(formatString("precise stream %zu heat %llu "
                                   "inconsistent or below threshold",
                                   I, (unsigned long long)S.Heat));
    const uint64_t Occurrences = countNonOverlapping(Trace, S.Symbols);
    if (Occurrences != S.Frequency)
      return failWith(formatString("precise stream %zu frequency %llu but "
                                   "greedy recount gives %llu",
                                   I, (unsigned long long)S.Frequency,
                                   (unsigned long long)Occurrences));
    if (I > 0 && S.Heat > Precise.Streams[I - 1].Heat)
      return failWith(formatString("precise streams not sorted "
                                   "hottest-first at index %zu",
                                   I));
    MaxPreciseHeat = std::max(MaxPreciseHeat, S.Heat);
  }

  // The exact detector can only find hotter-or-equal streams than the
  // grammar approximation (the property the paper trades away precision
  // for, locked down by the FastNeverBeatsPrecise unit test).
  if (MaxFastHeat > MaxPreciseHeat)
    return failWith(formatString("fast analyzer's hottest stream (heat "
                                 "%llu) beats the precise detector's "
                                 "(heat %llu)",
                                 (unsigned long long)MaxFastHeat,
                                 (unsigned long long)MaxPreciseHeat));
  return OracleReport();
}

//===----------------------------------------------------------------------===//
// DFSM oracle
//===----------------------------------------------------------------------===//

OracleReport
hds::replay::checkDfsmOracle(const std::vector<uint32_t> &Trace,
                             const std::vector<std::vector<uint32_t>> &Streams,
                             uint32_t HeadLength) {
  if (HeadLength == 0)
    return failWith("head length must be at least 1");

  dfsm::DfsmConfig Config;
  Config.HeadLength = HeadLength;
  const dfsm::PrefixDfsm M(Streams, Config);
  dfsm::ReferenceMatcher Ref(Streams, HeadLength);

  // Part 1: the DFSM is step-for-step equivalent to the executable
  // specification — same element sets, same completions.  When
  // construction hit the state limit, unexpanded states legitimately
  // reset early and equivalence is not promised.
  if (!M.hitStateLimit()) {
    dfsm::StateId State = M.startState();
    for (size_t I = 0; I < Trace.size(); ++I) {
      State = M.step(State, Trace[I]);
      std::vector<dfsm::StreamIndex> RefCompleted = Ref.step(Trace[I]);
      if (!(M.elementsOf(State) == Ref.elements()))
        return failWith(formatString("DFSM state elements diverge from the "
                                     "reference matcher at step %zu",
                                     I));
      std::vector<dfsm::StreamIndex> DfsmCompleted = M.completionsAt(State);
      std::sort(DfsmCompleted.begin(), DfsmCompleted.end());
      std::sort(RefCompleted.begin(), RefCompleted.end());
      if (DfsmCompleted != RefCompleted)
        return failWith(formatString("DFSM completions diverge from the "
                                     "reference matcher at step %zu",
                                     I));
    }
  }

  // Part 2: every completion the scalar matcher bank (Figure 7) reports
  // is a genuine head occurrence in the trace *as that stream sees it*:
  // a per-stream counter is only consulted at its own head pcs, so the
  // last HeadLength consulted symbols must spell the head exactly.
  uint32_t MaxSymbol = 0;
  for (const std::vector<uint32_t> &S : Streams)
    for (uint32_t Symbol : S)
      MaxSymbol = std::max(MaxSymbol, Symbol);
  for (uint32_t Symbol : Trace)
    MaxSymbol = std::max(MaxSymbol, Symbol);
  std::vector<uint64_t> IdentityPcs(static_cast<size_t>(MaxSymbol) + 1);
  for (size_t I = 0; I < IdentityPcs.size(); ++I)
    IdentityPcs[I] = I;

  dfsm::ScalarMatcherBank Bank(Streams, HeadLength, IdentityPcs);
  std::vector<std::unordered_set<uint32_t>> HeadSymbols(Streams.size());
  std::vector<std::vector<uint32_t>> Consulted(Streams.size());
  for (size_t S = 0; S < Streams.size(); ++S)
    if (Streams[S].size() > HeadLength)
      HeadSymbols[S].insert(Streams[S].begin(),
                            Streams[S].begin() + HeadLength);

  for (size_t I = 0; I < Trace.size(); ++I) {
    const uint32_t Symbol = Trace[I];
    for (size_t S = 0; S < Streams.size(); ++S)
      if (HeadSymbols[S].count(Symbol))
        Consulted[S].push_back(Symbol);
    const std::vector<dfsm::StreamIndex> Completed =
        Bank.step(Symbol, IdentityPcs[Symbol]);
    for (dfsm::StreamIndex S : Completed) {
      const std::vector<uint32_t> &History = Consulted[S];
      if (History.size() < HeadLength ||
          !std::equal(Streams[S].begin(), Streams[S].begin() + HeadLength,
                      History.end() - HeadLength))
        return failWith(formatString("scalar matcher completed stream %u "
                                     "at step %zu without a real head "
                                     "occurrence",
                                     S, I));
    }
  }
  return OracleReport();
}

//===----------------------------------------------------------------------===//
// Full suite
//===----------------------------------------------------------------------===//

AnalyzerAgreement hds::replay::compareSubpathWithPrecise(
    const std::vector<uint32_t> &Trace,
    const analysis::AnalysisConfig &Config) {
  sequitur::Grammar G;
  for (uint32_t Symbol : Trace)
    G.append(Symbol);
  std::set<std::vector<uint32_t>> Subpath, Precise;
  for (const analysis::HotDataStream &S :
       analysis::analyzeHotSubpaths(G.snapshot(), Config).Streams)
    Subpath.insert(S.Symbols);
  for (const analysis::HotDataStream &S :
       analysis::analyzeHotStreamsPrecisely(Trace, Config).Streams)
    Precise.insert(S.Symbols);

  AnalyzerAgreement Agreement;
  for (const std::vector<uint32_t> &S : Subpath)
    Agreement.SubpathOnly += Precise.count(S) == 0;
  for (const std::vector<uint32_t> &S : Precise)
    Agreement.PreciseOnly += Subpath.count(S) == 0;
  return Agreement;
}

OracleReport
hds::replay::runOracleSuite(const std::vector<uint32_t> &Trace,
                            const analysis::AnalysisConfig &Config,
                            uint32_t HeadLength) {
  OracleReport Report = checkGrammarOracle(Trace);
  if (!Report.Passed) {
    Report.Failure = "grammar oracle: " + Report.Failure;
    return Report;
  }
  Report = checkAnalyzerOracle(Trace, Config);
  if (!Report.Passed) {
    Report.Failure = "analyzer oracle: " + Report.Failure;
    return Report;
  }

  // Match the streams the pipeline itself would inject: the fast
  // analyzer's output.  An empty stream set is a legitimate outcome and
  // still exercises the matchers' no-transition paths.
  sequitur::Grammar G;
  for (uint32_t Symbol : Trace)
    G.append(Symbol);
  const analysis::FastAnalysisResult Fast =
      analysis::analyzeHotStreams(G.snapshot(), Config);
  std::vector<std::vector<uint32_t>> Streams;
  Streams.reserve(Fast.Streams.size());
  for (const analysis::HotDataStream &S : Fast.Streams)
    Streams.push_back(S.Symbols);

  Report = checkDfsmOracle(Trace, Streams, HeadLength);
  if (!Report.Passed)
    Report.Failure = "dfsm oracle: " + Report.Failure;
  return Report;
}
