//===- core/DynamicOptimizer.cpp - Profile/analyze/optimize cycle ---------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "core/DynamicOptimizer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <unordered_map>

using namespace hds;
using namespace hds::core;

const char *hds::core::runModeName(RunMode Mode) {
  switch (Mode) {
  case RunMode::Original:
    return "Original";
  case RunMode::ChecksOnly:
    return "Base";
  case RunMode::Profile:
    return "Prof";
  case RunMode::ProfileAnalyze:
    return "Hds";
  case RunMode::MatchNoPrefetch:
    return "No-pref";
  case RunMode::SequentialPrefetch:
    return "Seq-pref";
  case RunMode::DynamicPrefetch:
    return "Dyn-pref";
  }
  return "unknown";
}

const char *hds::core::runModeToken(RunMode Mode) {
  switch (Mode) {
  case RunMode::Original:
    return "original";
  case RunMode::ChecksOnly:
    return "base";
  case RunMode::Profile:
    return "prof";
  case RunMode::ProfileAnalyze:
    return "hds";
  case RunMode::MatchNoPrefetch:
    return "nopref";
  case RunMode::SequentialPrefetch:
    return "seqpref";
  case RunMode::DynamicPrefetch:
    return "dynpref";
  }
  return "unknown";
}

const std::vector<RunMode> &hds::core::allRunModes() {
  static const std::vector<RunMode> All = {
      RunMode::Original,        RunMode::ChecksOnly,
      RunMode::Profile,         RunMode::ProfileAnalyze,
      RunMode::MatchNoPrefetch, RunMode::SequentialPrefetch,
      RunMode::DynamicPrefetch};
  return All;
}

std::string hds::core::runModeTokenList() {
  std::string Out;
  for (RunMode Mode : allRunModes()) {
    if (!Out.empty())
      Out += '|';
    Out += runModeToken(Mode);
  }
  return Out;
}

bool hds::core::parseRunModeToken(const std::string &Token, RunMode &Mode) {
  for (RunMode M : allRunModes())
    if (Token == runModeToken(M)) {
      Mode = M;
      return true;
    }
  return false;
}

void DynamicOptimizer::onCheckEvent(profiling::CheckEvent Event) {
  if (Pinned)
    return; // static-scheme model: the installed code stays as-is
  switch (Event) {
  case profiling::CheckEvent::None:
    break;
  case profiling::CheckEvent::AwakeEnded:
    analyzeAndOptimize();
    break;
  case profiling::CheckEvent::HibernationEnded:
    deoptimize();
    break;
  }
}

void DynamicOptimizer::analyzeAndOptimize() {
  Timeline.begin("analysis", Hierarchy.now());
  CycleStats Cycle;
  Cycle.TracedRefs = Profiler.tracedRefCount();
  const sequitur::Grammar &Grammar = Profiler.grammar();
  Cycle.GrammarRules = Grammar.ruleCount();
  Cycle.GrammarSymbols = Grammar.totalRhsSymbols();

  uint64_t Cost = 0;

  if (analysisEnabled(Config.Mode)) {
    // The analysis itself: Sequitur is already built incrementally; what
    // remains is the snapshot plus the linear Figure 5 pass.
    Cost += Cycle.TracedRefs * Config.Costs.AnalysisCyclesPerTracedRef;
    Cost += Cycle.GrammarSymbols * Config.Costs.AnalysisCyclesPerGrammarSymbol;

    analysis::AnalysisConfig AC = Config.Analysis;
    AC.HeatThreshold = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(Cycle.TracedRefs) *
                                 Config.HeatTraceFraction));

    const sequitur::GrammarSnapshot Snapshot = Grammar.snapshot();
    analysis::FastAnalysisResult Result =
        analysis::analyzeHotStreams(Snapshot, AC);
    Cycle.HotStreamsDetected = Result.Streams.size();

    if (injectionEnabled(Config.Mode) && !Result.Streams.empty()) {
      // Hottest first, then filter to prefetchable streams: a non-empty
      // tail beyond the matched head and enough unique references to be
      // worth the injected checks (Section 4.1).
      std::sort(Result.Streams.begin(), Result.Streams.end(),
                [](const analysis::HotDataStream &A,
                   const analysis::HotDataStream &B) {
                  return A.Heat > B.Heat;
                });

      const analysis::DataRefTable &Refs = Profiler.refTable();

      // Sampled traffic per pc (from the profiler) is used to place each
      // installed stream's matched head at quiet program points:
      // Sequitur sees bursts starting at arbitrary phases, so a detected
      // stream is often a rotation of the underlying repeating sequence
      // — matching its literal first references would inject checks into
      // the hottest loop pcs, whose every execution would then scan the
      // check clauses (the same concern behind the paper's "sort the
      // if-branches" note).  Dropping a short prefix is always sound: a
      // suffix of a recurring sequence recurs at least as often.
      const uint32_t HeadLen = Config.Dfsm.HeadLength;
      auto HeadCostAt = [&](const std::vector<uint32_t> &Symbols,
                            size_t Pos) {
        uint64_t Sum = 0;
        for (uint32_t H = 0; H < HeadLen; ++H)
          Sum += Profiler.pcSampleCount(Refs.refOf(Symbols[Pos + H]).Pc);
        return Sum;
      };
      auto FindQuietHead =
          [&](const std::vector<uint32_t> &Symbols) -> size_t {
        constexpr size_t MinTailRefs = 4;
        if (Symbols.size() < HeadLen + MinTailRefs + 1)
          return 0;
        const size_t Limit = Symbols.size() - (HeadLen + MinTailRefs);
        size_t Best = 0;
        uint64_t BestCost = ~uint64_t{0};
        for (size_t Pos = 0; Pos <= Limit; ++Pos) {
          const uint64_t PosCost = HeadCostAt(Symbols, Pos);
          if (PosCost < BestCost) {
            BestCost = PosCost;
            Best = Pos;
          }
        }
        return Best;
      };

      std::vector<std::vector<uint32_t>> StreamSymbols;
      // Per-reference record of the highest frequency among installed
      // streams covering it.  A candidate only counts as "covered" where
      // an at-least-as-frequent stream already prefetches the reference:
      // a long, rarely-recurring super-sequence (e.g. two chains merged
      // across a coincidental noise alignment) must not block the
      // frequently-matching streams inside it.
      std::unordered_map<uint32_t, uint64_t> CoveredBy;
      for (const analysis::HotDataStream &Stream : Result.Streams) {
        if (StreamSymbols.size() >= Config.MaxStreamsPerCycle)
          break;

        const size_t HeadPos =
            Config.QuietHeadPlacement ? FindQuietHead(Stream.Symbols) : 0;
        std::vector<uint32_t> Symbols(
            Stream.Symbols.begin() + static_cast<ptrdiff_t>(HeadPos),
            Stream.Symbols.end());

        const char *Decision = nullptr;
        size_t AlreadyCovered = 0;
        for (uint32_t Symbol : Symbols) {
          auto It = CoveredBy.find(Symbol);
          if (It != CoveredBy.end() && It->second >= Stream.Frequency)
            ++AlreadyCovered;
        }

        if (Symbols.size() <= HeadLen) {
          Decision = "skipped: no tail";
        } else if (static_cast<double>(HeadCostAt(Stream.Symbols, HeadPos)) >
                   Config.MaxHeadTrafficRatio *
                       static_cast<double>(HeadLen) *
                       static_cast<double>(Stream.Frequency)) {
          // Even the quietest head pcs execute mostly for other data
          // (e.g. a strided scan): the per-execution check cost would
          // outweigh the prefetch benefit.
          Decision = "skipped: heads too hot";
        } else if (Stream.uniqueRefs() <= Config.MinUniqueRefs) {
          Decision = "skipped: too few unique refs";
        } else if (static_cast<double>(AlreadyCovered) >
                   Config.MaxInstalledOverlap *
                       static_cast<double>(Symbols.size())) {
          // Rotations and substrings of hotter streams add checks but no
          // new prefetch opportunities.
          Decision = "skipped: covered by hotter stream";
        } else {
          Decision = "installed";
          for (uint32_t Symbol : Symbols) {
            uint64_t &Freq = CoveredBy[Symbol];
            Freq = std::max(Freq, Stream.Frequency);
          }
          StreamSymbols.push_back(std::move(Symbols));
        }

        if (Config.VerboseAnalysis) {
          const analysis::DataRef &First = Refs.refOf(Stream.Symbols[0]);
          std::fprintf(stderr,
                       "  stream len=%-4zu freq=%-5llu heat=%-7llu "
                       "unique=%-4llu firstPc=%-4llu trim=%zu  %s\n",
                       Stream.Symbols.size(),
                       (unsigned long long)Stream.Frequency,
                       (unsigned long long)Stream.Heat,
                       (unsigned long long)Stream.uniqueRefs(),
                       (unsigned long long)First.Pc,
                       FindQuietHead(Stream.Symbols), Decision);
          if (Decision[0] == 'i') { // installed: show the reference list
            std::fprintf(stderr, "    refs:");
            for (uint32_t Symbol : StreamSymbols.back()) {
              const analysis::DataRef &Ref = Refs.refOf(Symbol);
              std::fprintf(stderr, " %llu:%llx", (unsigned long long)Ref.Pc,
                           (unsigned long long)Ref.Addr);
            }
            std::fprintf(stderr, "\n");
          }
        }
      }

      if (!StreamSymbols.empty()) {
        dfsm::PrefixDfsm Machine(StreamSymbols, Config.Dfsm);
        Cost += Machine.transitionCount() *
                Config.Costs.DfsmCyclesPerTransition;

        dfsm::CheckCode Code = dfsm::generateCheckCode(Machine, Refs);

        // Prefetch targets: the addresses of each stream's tail.
        std::vector<PrefetchEngine::InstalledStream> Installed;
        Installed.reserve(StreamSymbols.size());
        for (const auto &Symbols : StreamSymbols) {
          PrefetchEngine::InstalledStream S;
          for (size_t I = Config.Dfsm.HeadLength; I < Symbols.size(); ++I)
            S.TailAddrs.push_back(Refs.refOf(Symbols[I]).Addr);
          Installed.push_back(std::move(S));
        }

        // Inject with dynamic Vulcan: copy + patch every procedure that
        // contains an instrumented pc.
        std::vector<vulcan::SiteId> Pcs;
        Pcs.reserve(Code.Sites.size());
        for (const dfsm::SiteCheckCode &Site : Code.Sites)
          Pcs.push_back(Site.Pc);
        const vulcan::PatchResult Patch = TheImage.applyPatch(Pcs);
        Cost += Patch.ProceduresModified * Config.Costs.PatchCyclesPerProcedure;

        Cycle.StreamsInstalled = StreamSymbols.size();
        Cycle.DfsmStates = Machine.stateCount();
        Cycle.DfsmTransitions = Machine.transitionCount();
        Cycle.CheckClausesInjected = Code.totalClauses();
        Cycle.ProceduresModified = Patch.ProceduresModified;
        Cycle.SitesInstrumented = Patch.SitesInstrumented;

        Engine.install(std::move(Code), std::move(Installed),
                       TheImage.siteCount(),
                       /*InstallCycle=*/Stats.Cycles.size());
        if (Config.PinFirstOptimization)
          Pinned = true;
      }

      if (Config.AdaptiveHibernation)
        adaptHibernation(StreamSymbols);
    }
  }

  Cycle.AnalysisCostCycles = Cost;
  Cycle.NextHibernationPeriods = Tracer.config().NHibernate;
  Hierarchy.tick(Cost, obs::CyclePhase::Analysis);
  Stats.Cycles.push_back(Cycle);
  Timeline.begin("hibernation", Hierarchy.now());
}

void DynamicOptimizer::adaptHibernation(
    const std::vector<std::vector<uint32_t>> &Streams) {
  // Compare this cycle's covered references against the previous
  // cycle's: stable behaviour -> hibernate twice as long (bounded);
  // changed behaviour -> back to the configured base.  References are
  // compared by (pc, addr): an id only names a reference within its cycle.
  const analysis::DataRefTable &Refs = Profiler.refTable();
  std::vector<analysis::DataRef> Covered;
  for (const auto &Symbols : Streams)
    for (uint32_t Symbol : Symbols)
      Covered.push_back(Refs.refOf(Symbol));
  std::sort(Covered.begin(), Covered.end());
  Covered.erase(std::unique(Covered.begin(), Covered.end()), Covered.end());

  std::vector<analysis::DataRef> Common;
  std::set_intersection(Covered.begin(), Covered.end(),
                        LastCoveredRefs.begin(), LastCoveredRefs.end(),
                        std::back_inserter(Common));
  const size_t Intersection = Common.size();
  const size_t Union =
      Covered.size() + LastCoveredRefs.size() - Intersection;
  const double Similarity =
      Union == 0 ? 0.0
                 : static_cast<double>(Intersection) /
                       static_cast<double>(Union);

  const uint64_t Base = Config.Tracing.NHibernate;
  if (CurrentHibernate == 0)
    CurrentHibernate = Base;
  if (!Covered.empty() && Similarity >= Config.AdaptiveStabilityThreshold)
    CurrentHibernate = std::min(CurrentHibernate * 2,
                                Base * Config.AdaptiveHibernationMaxFactor);
  else
    CurrentHibernate = Base;

  Tracer.setHibernationLength(CurrentHibernate);
  LastCoveredRefs = std::move(Covered);
}

void DynamicOptimizer::deoptimize() {
  if (Engine.installed()) {
    Engine.uninstall();
    TheImage.removePatches();
  }
  // Fresh profile for the next cycle; hibernation-phase references were
  // never recorded, so there is no trace contamination to clean up.
  Profiler.startNewCycle();
  Timeline.begin("awake", Hierarchy.now());
}
