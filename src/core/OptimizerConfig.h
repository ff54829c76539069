//===- core/OptimizerConfig.h - All system knobs ---------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration for the whole dynamic prefetching system: run mode,
/// bursty tracing counters, analysis thresholds, DFSM head length, and the
/// cycle-cost model that stands in for real instrumented-code execution
/// cost.  Defaults follow Section 4.1 of the paper, scaled so a full
/// profile/analyze/optimize/hibernate cycle fits a simulation run (see
/// DESIGN.md §4).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CORE_OPTIMIZERCONFIG_H
#define HDS_CORE_OPTIMIZERCONFIG_H

#include "analysis/HotDataStream.h"
#include "dfsm/PrefixDfsm.h"
#include "memsim/Cache.h"
#include "memsim/MemoryHierarchy.h"
#include "prefetch/PrefetcherStack.h"
#include "profiling/BurstyTracer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace core {

/// Which slice of the system is active — one mode per bar of the paper's
/// Figures 11 and 12.
enum class RunMode : uint8_t {
  /// The unmodified program: no checks, no tracing.  Normalization
  /// baseline for every overhead percentage.
  Original,
  /// Figure 11 "Base": dynamic checks execute but (virtually) no data
  /// references are profiled (nCheck extremely large, nInstr = 1).
  ChecksOnly,
  /// Figure 11 "Prof": checks + sampled temporal data reference
  /// collection into Sequitur at the configured counter settings.
  Profile,
  /// Figure 11 "Hds": Prof + hot data stream analysis at the end of each
  /// awake phase (results discarded).
  ProfileAnalyze,
  /// Figure 12 "No-pref": full pipeline including DFSM construction,
  /// code injection and prefix matching — but no prefetches are issued.
  MatchNoPrefetch,
  /// Figure 12 "Seq-pref": on a prefix match, prefetch the cache blocks
  /// that sequentially follow the last matched reference instead of the
  /// stream's addresses.
  SequentialPrefetch,
  /// Figure 12 "Dyn-pref": the paper's scheme — prefetch the remaining
  /// stream addresses.
  DynamicPrefetch,
};

/// Returns a short printable name ("Dyn-pref" etc.) for \p Mode.
const char *runModeName(RunMode Mode);

/// Returns the stable command-line token ("dynpref" etc.) for \p Mode.
/// Tokens are the vocabulary of hds_run --mode, hds_matrix filters, and
/// the machine-readable results JSON.
const char *runModeToken(RunMode Mode);

/// Parses a command-line token (original, base, prof, hds, nopref,
/// seqpref, dynpref) into \p Mode.  Returns false for unknown tokens.
bool parseRunModeToken(const std::string &Token, RunMode &Mode);

/// Every RunMode in canonical (paper figure) order — the single source
/// for CLI usage text, filter vocabularies, and mode enumerations, so
/// token lists never drift from the enum.
const std::vector<RunMode> &allRunModes();

/// "original|base|prof|hds|nopref|seqpref|dynpref", generated from
/// allRunModes() — the usage-text form of the mode vocabulary.
std::string runModeTokenList();

/// \name Feature ladder: each mode includes everything below it.
/// @{
inline bool checksEnabled(RunMode Mode) { return Mode >= RunMode::ChecksOnly; }
inline bool tracingEnabled(RunMode Mode) { return Mode >= RunMode::Profile; }
inline bool analysisEnabled(RunMode Mode) {
  return Mode >= RunMode::ProfileAnalyze;
}
inline bool injectionEnabled(RunMode Mode) {
  return Mode >= RunMode::MatchNoPrefetch;
}
inline bool prefetchingEnabled(RunMode Mode) {
  return Mode >= RunMode::SequentialPrefetch;
}
/// @}

/// Simulated-cycle costs of the software machinery.  These stand in for
/// the execution cost of real injected x86 code; DESIGN.md §4 documents
/// the calibration against the paper's Figure 11 overhead ranges.
struct CostModel {
  /// One dynamic check in checking code (Figure 11 "Base" driver).
  uint64_t CheckCycles = 4;
  /// Tracing one data reference in instrumented code: interning the
  /// (pc, addr) pair, appending to Sequitur (hash probes, possible rule
  /// restructuring), and buffering — a few hundred instructions of real
  /// work per sampled reference.
  uint64_t TraceRefCycles = 150;
  /// Hot data stream analysis, per grammar symbol (Figure 11 "Hds").
  uint64_t AnalysisCyclesPerGrammarSymbol = 60;
  /// Analysis bookkeeping per traced reference (Sequitur flush etc.).
  uint64_t AnalysisCyclesPerTracedRef = 20;
  /// DFSM construction, per created transition.
  uint64_t DfsmCyclesPerTransition = 200;
  /// Dynamic Vulcan procedure copy + jump overwrite, per procedure
  /// (threads are stopped while binary modifications are in progress).
  uint64_t PatchCyclesPerProcedure = 5'000;
  /// Scanning one injected check clause at an instrumented pc.
  uint64_t MatchClauseCycles = 1;
};

/// Everything the system needs to run one benchmark configuration.
struct OptimizerConfig {
  RunMode Mode = RunMode::DynamicPrefetch;

  /// Bursty tracing counters.  The defaults keep the paper's 0.5%
  /// awake-phase sampling rate with bursts of 30 checks, but shrink the
  /// burst-period and phase lengths so several optimization cycles fit in
  /// a simulated run.  The burst-period (nCheck0 + nInstr0 = 6037) is
  /// prime so that deterministic sampling of a periodic program does not
  /// alias onto a fixed phase of its loop (a burst-period that divides
  /// the program's check period would sample the same code every burst).
  profiling::BurstyTracingConfig Tracing = {
      /*NCheck0=*/6'007, /*NInstr0=*/30,
      /*NAwake=*/50, /*NHibernate=*/150,
      /*HibernationEnabled=*/true};

  /// Hot data stream thresholds; HeatThreshold is recomputed every cycle
  /// from HeatTraceFraction.
  analysis::AnalysisConfig Analysis = {/*MinLength=*/10, /*MaxLength=*/100,
                                       /*HeatThreshold=*/0};
  /// A stream must account for at least this fraction of the collected
  /// trace (Section 4.1 uses 1%).
  double HeatTraceFraction = 0.01;
  /// Streams must contain more than this many unique references
  /// (Section 4.1 uses 10).
  uint64_t MinUniqueRefs = 10;
  /// Hottest-first cap on streams handed to the DFSM per cycle.
  uint64_t MaxStreamsPerCycle = 48;
  /// Skip a candidate stream when more than this fraction of its
  /// references is already covered by hotter installed streams.  Sequitur
  /// sees bursts starting at arbitrary phases, so the analysis often
  /// reports several rotations of the same underlying stream; installing
  /// them all multiplies the injected checks without adding prefetch
  /// opportunities.
  double MaxInstalledOverlap = 0.5;
  /// Upper bound on prefetches issued per complete prefix match.  The
  /// paper prefetches the whole tail; hardware bounds outstanding misses,
  /// so issuing far beyond the queue depth only burns issue slots.
  uint64_t MaxPrefetchesPerMatch = 24;
  /// Skip a stream when even its quietest head placement sits on pcs
  /// whose sampled traffic exceeds this multiple of the stream's own
  /// frequency: every execution of an instrumented pc pays the injected
  /// address compares, so checks on pcs that mostly execute for *other*
  /// data (e.g. a strided scan loop) cost more than the stream's
  /// prefetches can recover.
  double MaxHeadTrafficRatio = 40.0;
  /// Place each installed stream's matched head at its quietest window
  /// (see DynamicOptimizer.cpp).  This is an improvement over the paper,
  /// which matches the literal stream prefix; the headLen ablation turns
  /// it off to reproduce the paper's §4.3 prefix-length trade-off.
  bool QuietHeadPlacement = true;

  /// Prefix-match DFSM construction (HeadLength = 2 per Section 4.3).
  dfsm::DfsmConfig Dfsm;

  /// Memory hierarchy (paper's Pentium III shape by default).
  memsim::CacheConfig L1 = memsim::CacheConfig::pentiumIIIL1();
  memsim::CacheConfig L2 = memsim::CacheConfig::pentiumIIIL2();
  memsim::LatencyConfig Latency;

  CostModel Costs;

  /// Orthogonal hardware prefetcher stack (works in any mode): which
  /// members of the prefetcher zoo observe the demand stream.  The
  /// stride prefetcher is the paper's suggested complement ("could
  /// complement our scheme by prefetching data address sequences that do
  /// not qualify as hot data streams", §4.3); Markov is the hardware
  /// technique the paper calls "most similar" to its scheme (§5.1).
  prefetch::StackConfig Prefetchers;

  /// Static-scheme model (the comparison the paper leaves for future
  /// work): keep the *first* successful optimization installed forever —
  /// no deoptimization, no further profiling, and no further framework
  /// overhead (a statically instrumented binary carries only the
  /// prefetch checks).
  bool PinFirstOptimization = false;

  /// Adaptive hibernation (the §5.2 extension the paper points to):
  /// when consecutive optimization cycles detect essentially the same
  /// streams, double the hibernation length (profile less, up to
  /// AdaptiveHibernationMaxFactor times the base); when the stream set
  /// shifts, fall back to the base length.
  bool AdaptiveHibernation = false;
  uint64_t AdaptiveHibernationMaxFactor = 8;
  /// Jaccard similarity of covered references above which two cycles'
  /// stream sets count as "the same behaviour".
  double AdaptiveStabilityThreshold = 0.7;

  /// Print a per-cycle summary of detected streams and selection
  /// decisions to stderr (used by examples/stream_inspector and when
  /// debugging workload/analysis interactions).
  bool VerboseAnalysis = false;
};

} // namespace core
} // namespace hds

#endif // HDS_CORE_OPTIMIZERCONFIG_H
