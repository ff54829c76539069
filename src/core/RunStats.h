//===- core/RunStats.h - Per-run and per-cycle statistics ------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters collected while running a benchmark under the dynamic
/// optimizer.  CycleStats holds exactly the quantities the paper's Table 2
/// reports per optimization cycle; RunStats aggregates a whole run.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CORE_RUNSTATS_H
#define HDS_CORE_RUNSTATS_H

#include "obs/Metrics.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace core {

/// One profile/analyze/optimize/hibernate cycle (Table 2 row material).
struct CycleStats {
  uint64_t TracedRefs = 0;
  size_t HotStreamsDetected = 0;
  size_t StreamsInstalled = 0; // after unique-refs / head-length filters
  size_t DfsmStates = 0;
  size_t DfsmTransitions = 0;
  size_t CheckClausesInjected = 0;
  size_t ProceduresModified = 0;
  size_t SitesInstrumented = 0;
  uint64_t GrammarRules = 0;
  uint64_t GrammarSymbols = 0;
  uint64_t AnalysisCostCycles = 0;
  /// Hibernation length chosen for the phase following this cycle (only
  /// differs from the configured base under adaptive hibernation).
  uint64_t NextHibernationPeriods = 0;
};

/// Aggregate counters for one run of one benchmark configuration.
struct RunStats {
  /// Completed optimization cycles (Table 2 column 2).
  std::vector<CycleStats> Cycles;

  uint64_t TotalAccesses = 0;
  uint64_t ChecksExecuted = 0;
  uint64_t TracedRefs = 0;

  /// Prefix matching activity during hibernation phases.
  uint64_t InstrumentedSiteHits = 0; // accesses at pcs carrying checks
  uint64_t MatchClausesScanned = 0;
  uint64_t CompleteMatches = 0;
  uint64_t PrefetchesRequested = 0;

  /// Procedure-entry events that ran stale (pre-patch) code because their
  /// activation record predates the binary modification (Section 3.2).
  uint64_t StaleFrameAccesses = 0;
};

/// \name Stable metric enumerations
/// Typed field enumeration with a fixed, append-only order shared by
/// the results JSON writer and reader (the metric ids are the JSON
/// keys).  \p Visit is invoked once per scalar counter with its
/// obs::MetricDef and a reference to the field; pass a const struct to
/// read and a mutable one to fill during decode.  New fields must be
/// appended at the end, never reordered or removed (see obs/Metrics.h).
/// @{
template <typename CycleStatsT, typename Fn>
void visitCycleStatsMetrics(CycleStatsT &&Stats, Fn &&Visit) {
  using obs::MetricDef;
  using obs::MetricKind;
  Visit(MetricDef{"traced_refs", "references",
                  "data references recorded by the profiler this cycle"},
        Stats.TracedRefs);
  Visit(MetricDef{"hot_streams_detected", "streams",
                  "hot data streams the analysis extracted"},
        Stats.HotStreamsDetected);
  Visit(MetricDef{"streams_installed", "streams",
                  "streams surviving the install filters"},
        Stats.StreamsInstalled);
  Visit(MetricDef{"dfsm_states", "states",
                  "states of the generated prefix-match DFSM",
                  MetricKind::Gauge},
        Stats.DfsmStates);
  Visit(MetricDef{"dfsm_transitions", "transitions",
                  "transitions of the generated prefix-match DFSM",
                  MetricKind::Gauge},
        Stats.DfsmTransitions);
  Visit(MetricDef{"check_clauses_injected", "clauses",
                  "check clauses injected into the binary"},
        Stats.CheckClausesInjected);
  Visit(MetricDef{"procedures_modified", "procedures",
                  "procedures copied and patched by dynamic Vulcan"},
        Stats.ProceduresModified);
  Visit(MetricDef{"sites_instrumented", "sites",
                  "access sites carrying injected checks"},
        Stats.SitesInstrumented);
  Visit(MetricDef{"grammar_rules", "rules",
                  "Sequitur grammar rules at analysis time",
                  MetricKind::Gauge},
        Stats.GrammarRules);
  Visit(MetricDef{"grammar_symbols", "symbols",
                  "Sequitur right-hand-side symbols at analysis time",
                  MetricKind::Gauge},
        Stats.GrammarSymbols);
  Visit(MetricDef{"analysis_cost_cycles", "cycles",
                  "simulated cost charged for this analysis step"},
        Stats.AnalysisCostCycles);
  Visit(MetricDef{"next_hibernation_periods", "periods",
                  "hibernation length chosen for the following phase",
                  MetricKind::Gauge},
        Stats.NextHibernationPeriods);
}

template <typename RunStatsT, typename Fn>
void visitRunStatsMetrics(RunStatsT &&Stats, Fn &&Visit) {
  using obs::MetricDef;
  Visit(MetricDef{"accesses", "accesses",
                  "data references the workload executed"},
        Stats.TotalAccesses);
  Visit(MetricDef{"checks_executed", "checks",
                  "dynamic checks at entries and back edges"},
        Stats.ChecksExecuted);
  Visit(MetricDef{"traced_refs", "references",
                  "references recorded across all awake phases"},
        Stats.TracedRefs);
  Visit(MetricDef{"instrumented_site_hits", "accesses",
                  "accesses at pcs carrying injected checks"},
        Stats.InstrumentedSiteHits);
  Visit(MetricDef{"match_clauses_scanned", "clauses",
                  "check clauses scanned during prefix matching"},
        Stats.MatchClausesScanned);
  Visit(MetricDef{"complete_matches", "matches",
                  "complete prefix matches (streams fired)"},
        Stats.CompleteMatches);
  Visit(MetricDef{"prefetches_requested", "prefetches",
                  "prefetches the injected code requested"},
        Stats.PrefetchesRequested);
  Visit(MetricDef{"stale_frame_accesses", "accesses",
                  "accesses that ran stale pre-patch code"},
        Stats.StaleFrameAccesses);
}
/// @}

} // namespace core
} // namespace hds

#endif // HDS_CORE_RUNSTATS_H
