//===- obs/CycleAccount.h - Attributed simulated-cycle account -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single owner of every simulated cycle.  `CycleAccount` carries the
/// global clock total plus a named attribution phase for each cycle
/// charged, so Figure-11-style overhead breakdowns (base vs. checking vs.
/// profiling vs. analysis) fall out of the accounting instead of being
/// reconstructed from scattered counters.
///
/// The *only* place in the tree where cycle state is mutated is
/// CycleAccount::charge below.  Everything else calls charge() with a
/// phase: the fields are private, so a mutation of them outside the class
/// does not compile (the tier-1 ctest compile_gate_lint_successors builds
/// one to keep it that way).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_OBS_CYCLEACCOUNT_H
#define HDS_OBS_CYCLEACCOUNT_H

#include "obs/Metrics.h"

#include <cstddef>
#include <cstdint>

namespace hds {
namespace obs {

/// Attribution phase for a charged cycle.  The enumerators are a
/// partition: every simulated cycle lands in exactly one phase, so the
/// per-phase totals always sum to the clock.
enum class CyclePhase : uint8_t {
  /// Workload computation plus the non-stalled portion of demand access
  /// latency (the single cycle an L1 hit costs).
  PureCompute = 0,
  /// Demand-miss stall: cycles the simulated processor waited on L2 or
  /// memory for a demand access.
  DemandStall = 1,
  /// Stall spent waiting out the remainder of an in-flight prefetch
  /// (a late prefetch that hid only part of its miss).
  PartialHitStall = 2,
  /// Injected dynamic-check code at procedure entries and back edges.
  DynamicCheck = 3,
  /// Bursty-tracing profiling overhead (per-reference trace cost while
  /// awake).
  Profiling = 4,
  /// DFSM prefix-match clause scanning at instrumented sites.
  PrefixMatch = 5,
  /// Prefetch instruction issue slots.
  PrefetchIssue = 6,
  /// Grammar construction, hot-stream detection, DFSM build, and binary
  /// patching (the optimizer's analyze-and-optimize step).
  Analysis = 7,
};

constexpr std::size_t NumCyclePhases = 8;

/// Stable snake_case name of a phase (used as metric ids and in reports).
inline const char *cyclePhaseName(CyclePhase Phase) {
  switch (Phase) {
  case CyclePhase::PureCompute:
    return "pure_compute";
  case CyclePhase::DemandStall:
    return "demand_stall";
  case CyclePhase::PartialHitStall:
    return "partial_hit_stall";
  case CyclePhase::DynamicCheck:
    return "dynamic_check";
  case CyclePhase::Profiling:
    return "profiling";
  case CyclePhase::PrefixMatch:
    return "prefix_match";
  case CyclePhase::PrefetchIssue:
    return "prefetch_issue";
  case CyclePhase::Analysis:
    return "analysis";
  }
  return "unknown";
}

/// Plain-data snapshot of a CycleAccount, one named field per phase.
/// This is what the results JSON carries as its "cycle_breakdown"
/// object.
struct CycleBreakdown {
  uint64_t PureCompute = 0;
  uint64_t DemandStall = 0;
  uint64_t PartialHitStall = 0;
  uint64_t DynamicCheck = 0;
  uint64_t Profiling = 0;
  uint64_t PrefixMatch = 0;
  uint64_t PrefetchIssue = 0;
  uint64_t Analysis = 0;

  uint64_t total() const {
    return PureCompute + DemandStall + PartialHitStall + DynamicCheck +
           Profiling + PrefixMatch + PrefetchIssue + Analysis;
  }
};

/// Stable metric enumeration (append-only; see obs/Metrics.h).
template <typename CycleBreakdownT, typename Fn>
void visitCycleBreakdownMetrics(CycleBreakdownT &&Breakdown, Fn &&Visit) {
  Visit(MetricDef{"pure_compute", "cycles",
                  "workload compute plus non-stalled access latency"},
        Breakdown.PureCompute);
  Visit(MetricDef{"demand_stall", "cycles",
                  "demand-miss stall waiting on L2 or memory"},
        Breakdown.DemandStall);
  Visit(MetricDef{"partial_hit_stall", "cycles",
                  "stall waiting out the tail of an in-flight prefetch"},
        Breakdown.PartialHitStall);
  Visit(MetricDef{"dynamic_check", "cycles",
                  "injected dynamic checks at entries and back edges"},
        Breakdown.DynamicCheck);
  Visit(MetricDef{"profiling", "cycles",
                  "bursty-tracing per-reference profiling cost"},
        Breakdown.Profiling);
  Visit(MetricDef{"prefix_match", "cycles",
                  "DFSM match clause scanning at instrumented sites"},
        Breakdown.PrefixMatch);
  Visit(MetricDef{"prefetch_issue", "cycles",
                  "prefetch instruction issue slots"},
        Breakdown.PrefetchIssue);
  Visit(MetricDef{"analysis", "cycles",
                  "grammar, hot-stream, DFSM and patching analysis"},
        Breakdown.Analysis);
}

/// The account itself.  charge() is the only mutation entry point; the
/// clock total and the per-phase attribution advance together and can
/// never drift apart.  All arithmetic is unsigned integer (-Wconversion).
class CycleAccount {
public:
  /// Advances the clock by \p Cycles, attributed to \p Phase.
  void charge(uint64_t Cycles, CyclePhase Phase) {
    Total += Cycles;
    Phases[static_cast<std::size_t>(Phase)] += Cycles;
  }

  /// The global clock: sum of every phase.
  uint64_t total() const { return Total; }

  uint64_t phase(CyclePhase Phase) const {
    return Phases[static_cast<std::size_t>(Phase)];
  }

  /// Demand-side stall (full and partial) — the quantity the old
  /// HierarchyStats::StallCycles counter carried.
  uint64_t stallCycles() const {
    return phase(CyclePhase::DemandStall) + phase(CyclePhase::PartialHitStall);
  }

  void reset() { *this = CycleAccount(); }

  CycleBreakdown snapshot() const {
    CycleBreakdown B;
    B.PureCompute = phase(CyclePhase::PureCompute);
    B.DemandStall = phase(CyclePhase::DemandStall);
    B.PartialHitStall = phase(CyclePhase::PartialHitStall);
    B.DynamicCheck = phase(CyclePhase::DynamicCheck);
    B.Profiling = phase(CyclePhase::Profiling);
    B.PrefixMatch = phase(CyclePhase::PrefixMatch);
    B.PrefetchIssue = phase(CyclePhase::PrefetchIssue);
    B.Analysis = phase(CyclePhase::Analysis);
    return B;
  }

private:
  uint64_t Total = 0;
  uint64_t Phases[NumCyclePhases] = {};
};

} // namespace obs
} // namespace hds

#endif // HDS_OBS_CYCLEACCOUNT_H
