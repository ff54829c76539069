//===- profiling/TemporalProfiler.h - Trace -> Sequitur bridge -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects the sampled temporal data reference profile: interns each
/// traced (pc, addr) reference and appends it to an online Sequitur
/// grammar.  Section 2.4: references are sent to Sequitur as soon as they
/// are collected (Sequitur is incremental), and references traced during
/// hibernation are ignored to avoid trace contamination — the caller
/// enforces the latter by only invoking recordRef() while awake.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PROFILING_TEMPORALPROFILER_H
#define HDS_PROFILING_TEMPORALPROFILER_H

#include "analysis/DataRef.h"
#include "sequitur/Grammar.h"

#include <cstdint>
#include <unordered_map>

namespace hds {
namespace profiling {

/// Owns one profiling cycle's state: the Sequitur grammar and the
/// reference interning table, both emptied when the next cycle starts.
class TemporalProfiler {
public:
  /// Interns \p Ref and appends it to the grammar.  Returns the id.
  analysis::RefId recordRef(const analysis::DataRef &Ref) {
    const analysis::RefId Id = Refs.intern(Ref);
    TheGrammar.append(Id);
    ++TracedRefs;
    ++PcCounts[Ref.Pc];
    return Id;
  }

  /// Sampled occurrences of \p Pc in the current cycle's trace.  The
  /// optimizer uses this to keep injected checks off hot program points
  /// (an instrumented pc pays its check clauses on *every* execution).
  uint64_t pcSampleCount(uint64_t Pc) const {
    auto It = PcCounts.find(Pc);
    return It == PcCounts.end() ? 0 : It->second;
  }

  const sequitur::Grammar &grammar() const { return TheGrammar; }
  sequitur::Grammar &grammar() { return TheGrammar; }

  const analysis::DataRefTable &refTable() const { return Refs; }
  analysis::DataRefTable &refTable() { return Refs; }

  /// References traced in the current profiling cycle.
  uint64_t tracedRefCount() const { return TracedRefs; }

  /// Starts a new profiling cycle: empty grammar and interning table
  /// (their buffers keep their capacity), empty counters.  Reference ids
  /// restart at 0, in the new cycle's first-seen order (DESIGN.md §2).
  void startNewCycle() {
    TheGrammar.clear();
    Refs.clear();
    TracedRefs = 0;
    PcCounts.clear();
  }

private:
  analysis::DataRefTable Refs;
  sequitur::Grammar TheGrammar;
  uint64_t TracedRefs = 0;
  std::unordered_map<uint64_t, uint64_t> PcCounts;
};

} // namespace profiling
} // namespace hds

#endif // HDS_PROFILING_TEMPORALPROFILER_H
