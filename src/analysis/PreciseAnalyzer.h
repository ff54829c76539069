//===- analysis/PreciseAnalyzer.h - Exact hot stream detection -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact hot data stream detector that works directly on the
/// uncompressed trace.
///
/// The paper (Section 2.3) contrasts its fast grammar-based approximation
/// with Larus' precise hot-subpath algorithm [21]: "we use a faster, less
/// precise algorithm that relies more heavily on the ability of Sequitur to
/// infer hierarchical structure".  This module plays the role of the
/// precise comparator: it enumerates every distinct substring with length
/// in [minLen, maxLen], counts its maximal set of non-overlapping
/// occurrences (greedy left-to-right, which is optimal for a fixed
/// pattern), applies the heat definition v.heat = v.length * v.frequency
/// exactly, and keeps only maximal qualifying streams (those not contained
/// in another reported stream).  It is O(n * (maxLen - minLen)) time and
/// memory, versus the fast analyzer's O(grammar size) — the ablation bench
/// quantifies this gap.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ANALYSIS_PRECISEANALYZER_H
#define HDS_ANALYSIS_PRECISEANALYZER_H

#include "analysis/HotDataStream.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace analysis {

/// Result of an exact analysis pass.
struct PreciseAnalysisResult {
  std::vector<HotDataStream> Streams;
  uint64_t TraceLength = 0;
};

/// Runs the exact detector over \p Trace with thresholds from \p Config.
/// Streams are reported hottest-first.
PreciseAnalysisResult
analyzeHotStreamsPrecisely(const std::vector<uint32_t> &Trace,
                           const AnalysisConfig &Config);

} // namespace analysis
} // namespace hds

#endif // HDS_ANALYSIS_PRECISEANALYZER_H
