//===- analysis/SubpathAnalyzer.h - Grammar hot-subpath analysis -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Larus-style hot-subpath detector operating on the Sequitur grammar.
///
/// The paper (§2.3): "Larus describes an algorithm for finding a set of
/// hot data streams from a Sequitur grammar [21]; we use a faster, less
/// precise algorithm that relies more heavily on the ability of Sequitur
/// to infer hierarchical structure."  The fast Figure-5 analysis can only
/// report streams that happen to be the exact expansion of one grammar
/// rule; recurring sequences that *cross* rule boundaries (very common
/// when burst boundaries fragment the repeating unit) are invisible to
/// it.  This analyzer recovers them, in the spirit of Larus' Whole
/// Program Paths hot-subpath algorithm:
///
///   * every substring of the trace of length <= maxLen either lies
///     entirely inside one grammar item's expansion, or crosses an item
///     boundary of exactly one rule occurrence;
///   * so each rule R "introduces" the boundary-crossing windows of its
///     right-hand side, and each such window occurs (at least) uses(R)
///     times in the whole trace — with uses(R) computed exactly as in
///     the Figure-5 pass;
///   * enumerating those windows over a boundary-compressed image of
///     each right-hand side (long children contribute only their first
///     and last maxLen-1 symbols around a window-blocking gap) counts
///     every substring in time O(grammar size * maxLen^2) instead of
///     O(trace length * maxLen).
///
/// Counts are total (possibly overlapping) occurrence counts, an upper
/// bound on the non-overlapping frequency the heat definition wants —
/// like Larus' algorithm, this trades a little precision for running on
/// the compressed representation.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ANALYSIS_SUBPATHANALYZER_H
#define HDS_ANALYSIS_SUBPATHANALYZER_H

#include "analysis/HotDataStream.h"
#include "sequitur/Grammar.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace analysis {

/// Result of a grammar-subpath analysis pass.
struct SubpathAnalysisResult {
  /// Hot subpaths, hottest first, filtered to maximal ones (no reported
  /// stream is contained in another reported stream).
  std::vector<HotDataStream> Streams;
  uint64_t TraceLength = 0;
};

/// Runs the Larus-style subpath detection over \p Snapshot with the
/// thresholds of \p Config.  MinLength must be >= 2 (single symbols are
/// not streams); windows longer than MaxLength are not enumerated.
SubpathAnalysisResult
analyzeHotSubpaths(const sequitur::GrammarSnapshot &Snapshot,
                   const AnalysisConfig &Config);

} // namespace analysis
} // namespace hds

#endif // HDS_ANALYSIS_SUBPATHANALYZER_H
