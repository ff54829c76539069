//===- replay/Oracles.h - Differential testing oracles ---------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential-testing oracles over an arbitrary reference trace.  Each
/// oracle checks one pipeline stage against an independent ground truth,
/// so a fuzzer can drive the whole Sequitur -> analysis -> DFSM pipeline
/// with adversarial inputs and detect wrong answers, not just crashes:
///
///  * Grammar oracle — the Sequitur invariants hold after every append and
///    the grammar expands back to exactly the input string.
///
///  * Analyzer oracle — the fast grammar-based analyzer's output is sound
///    against the trace itself (every reported stream really occurs at
///    least Frequency times non-overlapping; heats respect the config
///    bounds) and against the precise detector (which can only find
///    hotter-or-equal maximal streams, never cooler ones).
///
///  * DFSM oracle — the combined prefix-match DFSM, stepped over the
///    trace, completes exactly the same stream prefixes at exactly the
///    same positions as the executable-specification ReferenceMatcher,
///    and the per-stream scalar matcher (Figure 7) completes a subset.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_REPLAY_ORACLES_H
#define HDS_REPLAY_ORACLES_H

#include "analysis/HotDataStream.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace replay {

/// Outcome of one oracle run.
struct OracleReport {
  bool Passed = true;
  /// First violated property, human-readable; empty when Passed.
  std::string Failure;
};

/// Counts the greedy left-to-right non-overlapping occurrences of
/// \p Pattern in \p Trace — the exact Frequency semantics both analyzers
/// promise.  Exposed for tests.
uint64_t countNonOverlapping(const std::vector<uint32_t> &Trace,
                             const std::vector<uint32_t> &Pattern);

/// Builds a Sequitur grammar from \p Trace, checking the grammar
/// invariants after every append and expansion == input at the end.
OracleReport checkGrammarOracle(const std::vector<uint32_t> &Trace);

/// Runs the fast (grammar-based) and precise (trace-based) hot data
/// stream analyzers over \p Trace and cross-checks their outputs.
OracleReport checkAnalyzerOracle(const std::vector<uint32_t> &Trace,
                                 const analysis::AnalysisConfig &Config);

/// Builds a prefix-match DFSM for \p Streams and steps it over \p Trace
/// in lock step with the ReferenceMatcher specification and the scalar
/// matcher bank (symbols map to pcs one-to-one).
OracleReport checkDfsmOracle(const std::vector<uint32_t> &Trace,
                             const std::vector<std::vector<uint32_t>> &Streams,
                             uint32_t HeadLength);

/// How far the grammar hot-subpath detector (analyzeHotSubpaths) and the
/// exact detector agree on one trace, comparing their stream sets as
/// sets of symbol sequences.  Report-only: the two count occurrences
/// differently (subpath counts overlapping ones), so they are expected
/// to disagree on some traces.
struct AnalyzerAgreement {
  uint64_t SubpathOnly = 0; ///< streams only the subpath detector reports
  uint64_t PreciseOnly = 0; ///< streams only the exact detector reports

  bool equal() const { return SubpathOnly == 0 && PreciseOnly == 0; }
};

AnalyzerAgreement compareSubpathWithPrecise(
    const std::vector<uint32_t> &Trace,
    const analysis::AnalysisConfig &Config);

/// Runs all three oracles over \p Trace: the grammar and analyzer oracles
/// directly, and the DFSM oracle against the hot streams the fast
/// analyzer detected (falling back to nothing detected == nothing to
/// match, which is itself a valid outcome).  Returns the first failure.
OracleReport runOracleSuite(const std::vector<uint32_t> &Trace,
                            const analysis::AnalysisConfig &Config,
                            uint32_t HeadLength);

} // namespace replay
} // namespace hds

#endif // HDS_REPLAY_ORACLES_H
