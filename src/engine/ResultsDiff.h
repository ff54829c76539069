//===- engine/ResultsDiff.h - Read and compare results ---------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads `hds-matrix-results-v1` JSON documents (engine/ResultsJson.h)
/// back through one minimal JSON reader, and compares two of them.
///
/// diffResults compares two documents cell by cell.  Cells pair up by
/// their full spec echo (workload, mode, scale, seed, head length, flag
/// set); within a pair every scalar metric is compared, with a
/// configurable relative threshold separating noise from signal.
/// Changes classify as:
///
///   * regressions     — `cycles` grew past the threshold
///   * improvements    — `cycles` shrank past the threshold
///   * metric changes  — any other counter moved past the threshold
///   * status changes  — ok / error flipped
///   * unmatched cells — present in only one document
///
/// regressed() is the CI verdict: true for regressions, metric changes,
/// status changes, or unmatched cells.  Improvements alone stay green.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_RESULTSDIFF_H
#define HDS_ENGINE_RESULTSDIFF_H

#include <cstddef>
#include <string>
#include <vector>

namespace hds {
namespace engine {

struct DiffOptions {
  /// Relative change (percent) a numeric metric must exceed to count as
  /// a difference.  0 = any change counts (exact comparison).
  double ThresholdPct = 0.0;
  /// Wall-clock gate for per-result "timing" objects (tools/hds_bench).
  /// Negative (the default) ignores every timing.* path — wall clock is
  /// machine noise, and a bench file must diff clean against a plain
  /// matrix file.  Non-negative compares timing.accesses_per_sec only: a
  /// drop beyond this percentage is a regression, a gain an improvement;
  /// timing.wall_ns is never compared (redundant with the rate), and a
  /// cell missing timing on either side is skipped, not flagged.
  double WallThresholdPct = -1.0;
};

/// One noteworthy difference, addressed by cell and described per field.
struct DiffLine {
  std::string Cell;   ///< human-readable spec key of the cell
  std::string Detail; ///< e.g. "cycles 18200 -> 20930 (+15.00%)"
};

struct DiffReport {
  std::vector<DiffLine> Regressions;
  std::vector<DiffLine> Improvements;
  std::vector<DiffLine> MetricChanges;
  std::vector<DiffLine> StatusChanges;
  std::vector<std::string> OnlyInA;
  std::vector<std::string> OnlyInB;
  std::size_t CellsCompared = 0;

  /// True when the comparison should fail a gate (see file comment).
  bool regressed() const {
    return !Regressions.empty() || !MetricChanges.empty() ||
           !StatusChanges.empty() || !OnlyInA.empty() || !OnlyInB.empty();
  }

  /// Renders the report as human-readable text (one finding per line,
  /// trailing verdict line).  \p NameA / \p NameB label the inputs.
  std::string render(const std::string &NameA, const std::string &NameB) const;
};

/// Parses both documents and fills \p Report.  Returns false — with a
/// description in \p Error — when either input is not a well-formed
/// hds-matrix-results-v1 document: malformed JSON, a duplicate member,
/// an integer that is not an unsigned 64-bit decimal, a wrong schema, or
/// a spec_count that is missing or disagrees with the results array.
bool diffResults(const std::string &JsonA, const std::string &JsonB,
                 const DiffOptions &Opts, DiffReport &Report,
                 std::string &Error);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_RESULTSDIFF_H
