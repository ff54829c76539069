//===- engine/ResultsDiff.h - Read, compare and merge results ---*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything that reads `hds-matrix-results-v1` JSON documents
/// (engine/ResultsJson.h) back, through one minimal JSON reader.
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
///   * status changes  — ok / error / cancelled flipped
///   * unmatched cells — present in only one document
///
/// regressed() is the CI verdict: true for regressions, metric changes,
/// status changes, or unmatched cells.  Improvements alone stay green.
///
/// decodeResults is the inverse of resultsToJson: it reads a cell through
/// the same visit*Metrics enumerations emitResult writes it with, so JSON
/// is the only serialization of a RunResult.  mergeShards puts the
/// documents of a `--filter shard=i/n` sweep back in spec order;
/// re-rendering them with resultsToJson gives the bytes of one unsharded
/// run (docs/engine.md).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_RESULTSDIFF_H
#define HDS_ENGINE_RESULTSDIFF_H

#include "engine/ExperimentRunner.h"

#include <cstddef>
#include <cstdint>
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
/// hds-matrix-results-v1 document.
bool diffResults(const std::string &JsonA, const std::string &JsonB,
                 const DiffOptions &Opts, DiffReport &Report,
                 std::string &Error);

/// One results document read back into memory.
struct ResultsDocument {
  /// The cells, in document order.
  std::vector<RunResult> Results;
  /// The "shard" tag; an untagged document reads as shard 0/1.
  uint64_t ShardIndex = 0;
  uint64_t ShardCount = 1;
  /// Whether any cell carried a per-result "timing" object (re-render
  /// with TimingInfo::IncludePerResult to keep it).
  bool PerResultTiming = false;
};

/// Decodes an hds-matrix-results-v1 document, skipping overhead_pct (the
/// writer recomputes it) and any whole-run "timing" object.  Returns
/// false and sets \p Error on malformed JSON, a wrong schema or shard
/// tag, a wrong spec_count, and any missing, mistyped, out-of-range or
/// unknown field — a document is never half-read.
bool decodeResults(const std::string &Json, ResultsDocument &Out,
                   std::string &Error);

/// Merges the documents of one sharded sweep into \p Merged (an untagged
/// document in spec order).  Every shard 0..n-1 must be present exactly
/// once, all with the same n, each holding the share of cells a shard=
/// filter gives it.  Returns false and sets \p Error otherwise.
bool mergeShards(const std::vector<ResultsDocument> &Shards,
                 ResultsDocument &Merged, std::string &Error);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_RESULTSDIFF_H
