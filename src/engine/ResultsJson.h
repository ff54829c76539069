//===- engine/ResultsJson.h - Machine-readable results ---------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes merged matrix results as JSON (schema
/// "hds-matrix-results-v1", documented field by field in
/// docs/engine.md).  Everything outside the optional "timing" object is
/// a pure function of the specs, so the same matrix serializes
/// byte-identically no matter how many threads ran it — the property the
/// BENCH_*.json trajectory files and the determinism ctest rely on.
///
/// Wall-clock values never originate here (src/ is clock-free by rule
/// D1); callers that want a "timing" object measure time themselves and
/// pass it in.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_RESULTSJSON_H
#define HDS_ENGINE_RESULTSJSON_H

#include "engine/ExperimentRunner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace engine {

/// Optional non-deterministic extras appended as a top-level "timing"
/// object.  Excluded from the determinism contract by construction: when
/// no part is enabled the object is omitted entirely.
struct TimingInfo {
  /// Emit wall-clock fields (measured by the caller — src/ has no clock).
  bool IncludeWall = false;
  uint64_t WallMillis = 0;
  unsigned Jobs = 0;
  /// Emit each ok result's RunResult::Timing as a per-result "timing"
  /// object (the BENCH_matrix.json shape written by hds_matrix --repeat).
  /// Off by default so plain matrix output stays byte-deterministic.
  bool IncludePerResult = false;
};

/// Serializes \p Results (spec order) to a JSON document.  Overhead
/// percentages are computed against the matching Original-mode baseline
/// in the same result set (same workload/scale/seed/iterations, no
/// hardware prefetchers) when one is present.
std::string resultsToJson(const std::vector<RunResult> &Results,
                          const TimingInfo &Timing = TimingInfo());

/// Escapes \p S for embedding in a JSON string literal.
std::string jsonEscape(const std::string &S);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_RESULTSJSON_H
