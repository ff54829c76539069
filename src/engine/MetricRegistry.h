//===- engine/MetricRegistry.h - Catalog of every exported metric -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for what the engine exports: every scalar
/// metric that appears in the results JSON, grouped into named blocks,
/// with its stable id, unit, and documentation string (obs::MetricDef).
/// The registry is built from the same visit*Metrics enumerations the
/// JSON writer (emitResult) walks, so it can never drift from what the
/// writer produces — a test asserts ids
/// are unique within each block and that every block's order matches
/// the enumeration order.
///
/// Also centralizes the spec-echo fields that identify a result cell
/// (specIdentityFields), shared by the --diff cell pairing and anything
/// else that needs to tell "which experiment" apart from "what it
/// measured".
///
/// The registry is append-only by construction: the enumerations it is
/// built from obey the contract in obs/Metrics.h.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_METRICREGISTRY_H
#define HDS_ENGINE_METRICREGISTRY_H

#include "obs/Metrics.h"

#include <cstddef>
#include <string>
#include <vector>

namespace hds {
namespace engine {

/// One named group of metrics: a JSON object (or array-element object)
/// in the results document.
struct MetricBlock {
  /// Block name.  "result" covers the flat per-run counters; "phase" is
  /// one element of the "phases" array; "memory" the hierarchy object;
  /// "cache" the shape shared by "l1" and "l2"; "cycle_breakdown" the
  /// attributed cycle account; "stream" one element of "streams".
  const char *Name;
  std::vector<obs::MetricDef> Metrics;
};

/// Every metric block the engine serializes, in document order.  Built
/// once, on first use; safe to call from multiple threads afterwards.
const std::vector<MetricBlock> &metricRegistry();

/// The spec-echo fields forming a result cell's identity (everything
/// else in a result object is a metric to compare).  Order matters: it
/// is the order identity keys are printed in --diff cell headers.
const std::vector<const char *> &specIdentityFields();

/// Looks up a metric by block name and id; nullptr when absent.
const obs::MetricDef *findMetric(const char *Block, const std::string &Id);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_METRICREGISTRY_H
