//===- engine/MetricRegistry.h - Spec-echo identity fields -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spec-echo keys that identify a result cell in the results JSON
/// (engine/ResultsJson.cpp writes them first in every result object).
/// `--diff` pairs cells by these keys and compares every other scalar
/// it finds; everything else in a result object is a metric, written
/// by emitResult from the append-only visit*Metrics enumerations
/// (obs/Metrics.h), which are the results schema.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_METRICREGISTRY_H
#define HDS_ENGINE_METRICREGISTRY_H

#include <vector>

namespace hds {
namespace engine {

/// The spec-echo fields forming a result cell's identity, in the order
/// the writer emits them and --diff prints them in cell headers.
const std::vector<const char *> &specIdentityFields();

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_METRICREGISTRY_H
