//===- obs/Metrics.h - Typed metric definitions ----------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `MetricDef` descriptor every stats struct in the tree annotates its
/// fields with.  A metric has a stable id (its JSON key and its `--diff`
/// cell-pairing name), a unit, and a doc string; the per-struct
/// `visit*Metrics` enumerations (core/RunStats.h, memsim/Cache.h,
/// memsim/MemoryHierarchy.h, obs/CycleAccount.h, obs/PrefetchStats.h)
/// pair each definition with a reference to the live field, in a fixed
/// append-only order.  That single enumeration drives JSON emission and
/// the metric registry (engine/MetricRegistry.h), so the two can never
/// disagree on field names or order.
///
/// Append-only contract: new metrics are appended at the end of their
/// block's visit function, never reordered or removed, so result
/// documents written before the change still diff against new ones.
/// MetricRegistryTest.HasEveryBlockInDocumentOrder (tests/obs_test.cpp)
/// spells out every block's ids, so a reorder or removal fails tier 1.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_OBS_METRICS_H
#define HDS_OBS_METRICS_H

namespace hds {
namespace obs {

/// Kind of quantity a metric reports.  Everything in the tree today is a
/// monotone counter or a point-in-time gauge snapshot of one.
// hds-exhaustive
enum class MetricKind : unsigned char {
  Counter, ///< monotonically increasing over a run
  Gauge,   ///< point-in-time value (e.g. a chosen hibernation length)
};

/// Static description of one metric.  All strings are literals with
/// program lifetime; a MetricDef is freely copyable.
struct MetricDef {
  const char *Id;   ///< stable snake_case id == JSON key == diff cell name
  const char *Unit; ///< "cycles", "accesses", "prefetches", "count", ...
  const char *Doc;  ///< one-line human description
  MetricKind Kind = MetricKind::Counter;
};

} // namespace obs
} // namespace hds

#endif // HDS_OBS_METRICS_H
