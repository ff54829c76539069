//===- engine/ExperimentRunner.h - Run one experiment spec -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one experiment spec to completion (runExperiment), or a whole
/// matrix of them across plain threads (runMatrix).  Each run builds a
/// private Runtime, so concurrent runs share no mutable state, and the
/// matrix results come back in spec order whatever the thread count.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_EXPERIMENTRUNNER_H
#define HDS_ENGINE_EXPERIMENTRUNNER_H

#include "core/OptimizerConfig.h"
#include "core/RunStats.h"
#include "engine/ExperimentSpec.h"
#include "memsim/Cache.h"
#include "memsim/MemoryHierarchy.h"
#include "obs/CycleAccount.h"
#include "obs/Metrics.h"
#include "obs/PrefetchStats.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hds {
namespace engine {

/// Wall-clock measurement a tool attaches to a result after running it.
/// src/ is clock-free (lint rule D1), so runExperiment always leaves this
/// zeroed; only callers that time the run themselves (hds_matrix --repeat)
/// fill it in.  Zero means "not measured" and serializers omit nothing —
/// the fields only reach the JSON when the caller opts in via
/// TimingInfo::IncludePerResult (engine/ResultsJson.h).
struct ResultTiming {
  uint64_t WallNanos = 0;       ///< wall time of the simulate phase
  uint64_t AccessesPerSec = 0;  ///< TotalAccesses / wall seconds, rounded
};

/// Stable metric enumeration for ResultTiming (append-only; see
/// obs/Metrics.h).  Gauges, not counters: wall-clock readings are
/// point-in-time by nature and excluded from determinism gates.
template <typename TimingT, typename Fn>
void visitResultTimingMetrics(TimingT &&Timing, Fn &&Visit) {
  using obs::MetricDef;
  using obs::MetricKind;
  Visit(MetricDef{"wall_ns", "nanoseconds",
                  "wall-clock time of the simulate phase, caller-measured",
                  MetricKind::Gauge},
        Timing.WallNanos);
  Visit(MetricDef{"accesses_per_sec", "accesses/s",
                  "simulated memory accesses retired per wall second",
                  MetricKind::Gauge},
        Timing.AccessesPerSec);
}

/// Outcome of one experiment.  Echoes the spec so a result is
/// self-describing wherever it travels (JSON writer, progress callbacks).
struct RunResult {
  enum class Status : uint8_t {
    Error, ///< could not run (unknown workload, ...)
    Ok,
  };

  ExperimentSpec Spec;
  Status State = Status::Error;
  std::string Error;

  /// Iteration count actually executed (resolves Scale × default).
  uint64_t Iterations = 0;
  uint64_t Cycles = 0;
  core::RunStats Stats;
  memsim::HierarchyStats Memory;
  memsim::CacheStats L1;
  memsim::CacheStats L2;
  /// Attributed cycle account snapshot; Breakdown.total() == Cycles.
  obs::CycleBreakdown Breakdown;
  /// Per-hot-data-stream prefetch effectiveness, one row per stream ever
  /// installed during the run.
  std::vector<obs::StreamPrefetchStats> Streams;
  /// Per-hardware-prefetcher effectiveness (src/prefetch), one row per
  /// stack member — selector candidates included.  Empty when the spec
  /// enables no prefetcher.
  std::vector<obs::PrefetcherStats> Prefetchers;
  /// Caller-measured wall clock (never set by runExperiment itself).
  ResultTiming Timing;

  bool ok() const { return State == Status::Ok; }
};

/// Optional hook adjusting the materialized configuration before the
/// Runtime is constructed (the figure benches' ablation tweaks).  Tweaked
/// runs are not reproducible from the spec alone, so the matrix engine
/// never applies one; only direct runExperiment callers do.
using ConfigTweak = void (*)(core::OptimizerConfig &);

/// \p Default × \p Scale as an iteration count, at least 1.  Empty when
/// the product is not finite or does not fit uint64_t.
std::optional<uint64_t> scaledIterations(uint64_t Default, double Scale);

/// Checks that every spec without an explicit iteration count scales its
/// workload's default to a count that fits uint64_t.  On failure returns
/// false and describes the first offending spec in \p Error.
bool checkIterations(std::span<const ExperimentSpec> Specs,
                     std::string *Error);

/// Runs one spec to completion in the calling thread.  A spec whose
/// scaled iteration count does not fit uint64_t is an error.
RunResult runExperiment(const ExperimentSpec &Spec,
                        ConfigTweak Tweak = nullptr);

/// Progress callback of runMatrix: spec index and its finished result.
using OnResult = std::function<void(std::size_t, const RunResult &)>;

/// Runs every spec on min(max(\p Jobs, 1), Specs.size()) threads and
/// returns the results in spec order, byte-identical in JSON for any job
/// count.  \p Callback, when set, fires once per finished spec in
/// *completion* order, serialized under one mutex.
std::vector<RunResult> runMatrix(std::span<const ExperimentSpec> Specs,
                                 unsigned Jobs, OnResult Callback = nullptr);

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_EXPERIMENTRUNNER_H
