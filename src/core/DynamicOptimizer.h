//===- core/DynamicOptimizer.h - Profile/analyze/optimize cycle -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The controller of Figure 1: it reacts to bursty-tracing phase
/// boundaries, turning the sampled temporal profile into hot data streams,
/// the streams into a prefix-matching DFSM, the DFSM into injected check
/// code, and — at the end of each hibernation — deoptimizing everything
/// and starting the next profiling cycle.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CORE_DYNAMICOPTIMIZER_H
#define HDS_CORE_DYNAMICOPTIMIZER_H

#include "analysis/FastAnalyzer.h"
#include "core/OptimizerConfig.h"
#include "core/PrefetchEngine.h"
#include "core/RunStats.h"
#include "obs/Timeline.h"
#include "profiling/BurstyTracer.h"
#include "profiling/TemporalProfiler.h"
#include "vulcan/Image.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace core {

/// Orchestrates one benchmark run's optimization cycles.
class DynamicOptimizer {
public:
  DynamicOptimizer(const OptimizerConfig &Cfg, vulcan::Image &Image,
                   memsim::MemoryHierarchy &Hier, PrefetchEngine &Eng,
                   profiling::BurstyTracer &Trc, RunStats &RS,
                   obs::Timeline &TL)
      : Config(Cfg), TheImage(Image), Hierarchy(Hier), Engine(Eng),
        Tracer(Trc), Stats(RS), Timeline(TL) {}

  /// Records one traced data reference (called by the runtime while the
  /// profiler is awake and in instrumented code).
  void recordRef(const analysis::DataRef &Ref) {
    Profiler.recordRef(Ref);
    ++Stats.TracedRefs;
  }

  /// Reacts to a bursty-tracing phase boundary.
  void onCheckEvent(profiling::CheckEvent Event);

  /// True once PinFirstOptimization has latched an installed
  /// optimization: the system behaves like a statically instrumented
  /// binary from here on (no re-profiling, no deoptimization).
  bool pinned() const { return Pinned; }

  profiling::TemporalProfiler &profiler() { return Profiler; }
  const profiling::TemporalProfiler &profiler() const { return Profiler; }

private:
  /// End of the awake phase: extract hot data streams, build the DFSM,
  /// generate and inject the detection/prefetching code.
  void analyzeAndOptimize();

  /// End of the hibernation phase: remove the injected checks and start a
  /// fresh profiling cycle.
  void deoptimize();

  /// Adaptive hibernation (§5.2 extension): stretch or reset the
  /// hibernation length based on stream-set stability.
  void adaptHibernation(const std::vector<std::vector<uint32_t>> &Streams);

  const OptimizerConfig &Config;
  vulcan::Image &TheImage;
  memsim::MemoryHierarchy &Hierarchy;
  PrefetchEngine &Engine;
  profiling::BurstyTracer &Tracer;
  RunStats &Stats;
  obs::Timeline &Timeline;
  profiling::TemporalProfiler Profiler;
  bool Pinned = false;
  /// Adaptive hibernation state: references covered by the previous
  /// cycle's installed streams, sorted and by value (reference ids restart
  /// every cycle), and the current hibernation length.
  std::vector<analysis::DataRef> LastCoveredRefs;
  uint64_t CurrentHibernate = 0;
};

} // namespace core
} // namespace hds

#endif // HDS_CORE_DYNAMICOPTIMIZER_H
