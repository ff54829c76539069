//===- prefetch/TuningPolicy.h - Closed-loop degree/distance --*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-stream closed-loop prefetch tuning.  The paper injects a fixed
/// prefetch sequence per hot data stream; this controller feeds the
/// per-tag classification counters (obs/PrefetchStats.h) back into the
/// issuing decision, the "accurate AND timely" control loop temporal
/// prefetchers use (Triangel, PAPERS.md):
///
///   * accuracy  = useful / issued          steers **degree** — how many
///     targets to issue per trigger.  An inaccurate stream's degree is
///     halved each epoch (multiplicative back-off) down to 0 =
///     **squelched**; an accurate one's creeps up by 1 (cautious
///     additive raise) toward MaxDegree.
///   * timeliness = useful / (useful + late) steers **distance** — how
///     far ahead of the trigger to start issuing.  A late-heavy stream's
///     distance grows by 1 per epoch toward MaxDistance; it shrinks only
///     when an epoch sees no late prefetch at all (the cautious reverse
///     move), so the loop doesn't oscillate.
///
/// A squelched stream issues nothing; after ProbationEpochs epochs it is
/// re-probed at degree 1 so a stream whose behavior changed can earn its
/// way back.
///
/// Epochs are counted in demand accesses (one deterministic clock per
/// Runtime, advanced from the simulated access stream), so adjustments
/// are a pure function of the observed epoch-delta counters and the
/// config — never of wall clock or thread schedule.  That is what keeps
/// adaptive cells byte-identical across --jobs counts.
///
/// Both issuing paths consume one instance: core/PrefetchEngine threads
/// degree/distance into how much of an installed stream's tail it issues
/// and from which offset, and the zoo engines (stream/pair) replace
/// their hardcoded degree constants.  See docs/tuning.md.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_TUNINGPOLICY_H
#define HDS_PREFETCH_TUNINGPOLICY_H

#include "obs/PrefetchStats.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs of the closed-loop controller.  All thresholds are integer
/// ratios (compared by cross-multiplication) so epoch rolls stay within
/// the determinism lint's no-float-accumulation rule.
struct TuningConfig {
  /// Master switch: when false, no TuningPolicy is constructed and every
  /// issuing path keeps its static constant (byte-identical behavior).
  bool Enabled = false;
  /// Demand accesses per tuning epoch.
  uint64_t EpochAccesses = 32768;
  /// Degree ceiling for the additive raise.
  uint32_t MaxDegree = 32;
  /// Distance ceiling for the timeliness walk.
  uint32_t MaxDistance = 8;
  /// Accuracy floor: useful/issued >= AccuracyNum/AccuracyDen keeps the
  /// degree; below it the degree halves.
  uint32_t AccuracyNum = 1;
  uint32_t AccuracyDen = 4;
  /// Timeliness floor: useful/(useful+late) >= TimelyNum/TimelyDen
  /// holds the distance; below it the distance grows.
  uint32_t TimelyNum = 1;
  uint32_t TimelyDen = 2;
  /// Minimum epoch-delta issued count before the rules fire (too little
  /// signal reads as noise; the stream keeps its settings).
  uint64_t MinSample = 16;
  /// Epochs a squelched stream sits out before the degree-1 re-probe.
  uint32_t ProbationEpochs = 4;
};

/// The per-stream controller.  One instance per Runtime owns the epoch
/// clock and a dense tag-indexed state table; streams register lazily
/// the first time their issuing path asks for a degree.
class TuningPolicy {
public:
  /// One stream's control state.
  struct StreamState {
    /// True once the stream's issuing path first queried the policy.
    bool Active = false;
    /// Targets to issue per trigger; 0 = squelched.
    uint32_t Degree = 0;
    /// Targets (or blocks) to skip ahead of the trigger point.
    uint32_t Distance = 0;
    /// Epochs spent squelched since the last squelch or probe.
    uint32_t SquelchedEpochs = 0;
    /// Times the degree decayed to 0.
    uint64_t Squelches = 0;
    /// Times probation re-enabled the stream at degree 1.
    uint64_t Probes = 0;
    /// Cumulative per-tag counters at the last epoch boundary; the
    /// rules run on the delta against this snapshot.
    obs::PrefetchClassCounts Snapshot;
  };

  explicit TuningPolicy(const TuningConfig &Cfg) : Config(Cfg) {}

  const TuningConfig &config() const { return Config; }

  /// Advances the demand-access epoch clock; returns true exactly at an
  /// epoch boundary, when the caller must rollEpoch() with the current
  /// per-tag classification buckets.
  bool onDemandAccess() {
    if (++AccessesInEpoch < Config.EpochAccesses)
      return false;
    AccessesInEpoch = 0;
    return true;
  }

  /// Applies the saturating rules to every active stream, using the
  /// epoch delta of \p Classes (the hierarchy's cumulative per-tag
  /// buckets) against the previous boundary's snapshot.  Deterministic:
  /// iterates tags in index order, integer arithmetic only.
  void rollEpoch(const std::vector<obs::PrefetchClassCounts> &Classes);

  /// Current degree for \p Tag, registering the stream on first use
  /// with \p FallbackDegree (the issuing path's static constant, capped
  /// at MaxDegree).
  uint32_t degree(uint32_t Tag, uint32_t FallbackDegree) {
    StreamState &State = stateFor(Tag, FallbackDegree);
    return State.Degree;
  }

  /// Current distance for \p Tag (0 until the stream registers).
  uint32_t distance(uint32_t Tag) const {
    return Tag < States.size() ? States[Tag].Distance : 0;
  }

  /// Read-only degree for reports: the tuned value once the stream
  /// registered, \p FallbackDegree before.
  uint32_t peekDegree(uint32_t Tag, uint32_t FallbackDegree) const {
    if (Tag < States.size() && States[Tag].Active)
      return States[Tag].Degree;
    return FallbackDegree;
  }

  /// Read-only state for tests and reports, or null when the stream
  /// never registered.
  const StreamState *peek(uint32_t Tag) const {
    if (Tag < States.size() && States[Tag].Active)
      return &States[Tag];
    return nullptr;
  }

  /// Epoch boundaries crossed so far (for reports/tests).
  uint64_t epochsRolled() const { return EpochsRolled; }

  /// Drops all stream state and restarts the epoch clock.
  void reset() {
    States.clear();
    AccessesInEpoch = 0;
    EpochsRolled = 0;
  }

private:
  StreamState &stateFor(uint32_t Tag, uint32_t FallbackDegree);

  TuningConfig Config;
  std::vector<StreamState> States;
  uint64_t AccessesInEpoch = 0;
  uint64_t EpochsRolled = 0;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_TUNINGPOLICY_H
