//===- obs/PrefetchStats.h - Prefetch effectiveness classes ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prefetch-effectiveness classification, per hot data stream.  Every
/// prefetch the memory hierarchy sees carries a stream tag (assigned by
/// PrefetchEngine at install time, threaded from the DFSM match through
/// prefetchT0), and every classification event lands in that stream's
/// bucket:
///
///   * useful         — demand access hit a prefetched, not-yet-touched
///                      line (the prefetch fully hid a miss)
///   * late           — demand access caught the block still in flight
///                      and stalled for the remainder (partially hidden)
///   * redundant      — the target was already cached or in flight at
///                      issue time
///   * dropped        — the in-flight queue was full at issue time
///   * unused-evicted — a prefetched line was evicted from L1 before any
///                      demand touch (pure pollution)
///
/// From the buckets the standard temporal-prefetcher figures of merit
/// derive:  accuracy = useful / issued,  coverage = useful / (useful +
/// remaining demand misses),  timeliness = useful / (useful + late).
/// Events, not a partition of issues: a both-level prefetch can be
/// evicted from L1 untouched and later still turn useful out of L2.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_OBS_PREFETCHSTATS_H
#define HDS_OBS_PREFETCHSTATS_H

#include "obs/Metrics.h"

#include <cstdint>

namespace hds {
namespace obs {

/// Tag for prefetches with no attributed origin (direct prefetchT0
/// callers, tests).  Their events land in an untagged bucket.  Hardware
/// prefetchers in src/prefetch/ issue under small reserved tags instead,
/// below the hot-stream tag range.
constexpr uint32_t NoStreamTag = 0xFFFFFFFFu;

/// Classification event counters for one stream (or the untagged bucket).
struct PrefetchClassCounts {
  uint64_t Issued = 0;
  uint64_t Useful = 0;
  uint64_t Late = 0;
  uint64_t Redundant = 0;
  uint64_t DroppedQueueFull = 0;
  uint64_t UnusedEvicted = 0;
};

/// One installed hot data stream's identity plus its classification
/// counters — the per-stream row of the effectiveness report and the
/// element of the wire/JSON "streams" block.
struct StreamPrefetchStats {
  uint64_t StreamTag = 0;
  /// Index of the optimization cycle that installed the stream.
  uint64_t InstallCycle = 0;
  /// Number of prefetch targets per complete prefix match (stream length
  /// minus the matched head).
  uint64_t Length = 0;
  uint64_t Issued = 0;
  uint64_t Useful = 0;
  uint64_t Late = 0;
  uint64_t Redundant = 0;
  uint64_t DroppedQueueFull = 0;
  uint64_t UnusedEvicted = 0;

  /// useful / issued — of what we issued, how much paid off.
  double accuracy() const {
    return Issued == 0 ? 0.0
                       : static_cast<double>(Useful) /
                             static_cast<double>(Issued);
  }
  /// useful / (useful + late) — of the prefetches that were demanded,
  /// how many arrived in time.
  double timeliness() const {
    const uint64_t Demanded = Useful + Late;
    return Demanded == 0 ? 0.0
                         : static_cast<double>(Useful) /
                               static_cast<double>(Demanded);
  }
};

/// Stable metric enumeration (append-only; see obs/Metrics.h).
template <typename StreamPrefetchStatsT, typename Fn>
void visitStreamPrefetchStatsMetrics(StreamPrefetchStatsT &&Stats,
                                     Fn &&Visit) {
  Visit(MetricDef{"stream", "id", "stream tag assigned at install time",
                  MetricKind::Gauge},
        Stats.StreamTag);
  Visit(MetricDef{"install_cycle", "count",
                  "optimization cycle that installed the stream",
                  MetricKind::Gauge},
        Stats.InstallCycle);
  Visit(MetricDef{"length", "accesses",
                  "prefetch targets per complete prefix match",
                  MetricKind::Gauge},
        Stats.Length);
  Visit(MetricDef{"issued", "prefetches",
                  "prefetch requests attributed to this stream"},
        Stats.Issued);
  Visit(MetricDef{"useful", "prefetches",
                  "demand hits on untouched prefetched lines"},
        Stats.Useful);
  Visit(MetricDef{"late", "prefetches",
                  "demand accesses that stalled on the block in flight"},
        Stats.Late);
  Visit(MetricDef{"redundant", "prefetches",
                  "target already cached or in flight at issue"},
        Stats.Redundant);
  Visit(MetricDef{"dropped_queue_full", "prefetches",
                  "issue dropped because the in-flight queue was full"},
        Stats.DroppedQueueFull);
  Visit(MetricDef{"unused_evicted", "prefetches",
                  "prefetched lines evicted from L1 before any use"},
        Stats.UnusedEvicted);
}

/// One hardware prefetcher's identity plus its classification counters —
/// the per-prefetcher row of the zoo report and the element of the
/// wire/JSON "prefetchers" block (src/prefetch/).  Classification
/// counters are joined from the hierarchy's per-tag buckets exactly like
/// the per-stream rows above; Trains counts table updates inside the
/// prefetcher itself.
struct PrefetcherStats {
  /// prefetch::Prefetcher::Kind of the row's prefetcher.
  uint64_t Kind = 0;
  /// Stream tag the prefetcher issues under (reserved below hot-stream
  /// tags).
  uint64_t Tag = 0;
  uint64_t Trains = 0;
  uint64_t Issued = 0;
  uint64_t Useful = 0;
  uint64_t Late = 0;
  uint64_t Redundant = 0;
  uint64_t DroppedQueueFull = 0;
  uint64_t UnusedEvicted = 0;
};

/// Stable metric enumeration (append-only; see obs/Metrics.h).
template <typename PrefetcherStatsT, typename Fn>
void visitPrefetcherStatsMetrics(PrefetcherStatsT &&Stats, Fn &&Visit) {
  Visit(MetricDef{"kind", "id", "prefetcher kind (Prefetcher::Kind index)",
                  MetricKind::Gauge},
        Stats.Kind);
  Visit(MetricDef{"tag", "id", "stream tag the prefetcher issues under",
                  MetricKind::Gauge},
        Stats.Tag);
  Visit(MetricDef{"trains", "accesses",
                  "table training updates the prefetcher performed"},
        Stats.Trains);
  Visit(MetricDef{"issued", "prefetches",
                  "prefetch requests attributed to this prefetcher"},
        Stats.Issued);
  Visit(MetricDef{"useful", "prefetches",
                  "demand hits on untouched prefetched lines"},
        Stats.Useful);
  Visit(MetricDef{"late", "prefetches",
                  "demand accesses that stalled on the block in flight"},
        Stats.Late);
  Visit(MetricDef{"redundant", "prefetches",
                  "target already cached or in flight at issue"},
        Stats.Redundant);
  Visit(MetricDef{"dropped_queue_full", "prefetches",
                  "issue dropped because the in-flight queue was full"},
        Stats.DroppedQueueFull);
  Visit(MetricDef{"unused_evicted", "prefetches",
                  "prefetched lines evicted from L1 before any use"},
        Stats.UnusedEvicted);
}

} // namespace obs
} // namespace hds

#endif // HDS_OBS_PREFETCHSTATS_H
