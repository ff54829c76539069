//===- memsim/MemoryHierarchy.h - Two-level hierarchy + prefetch -*- C++ -*-==//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-accounting model of the paper's evaluation machine: L1D + L2 +
/// main memory, with an in-flight prefetch queue so that prefetches overlap
/// with subsequent computation instead of completing instantaneously.
///
/// This is the substitute for the paper's 550 MHz Pentium III (Section 4.1):
/// reproduction of Figure 12 needs relative execution times, which are
/// driven by hit/miss composition, prefetch timeliness, and pollution —
/// exactly what this model captures.  The `prefetchT0` entry point mirrors
/// the Pentium III `prefetcht0` instruction the paper uses: it fetches into
/// both levels of the cache hierarchy.
///
/// All simulated cycles live in an obs::CycleAccount: the clock and the
/// per-phase attribution (pure compute, demand stall, check, profiling,
/// matching, prefetch issue, analysis) advance together, so Figure-11
/// overhead breakdowns are read straight off the account.  Prefetches
/// carry hot-data-stream tags and every effectiveness classification
/// event (useful / late / redundant / dropped / unused-evicted) is
/// attributed to its stream (obs/PrefetchStats.h).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_MEMSIM_MEMORYHIERARCHY_H
#define HDS_MEMSIM_MEMORYHIERARCHY_H

#include "memsim/Cache.h"
#include "obs/CycleAccount.h"
#include "obs/PrefetchStats.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace memsim {

/// Access latencies in cycles.  Defaults approximate the paper's era:
/// single-cycle L1, 14-cycle L2, 100-cycle memory.
struct LatencyConfig {
  unsigned L1HitCycles = 1;
  unsigned L2HitCycles = 14;
  unsigned MemoryCycles = 100;
  /// Cost of issuing one prefetch instruction (pipeline slot, not stall).
  unsigned PrefetchIssueCycles = 1;
  /// Maximum outstanding prefetches; extra issues are dropped, matching
  /// limited miss-status-holding-register style hardware.
  unsigned MaxInFlightPrefetches = 24;
};

/// Aggregate accounting snapshot for one simulation run, as returned by
/// stats().  The stall totals are views of the cycle account (phases
/// DemandStall + PartialHitStall); the event counters accumulate live.
struct HierarchyStats {
  uint64_t DemandAccesses = 0;
  uint64_t StallCycles = 0;
  uint64_t PrefetchesIssued = 0;
  uint64_t PrefetchesDroppedQueueFull = 0;
  uint64_t PrefetchesRedundant = 0; // target already cached or in flight
  /// Demand accesses that found their block still in flight and waited for
  /// the remainder of its latency (partially hidden misses).
  uint64_t PartialHits = 0;
  uint64_t PartialHitStallCycles = 0;
  /// Demand hits on prefetched-untouched lines at either level (the
  /// "useful" prefetch-effectiveness class).
  uint64_t PrefetchesUseful = 0;
  /// Prefetched lines evicted from L1 before any demand touch (the
  /// "unused-evicted" class).
  uint64_t PrefetchesUnusedEvicted = 0;
};

/// Stable metric enumeration: fixed, append-only order shared by every
/// serializer (see obs/Metrics.h for the contract).
template <typename HierarchyStatsT, typename Fn>
void visitHierarchyStatsMetrics(HierarchyStatsT &&Stats, Fn &&Visit) {
  using obs::MetricDef;
  Visit(MetricDef{"demand_accesses", "accesses",
                  "demand loads/stores the hierarchy served"},
        Stats.DemandAccesses);
  Visit(MetricDef{"stall_cycles", "cycles",
                  "demand-miss stall cycles (full and partial)"},
        Stats.StallCycles);
  Visit(MetricDef{"prefetches_issued", "prefetches",
                  "prefetch requests issued"},
        Stats.PrefetchesIssued);
  Visit(MetricDef{"prefetches_dropped_queue_full", "prefetches",
                  "issues dropped because the in-flight queue was full"},
        Stats.PrefetchesDroppedQueueFull);
  Visit(MetricDef{"prefetches_redundant", "prefetches",
                  "target already cached or in flight at issue"},
        Stats.PrefetchesRedundant);
  Visit(MetricDef{"partial_hits", "accesses",
                  "demand accesses that waited on an in-flight prefetch"},
        Stats.PartialHits);
  Visit(MetricDef{"partial_hit_stall_cycles", "cycles",
                  "stall spent waiting out in-flight prefetch tails"},
        Stats.PartialHitStallCycles);
  Visit(MetricDef{"prefetches_useful", "prefetches",
                  "demand hits on untouched prefetched lines"},
        Stats.PrefetchesUseful);
  Visit(MetricDef{"prefetches_unused_evicted", "prefetches",
                  "prefetched lines evicted from L1 before any use"},
        Stats.PrefetchesUnusedEvicted);
}

class MemoryHierarchy;

/// Observer of prefetch lifecycle events, for engines that react to what
/// their (or their rivals') prefetches achieved — the prefetcher zoo's
/// fill-chaining and the dueling selector's scoring (src/prefetch/).
///
/// Callbacks fire synchronously at the classification points of the
/// simulation, so they see a consistent machine state; all of them sit
/// on rare paths (prefetch hits, partial hits, pollution evictions,
/// completed fills), never on the pure-hit fast path.  Only
/// onPrefetchFill may issue follow-up prefetches — it is delivered after
/// the in-flight queue has been compacted; the others observe only.
/// MemoryHierarchy::access relies on that: onPrefetchUseful runs between
/// the L1 probe and the L1 fill into the slot that probe found.
class PrefetchListener {
public:
  virtual ~PrefetchListener() = default;

  /// A prefetched block finished filling (tag as passed to prefetchT0).
  virtual void onPrefetchFill(Addr BlockAddr, uint32_t StreamTag,
                              MemoryHierarchy &Hierarchy) = 0;
  /// A demand access hit a prefetched-untouched line (the "useful"
  /// class); \p Address is the demand address.
  virtual void onPrefetchUseful(Addr Address, uint32_t StreamTag) = 0;
  /// A demand access stalled on a block still in flight (the "late"
  /// class); \p Address is the demand address.
  virtual void onPrefetchLate(Addr Address, uint32_t StreamTag) = 0;
  /// A prefetched line was evicted from L1 untouched (pollution).
  virtual void onPrefetchEvicted(Addr BlockAddr, uint32_t StreamTag) = 0;
};

/// Two-level hierarchy with a global cycle clock.
///
/// The clock advances for (a) explicit compute via tick(), (b) access
/// latency of every demand load/store, and (c) prefetch issue slots.
/// Prefetched blocks become visible only once their latency has elapsed,
/// so a prefetch issued immediately before its use hides almost nothing
/// while one issued a stream ahead hides everything — the timeliness
/// property the paper's stream-based scheme relies on (Section 1).
class MemoryHierarchy {
public:
  MemoryHierarchy(const CacheConfig &L1Config = CacheConfig::pentiumIIIL1(),
                  const CacheConfig &L2Config = CacheConfig::pentiumIIIL2(),
                  const LatencyConfig &Latency = LatencyConfig());

  /// Advances the clock by \p Cycles, attributed to \p Phase (pure
  /// compute by default; the runtime passes DynamicCheck, Profiling,
  /// PrefixMatch, or Analysis for its overhead charges).
  void tick(uint64_t Cycles,
            obs::CyclePhase Phase = obs::CyclePhase::PureCompute) {
    Account.charge(Cycles, Phase);
    drainDuePrefetches();
  }

  /// Demand access (load or store — the model treats them alike, as the
  /// paper's data reference definition does).  Returns the latency in
  /// cycles charged for this access; the clock has already advanced.
  ///
  /// This is the per-access hot loop (tens of millions of calls per
  /// matrix cell), so it is forced inline together with Cache::access and
  /// Cache::fillMiss: the tree builds static libraries without LTO, and
  /// left to itself the compiler emitted it out of line in every
  /// workload.  Each level is probed once; a miss fills straight into the
  /// victim way that probe found (Cache::MissSlot).  The rare paths —
  /// useful-prefetch classification, the partial-hit wait and
  /// untouched-prefetch eviction — are out-of-line members.
  [[gnu::always_inline]] uint64_t access(Addr Address) {
    drainDuePrefetches();
    ++Stats.DemandAccesses;

    // L1 hit: single-cycle, no stall.  A hit on a prefetched-untouched
    // line is the prefetch paying off in full — the "useful" class.
    Cache::AccessInfo L1Info;
    Cache::MissSlot L1Slot;
    if (L1.access(Address, &L1Info, &L1Slot)) {
      if (L1Info.PrefetchHit) [[unlikely]]
        recordUseful(Address, L1Info.StreamTag);
      charge(Latency.L1HitCycles, 0);
      return Latency.L1HitCycles;
    }

    // The block may still be on its way in: wait out the remaining
    // latency (the "late" class).
    if (size_t P = findInFlight(Address); P != NotInFlight) [[unlikely]]
      return waitForInFlight(Address, P);

    // L2 hit: fill L1 and pay the L2 latency.  A prefetched-untouched L2
    // line is likewise a useful prefetch (it halved the miss latency).
    // recordUseful only observes, so L1Slot is still valid for the fill.
    Cache::AccessInfo L2Info;
    Cache::MissSlot L2Slot;
    if (L2.access(Address, &L2Info, &L2Slot)) {
      if (L2Info.PrefetchHit) [[unlikely]]
        recordUseful(Address, L2Info.StreamTag);
      fillL1(L1Slot);
      charge(Latency.L2HitCycles, Latency.L2HitCycles - Latency.L1HitCycles);
      return Latency.L2HitCycles;
    }

    // Memory: fill both levels.
    L2.fillMiss(L2Slot);
    fillL1(L1Slot);
    charge(Latency.MemoryCycles, Latency.MemoryCycles - Latency.L1HitCycles);
    return Latency.MemoryCycles;
  }

  /// Prefetch into both cache levels (`prefetcht0`).  Non-binding and
  /// non-blocking: the fill completes after the block's latency.
  /// Software prefetches charge one issue slot now; hardware-initiated
  /// prefetches (stride/Markov engines) pass \p ChargeIssueSlot = false.
  /// \p StreamTag attributes the prefetch (and every later classification
  /// event on its block) to the hot data stream that requested it.
  void prefetchT0(Addr Address, bool ChargeIssueSlot = true,
                  uint32_t StreamTag = obs::NoStreamTag);

  /// Completes every in-flight prefetch and clears both caches and the
  /// cycle account (fresh machine for the next benchmark configuration).
  void reset();

  uint64_t now() const { return Account.total(); }
  const Cache &l1() const { return L1; }
  const Cache &l2() const { return L2; }

  /// The attributed cycle account behind the clock.
  const obs::CycleAccount &account() const { return Account; }

  /// Installs (or clears, with null) the prefetch lifecycle observer.
  /// Not owned; must outlive the hierarchy or be cleared first.
  void setListener(PrefetchListener *L) { Listener = L; }

  /// Accounting snapshot: live event counters plus the stall totals read
  /// from the cycle account.
  HierarchyStats stats() const {
    HierarchyStats Snapshot = Stats;
    Snapshot.StallCycles = Account.stallCycles();
    Snapshot.PartialHitStallCycles =
        Account.phase(obs::CyclePhase::PartialHitStall);
    return Snapshot;
  }

  /// Clears the event counters and per-stream classification buckets.
  /// Stall attribution lives in the cycle account and clears with
  /// reset().
  void clearStats();

  /// Per-stream classification buckets, indexed by stream tag.  Streams
  /// that never produced an event may be absent (vector shorter than the
  /// tag).
  const std::vector<obs::PrefetchClassCounts> &streamClasses() const {
    return StreamClasses;
  }
  /// Classification bucket for untagged prefetches (stride/Markov
  /// hardware engines, tests).
  const obs::PrefetchClassCounts &untaggedClasses() const { return Untagged; }

  /// Number of prefetches currently in flight (for tests).
  unsigned inFlightCount() const {
    return static_cast<unsigned>(InFlightReady.size());
  }

private:
  /// Charges one demand access: the stalled portion is attributed to
  /// DemandStall (or PartialHitStall), the remainder to PureCompute.
  void charge(uint64_t LatencyCycles, uint64_t StallPortion,
              bool PartialHit = false) {
    Account.charge(LatencyCycles - StallPortion,
                   obs::CyclePhase::PureCompute);
    Account.charge(StallPortion, PartialHit
                                     ? obs::CyclePhase::PartialHitStall
                                     : obs::CyclePhase::DemandStall);
  }

  /// Demand fill of L1 into the slot its probe found; an evicted
  /// untouched prefetch is booked out of line.
  [[gnu::always_inline]] void fillL1(const Cache::MissSlot &Slot) {
    const Cache::EvictInfo Evicted = L1.fillMiss(Slot);
    if (Evicted.EvictedUntouchedPrefetch) [[unlikely]]
      recordEviction(Evicted);
  }

  /// Books one demand hit on a prefetched-untouched line (the "useful"
  /// class): counter, per-stream bucket, and the listener.
  void recordUseful(Addr Address, uint32_t StreamTag);

  /// The partial-hit path of access(): the block of \p Address is in
  /// flight at queue index \p P.  Books the late prefetch, waits out the
  /// rest of its latency, lets it fill and touches it.  Returns the
  /// access latency.
  uint64_t waitForInFlight(Addr Address, size_t P);

  /// Books one untouched-prefetch eviction: counters, per-stream bucket,
  /// and the listener's pollution feedback.  The rarest of the three
  /// rare paths (at most 13% of the accesses of any matrix cell, against
  /// 45% for useful and 41% for partial hits), and the only one marked
  /// cold.  Which members carry the attribute moves perfbench's host
  /// probe in 16-byte steps; see docs/benchmarks.md, "Host-probe
  /// alignment".
  [[gnu::cold]] void recordEviction(Cache::EvictInfo Evicted);

  /// Classification bucket for \p StreamTag (grown on demand).
  obs::PrefetchClassCounts &bucket(uint32_t StreamTag) {
    if (StreamTag == obs::NoStreamTag)
      return Untagged;
    if (StreamTag >= StreamClasses.size())
      StreamClasses.resize(StreamTag + 1);
    return StreamClasses[StreamTag];
  }

  /// Moves completed prefetches into the caches.  The fast path is a
  /// single compare against the cached earliest ready cycle — with no
  /// prefetch due (the common case on every tick and access) nothing is
  /// scanned.  NextReadyCycle is always the minimum ReadyCycle over the
  /// in-flight queue, or ~0 when the queue is empty.
  void drainDuePrefetches() {
    if (Account.total() < NextReadyCycle)
      return;
    drainDuePrefetchesSlow();
  }
  void drainDuePrefetchesSlow();

  static constexpr size_t NotInFlight = ~size_t{0};

  /// Index of the in-flight entry covering \p Address, or NotInFlight.
  size_t findInFlight(Addr Address) const {
    if (InFlightBlock.empty())
      return NotInFlight;
    const uint64_t Block = L1.blockOf(Address);
    for (size_t I = 0; I < InFlightBlock.size(); ++I)
      if (InFlightBlock[I] == Block)
        return I;
    return NotInFlight;
  }

  uint32_t inFlightTag(size_t I) const {
    return static_cast<uint32_t>(InFlightMeta[I] >> 1);
  }
  bool inFlightFillsL2(size_t I) const { return (InFlightMeta[I] & 1) != 0; }

  Cache L1;
  Cache L2;
  LatencyConfig Latency;
  obs::CycleAccount Account;
  /// The in-flight prefetch queue, struct-of-arrays: the drain scan reads
  /// only ready cycles and the partial-hit probe only block numbers, and
  /// both run millions of times per prefetching-mode cell — parallel
  /// arrays keep each scan inside a couple of host cache lines instead of
  /// striding through 24-byte records.  Meta packs (StreamTag << 1) |
  /// FillL2 (memory-sourced prefetches fill both levels).
  std::vector<uint64_t> InFlightReady;
  std::vector<uint64_t> InFlightBlock;
  std::vector<uint64_t> InFlightMeta;
  /// min ready cycle over the queue; ~0 when empty (drainDuePrefetches).
  uint64_t NextReadyCycle = ~uint64_t{0};
  PrefetchListener *Listener = nullptr;
  /// Completed fills awaiting listener delivery, staged so callbacks run
  /// only after the queue compaction (scratch, empty between drains).
  std::vector<uint64_t> PendingFillBlock;
  std::vector<uint64_t> PendingFillTag;
  HierarchyStats Stats;
  std::vector<obs::PrefetchClassCounts> StreamClasses;
  obs::PrefetchClassCounts Untagged;
};

} // namespace memsim
} // namespace hds

#endif // HDS_MEMSIM_MEMORYHIERARCHY_H
