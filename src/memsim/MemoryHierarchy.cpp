//===- memsim/MemoryHierarchy.cpp - Two-level hierarchy + prefetch --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "memsim/MemoryHierarchy.h"

using namespace hds;
using namespace hds::memsim;

MemoryHierarchy::MemoryHierarchy(const CacheConfig &L1Config,
                                 const CacheConfig &L2Config,
                                 const LatencyConfig &Lat)
    : L1(L1Config), L2(L2Config), Latency(Lat) {
  assert(L1Config.BlockBytes == L2Config.BlockBytes &&
         "levels must share a block size");
  InFlightReady.reserve(Latency.MaxInFlightPrefetches);
  InFlightBlock.reserve(Latency.MaxInFlightPrefetches);
  InFlightMeta.reserve(Latency.MaxInFlightPrefetches);
}

void MemoryHierarchy::recordUseful(uint32_t StreamTag) {
  ++Stats.PrefetchesUseful;
  ++bucket(StreamTag).Useful;
}

uint64_t MemoryHierarchy::waitForInFlight(Addr Address, size_t P) {
  // This is how an early-but-not-early-enough prefetch still hides part
  // of a miss.
  const uint64_t Remaining = InFlightReady[P] - Account.total();
  ++Stats.PartialHits;
  ++bucket(inFlightTag(P)).Late;
  charge(Remaining, Remaining, /*PartialHit=*/true);
  drainDuePrefetches(); // fills this block (and any other due ones)
  // The arriving line counts as a useful prefetch in the cache-level
  // stats the moment demand touches it; hierarchy-level classification
  // already recorded the event as late.
  L1.access(Address);
  charge(Latency.L1HitCycles, 0);
  return Remaining + Latency.L1HitCycles;
}

void MemoryHierarchy::recordEviction(uint32_t StreamTag) {
  ++Stats.PrefetchesUnusedEvicted;
  ++bucket(StreamTag).UnusedEvicted;
}

void MemoryHierarchy::drainDuePrefetchesSlow() {
  // One pass fills due entries, compacts the survivors in place, and
  // tracks the new earliest ready cycle.  Fills happen in queue order,
  // exactly as the separate fill / remove_if / min passes this replaces
  // did, and the compaction moves only queue entries — it never touches
  // cache state — so the simulated state transitions are identical.
  // This runs every time a prefetch comes due (millions of times per
  // prefetching-mode cell), so the pass count matters.
  const uint64_t Now = Account.total();
  const size_t Size = InFlightReady.size();
  uint64_t NextReady = ~uint64_t{0};
  size_t Keep = 0;
  for (size_t I = 0; I < Size; ++I) {
    const uint64_t Ready = InFlightReady[I];
    if (Ready <= Now) {
      const Addr BlockAddr = InFlightBlock[I] * L1.config().BlockBytes;
      const uint32_t StreamTag = inFlightTag(I);
      const Cache::EvictInfo Evicted =
          L1.fill(BlockAddr, /*IsPrefetch=*/true, StreamTag);
      if (Evicted.EvictedUntouchedPrefetch)
        recordEviction(Evicted.EvictedStreamTag);
      if (inFlightFillsL2(I))
        L2.fill(BlockAddr, /*IsPrefetch=*/true, StreamTag);
      if (Listener) {
        PendingFillBlock.push_back(InFlightBlock[I]);
        PendingFillTag.push_back(StreamTag);
      }
    } else {
      NextReady = Ready < NextReady ? Ready : NextReady;
      InFlightReady[Keep] = Ready;
      InFlightBlock[Keep] = InFlightBlock[I];
      InFlightMeta[Keep] = InFlightMeta[I];
      ++Keep;
    }
  }
  InFlightReady.resize(Keep);
  InFlightBlock.resize(Keep);
  InFlightMeta.resize(Keep);
  NextReadyCycle = NextReady;

  // Fill callbacks run only now that the queue is consistent, so a
  // chaining listener may issue follow-up prefetches from inside the
  // callback (prefetchT0 re-enters drainDuePrefetches, which has nothing
  // due anymore and returns immediately).
  if (Listener && !PendingFillBlock.empty()) {
    for (size_t I = 0; I < PendingFillBlock.size(); ++I)
      Listener->onPrefetchFill(PendingFillBlock[I] * L1.config().BlockBytes,
                               static_cast<uint32_t>(PendingFillTag[I]),
                               *this);
    PendingFillBlock.clear();
    PendingFillTag.clear();
  }
}

void MemoryHierarchy::prefetchT0(Addr Address, bool ChargeIssueSlot,
                                 uint32_t StreamTag) {
  drainDuePrefetches();
  if (ChargeIssueSlot)
    Account.charge(Latency.PrefetchIssueCycles,
                   obs::CyclePhase::PrefetchIssue);
  ++Stats.PrefetchesIssued;
  ++bucket(StreamTag).Issued;

  if (L1.contains(Address) || findInFlight(Address) != NotInFlight) {
    ++Stats.PrefetchesRedundant;
    ++bucket(StreamTag).Redundant;
    return;
  }
  if (InFlightReady.size() >= Latency.MaxInFlightPrefetches) {
    ++Stats.PrefetchesDroppedQueueFull;
    ++bucket(StreamTag).DroppedQueueFull;
    return;
  }

  // L2-resident: only the L1 fill is outstanding.  touchIfPresent probes
  // once, refreshing L2 recency on a hit so the line stays resident for
  // the expected demand access.
  uint64_t ReadyCycle;
  bool FillL2;
  if (L2.touchIfPresent(Address)) {
    ReadyCycle = Account.total() + Latency.L2HitCycles;
    FillL2 = false;
  } else {
    ReadyCycle = Account.total() + Latency.MemoryCycles;
    FillL2 = true;
  }
  InFlightReady.push_back(ReadyCycle);
  InFlightBlock.push_back(L1.blockOf(Address));
  InFlightMeta.push_back((uint64_t{StreamTag} << 1) | (FillL2 ? 1 : 0));
  if (ReadyCycle < NextReadyCycle)
    NextReadyCycle = ReadyCycle;
}

void MemoryHierarchy::reset() {
  InFlightReady.clear();
  InFlightBlock.clear();
  InFlightMeta.clear();
  NextReadyCycle = ~uint64_t{0};
  L1.reset();
  L2.reset();
  Account.reset();
}

void MemoryHierarchy::clearStats() {
  Stats = HierarchyStats();
  L1.clearStats();
  L2.clearStats();
  StreamClasses.clear();
  Untagged = obs::PrefetchClassCounts();
}
