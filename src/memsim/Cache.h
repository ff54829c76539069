//===- memsim/Cache.h - Set-associative LRU cache model --------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tag-only set-associative cache with LRU replacement.
///
/// The paper's evaluation machine had a 16 KB 4-way L1 data cache and a
/// 256 KB 8-way L2, both with 32-byte blocks (Section 4.1).  This class
/// models one such level; MemoryHierarchy composes two of them with main
/// memory and an in-flight prefetch queue.
///
/// Lines remember which hot data stream prefetched them (obs::NoStreamTag
/// for demand fills and hardware prefetchers), so the hierarchy can
/// attribute useful / unused-evicted classification events back to the
/// stream that earned them (obs/PrefetchStats.h).
///
/// Performance model of the model: the simulator's own working set is the
/// line metadata, and a modelled L2 is big enough (256 KB of modelled
/// lines) that every probe of a cold set is a *host* cache miss per array
/// touched.  The layout therefore packs one set's hot metadata into two
/// adjacent 64-bit runs — all the set's encoded tags, then all its
/// recency words — so a probe costs one host line for a 4-way set and
/// two for an 8-way set, instead of one per parallel array:
///
///   Lines[set * 2A + way]      encoded tag: (tag << 1) | 1, 0 = invalid
///   Lines[set * 2A + A + way]  recency:     (stamp << 1) | prefetched
///
/// UseClock pre-increments, so a valid line always has stamp >= 1 and a
/// recency word of 0 means invalid.  Stamps are unique, so comparing the
/// shifted recency words orders lines exactly like the raw stamps, and
/// the original "first invalid way, else lowest LastUse" victim policy
/// folds into one branchless first-wins argmin.  The prefetched-untouched
/// flag rides in recency bit 0, leaving the per-stream attribution tag
/// (read only on the rare classification events) in a cold side array.
/// Address-to-set geometry is shift/mask for power-of-two configurations
/// (every real configuration in the tree) with a div/mod fallback.
///
/// The demand path scans a set once per access: access() exits early on
/// the hit way and, on a miss, hands back the set, the encoded tag and
/// the victim way it found on the way (MissSlot), and fillMiss() writes
/// the block there.  Both are forced inline into the hierarchy's access;
/// the rare untouched-prefetch eviction is an out-of-line member.
/// src/testing/ReferenceCache.h keeps the straightforward
/// array-of-line-structs model this replaced; tests/cache_model_test.cpp
/// drives both in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_MEMSIM_CACHE_H
#define HDS_MEMSIM_CACHE_H

#include "obs/Metrics.h"
#include "obs/PrefetchStats.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace hds {
namespace memsim {

/// A physical address in the simulated machine.
using Addr = uint64_t;

/// The simulated address space is 32-bit, like the paper's Pentium III:
/// every address a program touches lies below this bound.  Traces are
/// checked against it when read and the runtime's heap asserts it, so the
/// hardware prefetchers can keep block numbers in 32-bit words.
inline constexpr uint64_t AddressSpaceBytes = uint64_t{1} << 32;

/// Geometry of one cache level.
struct CacheConfig {
  uint64_t SizeBytes = 16 * 1024;
  unsigned Associativity = 4;
  unsigned BlockBytes = 32;

  uint64_t numSets() const {
    assert(SizeBytes % (static_cast<uint64_t>(Associativity) * BlockBytes) ==
               0 &&
           "size must be a whole number of sets");
    return SizeBytes / (static_cast<uint64_t>(Associativity) * BlockBytes);
  }

  /// The paper's L1 data cache: 16 KB, 4-way, 32 B blocks.
  static CacheConfig pentiumIIIL1() { return CacheConfig{16 * 1024, 4, 32}; }
  /// The paper's L2 cache: 256 KB, 8-way, 32 B blocks.
  static CacheConfig pentiumIIIL2() { return CacheConfig{256 * 1024, 8, 32}; }
};

/// Hit/miss/fill counters for one cache level.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t DemandFills = 0;
  uint64_t PrefetchFills = 0;
  uint64_t Evictions = 0;
  /// Demand hits on blocks that were brought in by a prefetch and had not
  /// yet been touched by demand (each such hit is a prefetch that paid off).
  uint64_t UsefulPrefetches = 0;
  /// Prefetched blocks evicted before any demand touch (pure pollution).
  uint64_t WastedPrefetches = 0;

  uint64_t accesses() const { return Hits + Misses; }
  double missRate() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(Misses) /
                     static_cast<double>(accesses());
  }
};

/// Stable metric enumeration: fixed, append-only order shared by every
/// serializer (see obs/Metrics.h for the contract).
template <typename CacheStatsT, typename Fn>
void visitCacheStatsMetrics(CacheStatsT &&Stats, Fn &&Visit) {
  using obs::MetricDef;
  Visit(MetricDef{"hits", "accesses", "demand hits at this level"},
        Stats.Hits);
  Visit(MetricDef{"misses", "accesses", "demand misses at this level"},
        Stats.Misses);
  Visit(MetricDef{"demand_fills", "fills", "lines filled by demand misses"},
        Stats.DemandFills);
  Visit(MetricDef{"prefetch_fills", "fills", "lines filled by prefetches"},
        Stats.PrefetchFills);
  Visit(MetricDef{"evictions", "lines", "valid lines replaced"},
        Stats.Evictions);
  Visit(MetricDef{"useful_prefetches", "prefetches",
                  "demand hits on untouched prefetched lines"},
        Stats.UsefulPrefetches);
  Visit(MetricDef{"wasted_prefetches", "prefetches",
                  "prefetched lines evicted before any demand touch"},
        Stats.WastedPrefetches);
}

/// One level of a set-associative, true-LRU, tag-only cache.
///
/// Lines carry a "prefetched, not yet demanded" bit so the statistics can
/// separate useful prefetches from pollution — the effect that makes the
/// paper's Seq-pref straw man lose on most benchmarks (Section 4.3).
/// See the file comment for the packed set-major line layout.
class Cache {
public:
  /// Classification detail reported by access(): whether the hit consumed
  /// a prefetched-untouched line, and which stream prefetched it.
  struct AccessInfo {
    bool PrefetchHit = false;
    uint32_t StreamTag = obs::NoStreamTag;
  };

  /// Classification detail reported by fill(): whether the victim was a
  /// prefetched line that no demand access ever touched, and — when it
  /// was — which stream prefetched it and where it lived (the block's
  /// base address, reconstructed from the victim's tag; pollution
  /// feedback for the prefetcher zoo's eviction hooks).
  struct EvictInfo {
    bool EvictedUntouchedPrefetch = false;
    uint32_t EvictedStreamTag = obs::NoStreamTag;
    Addr EvictedBlockAddr = 0;
  };

  /// Where a block that missed will go: the probed set, the block's
  /// encoded tag and the set's first-wins LRU victim way, as found by the
  /// one scan of access().  fillMiss() places the block there without
  /// scanning the set again.
  ///
  /// Contract: a slot stays valid only while nothing changes its set.
  /// Between access() returning it and fillMiss() consuming it, the set
  /// must see no fill, access or touch of this cache (reads such as
  /// contains() are fine; other sets and other caches are unaffected).
  /// MemoryHierarchy::access keeps the contract by construction: nothing
  /// between its probe and its fill touches a cache (the useful-prefetch
  /// bookkeeping only counts).  slotValid() checks it, and fillMiss()
  /// asserts it in debug builds.
  struct MissSlot {
    uint64_t Base = 0; ///< the set's first tag slot in Lines
    Addr Tag = 0;      ///< encoded tag of the missing block
    unsigned Way = 0;  ///< first-wins LRU victim way
  };

  explicit Cache(const CacheConfig &Config);

  /// Looks up \p Address without changing any state.
  bool contains(Addr Address) const {
    return findWay(setBase(Address), encodeTag(Address)) != NoWay;
  }

  /// Demand access: returns true on hit (and updates LRU + prefetch
  /// accounting).  On miss, no fill happens here — the hierarchy decides
  /// where fills go.  When \p Info is non-null it receives the prefetch
  /// classification detail for this access; when \p Slot is non-null a
  /// miss stores where the block would go (see MissSlot).
  ///
  /// One scan of the set with early exit on the hit way; the victim
  /// argmin rides along (first invalid way, else lowest stamp: invalid
  /// ways hold recency 0 and win before any valid one).  Forced inline:
  /// this is the per-access hot path of MemoryHierarchy::access.
  [[gnu::always_inline]] bool access(Addr Address, AccessInfo *Info = nullptr,
                                     MissSlot *Slot = nullptr) {
    const uint64_t Base = setBase(Address);
    const Addr Tag = encodeTag(Address);
    const unsigned A = Config.Associativity;
    unsigned Victim = 0;
    uint64_t Oldest = Lines[Base + A];
    for (unsigned Way = 0; Way < A; ++Way) {
      if (Lines[Base + Way] == Tag) {
        ++Stats.Hits;
        uint64_t &Recency = Lines[Base + A + Way];
        const bool Prefetched = (Recency & 1) != 0;
        Recency = ++UseClock << 1; // fresh stamp, prefetched bit consumed
        if (Prefetched) [[unlikely]] {
          ++Stats.UsefulPrefetches;
          if (Info) {
            Info->PrefetchHit = true;
            Info->StreamTag = StreamTags[Base / 2 + Way];
          }
        }
        return true;
      }
      const uint64_t Recency = Lines[Base + A + Way];
      const bool Older = Recency < Oldest;
      Oldest = Older ? Recency : Oldest;
      Victim = Older ? Way : Victim;
    }
    ++Stats.Misses;
    if (Slot)
      *Slot = MissSlot{Base, Tag, Victim};
    return false;
  }

  /// Demand fill of a block that access() just missed, into the slot
  /// that access() returned — no second scan.  Same effect as
  /// fill(Address, /*IsPrefetch=*/false) on the missing block.
  [[gnu::always_inline]] EvictInfo fillMiss(const MissSlot &Slot) {
    assert(slotValid(Slot) && "MissSlot used after its set changed");
    return place(Slot.Base, Slot.Way, Slot.Tag, /*IsPrefetch=*/false,
                 obs::NoStreamTag);
  }

  /// Whether \p Slot still describes its set: the set does not hold the
  /// slot's tag, and the slot's way is still the first-wins LRU victim.
  bool slotValid(const MissSlot &Slot) const;

  /// Probe-and-touch for prefetch redundancy checks: on a hit this is
  /// exactly access() (hit counted, LRU refreshed, prefetched bit
  /// consumed); on a miss nothing changes — no miss is counted.  Fuses
  /// the hierarchy's former contains() + access() pair into one probe.
  bool touchIfPresent(Addr Address) {
    const uint64_t Base = setBase(Address);
    const unsigned Way = findWay(Base, encodeTag(Address));
    if (Way == NoWay)
      return false;
    ++Stats.Hits;
    uint64_t &Recency = Lines[Base + Config.Associativity + Way];
    if (Recency & 1)
      ++Stats.UsefulPrefetches;
    Recency = ++UseClock << 1; // fresh stamp, prefetched bit consumed
    return true;
  }

  /// Fills the block containing \p Address, evicting LRU if needed.
  /// \p IsPrefetch marks the line for useful/wasted prefetch accounting;
  /// \p StreamTag records which hot data stream issued the prefetch.
  /// Returns eviction classification detail for the victim line.
  /// Refilling a resident block only refreshes its recency.  The
  /// hierarchy's demand path uses access() + fillMiss() instead; this is
  /// the prefetch drain's fill.
  EvictInfo fill(Addr Address, bool IsPrefetch,
                 uint32_t StreamTag = obs::NoStreamTag);

  /// Drops all lines (used between benchmark configurations).
  void reset();

  /// Block number of \p Address: a shift for power-of-two block sizes
  /// (every real configuration), a division otherwise.  The hierarchy
  /// and the prefetcher zoo share it so no hot path divides.
  uint64_t blockOf(Addr Address) const {
    return BlockPow2 ? Address >> BlockShift : Address / Config.BlockBytes;
  }

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }
  void clearStats() { Stats = CacheStats(); }

  /// Number of currently valid lines (for tests).
  uint64_t validLineCount() const;

private:
  static constexpr unsigned NoWay = ~0u;

  /// Index of a set's first tag slot in Lines (set * 2 * Associativity).
  uint64_t setBase(Addr Address) const {
    const uint64_t Block = blockOf(Address);
    return (ShiftGeometry ? Block & SetMask : Block % NumSets) *
           (2 * Config.Associativity);
  }
  /// The stored form of a tag: (tag << 1) | 1.  Bit 0 doubles as the
  /// valid bit — an invalid slot holds 0, which no encoded tag equals —
  /// so the way scan compares one word per way.  Tags are block-number
  /// >> set-bits, leaving bit 63 free for the shift.
  Addr encodeTag(Addr Address) const {
    const uint64_t Block = blockOf(Address);
    return ((ShiftGeometry ? Block >> SetShift : Block / NumSets) << 1) | 1;
  }

  /// Writes encoded tag \p Tag into way \p Way of the set at \p Base,
  /// evicting what the way held: the shared tail of fill() and
  /// fillMiss().
  [[gnu::always_inline]] EvictInfo place(uint64_t Base, unsigned Way,
                                         Addr Tag, bool IsPrefetch,
                                         uint32_t StreamTag) {
    uint64_t &Recency = Lines[Base + Config.Associativity + Way];
    EvictInfo Evicted;
    if (Recency != 0) {
      ++Stats.Evictions;
      if (Recency & 1) [[unlikely]]
        Evicted = evictUntouched(Base, Way);
    }
    Lines[Base + Way] = Tag;
    Recency = (++UseClock << 1) | (IsPrefetch ? 1 : 0);
    if (IsPrefetch) {
      StreamTags[Base / 2 + Way] = StreamTag;
      ++Stats.PrefetchFills;
    } else {
      ++Stats.DemandFills;
    }
    return Evicted;
  }

  /// Books the eviction of an untouched prefetched line at \p Way of the
  /// set at \p Base (a wasted prefetch) and rebuilds its block address
  /// from the stored tag.  Rare; kept out of line.
  EvictInfo evictUntouched(uint64_t Base, unsigned Way);

  /// Way index within the set at \p Base holding encoded tag \p Tag, or
  /// NoWay.
  unsigned findWay(uint64_t Base, Addr Tag) const {
    for (unsigned Way = 0; Way < Config.Associativity; ++Way)
      if (Lines[Base + Way] == Tag)
        return Way;
    return NoWay;
  }

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t UseClock = 0;

  /// BlockShift is valid when BlockBytes is a power of two; the set
  /// shift/mask geometry when NumSets is one as well.
  bool BlockPow2 = false;
  unsigned BlockShift = 0;
  bool ShiftGeometry = false;
  unsigned SetShift = 0;
  uint64_t SetMask = 0;

  /// Packed per-set metadata, 2 * Associativity words per set: the set's
  /// encoded tags, then its recency words (see file comment).
  std::vector<uint64_t> Lines;
  /// Stream attribution per line (set * Associativity + way), read only
  /// on prefetch classification events.
  std::vector<uint32_t> StreamTags;

  CacheStats Stats;
};

} // namespace memsim
} // namespace hds

#endif // HDS_MEMSIM_CACHE_H
