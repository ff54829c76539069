//===- memsim/Cache.cpp - Set-associative LRU cache model -----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "memsim/Cache.h"

#include <bit>

using namespace hds;
using namespace hds::memsim;

Cache::Cache(const CacheConfig &Cfg) : Config(Cfg), NumSets(Cfg.numSets()) {
  Lines.assign(NumSets * 2 * Cfg.Associativity, 0);
  StreamTags.assign(NumSets * Cfg.Associativity, obs::NoStreamTag);

  if (std::has_single_bit(uint64_t{Cfg.BlockBytes})) {
    BlockPow2 = true;
    BlockShift = static_cast<unsigned>(
        std::countr_zero(uint64_t{Cfg.BlockBytes}));
  }
  if (BlockPow2 && std::has_single_bit(NumSets)) {
    ShiftGeometry = true;
    SetShift = static_cast<unsigned>(std::countr_zero(NumSets));
    SetMask = NumSets - 1;
  }
}

void Cache::reset() {
  Lines.assign(Lines.size(), 0);
  StreamTags.assign(StreamTags.size(), obs::NoStreamTag);
  UseClock = 0;
}

Cache::EvictInfo Cache::fill(Addr Address, bool IsPrefetch,
                             uint32_t StreamTag) {
  const uint64_t Base = setBase(Address);
  const Addr Tag = encodeTag(Address);
  const unsigned A = Config.Associativity;

  // One pass finds the resident way and the LRU victim together: the
  // first-wins argmin over the recency words is the victim policy
  // (invalid ways hold 0 and therefore win before any valid way, and
  // unique stamps make the shifted comparison order exact).
  unsigned Hit = NoWay;
  unsigned Victim = 0;
  uint64_t Oldest = Lines[Base + A];
  for (unsigned Way = 0; Way < A; ++Way) {
    if (Lines[Base + Way] == Tag)
      Hit = Way;
    const uint64_t Recency = Lines[Base + A + Way];
    const bool Older = Recency < Oldest;
    Oldest = Older ? Recency : Oldest;
    Victim = Older ? Way : Victim;
  }

  if (Hit != NoWay) {
    // Refilling a resident block just refreshes recency; it must not
    // re-arm the prefetch bit on a demand-touched line (nor clear it on a
    // still-untouched one).
    uint64_t &Recency = Lines[Base + A + Hit];
    Recency = (++UseClock << 1) | (Recency & 1);
    return EvictInfo();
  }

  return place(Base, Victim, Tag, IsPrefetch, StreamTag);
}

Cache::EvictInfo Cache::evictUntouched(uint64_t Base, unsigned Way) {
  ++Stats.WastedPrefetches;
  EvictInfo Evicted;
  Evicted.EvictedUntouchedPrefetch = true;
  Evicted.EvictedStreamTag = StreamTags[Base / 2 + Way];
  // Rebuild the victim's block address from its stored tag and the set
  // index.
  const uint64_t Set = Base / (2 * Config.Associativity);
  const uint64_t VictimTag = Lines[Base + Way] >> 1;
  const uint64_t VictimBlock =
      ShiftGeometry ? (VictimTag << SetShift) | Set : VictimTag * NumSets + Set;
  Evicted.EvictedBlockAddr = VictimBlock * Config.BlockBytes;
  return Evicted;
}

bool Cache::slotValid(const MissSlot &Slot) const {
  const unsigned A = Config.Associativity;
  if (Slot.Base % (2 * A) != 0 || Slot.Base >= Lines.size() ||
      Slot.Way >= A || (Slot.Tag & 1) == 0)
    return false;
  if (findWay(Slot.Base, Slot.Tag) != NoWay)
    return false;
  unsigned Victim = 0;
  for (unsigned Way = 1; Way < A; ++Way)
    if (Lines[Slot.Base + A + Way] < Lines[Slot.Base + A + Victim])
      Victim = Way;
  return Victim == Slot.Way;
}

uint64_t Cache::validLineCount() const {
  const unsigned A = Config.Associativity;
  uint64_t Count = 0;
  for (uint64_t Set = 0; Set < NumSets; ++Set)
    for (unsigned Way = 0; Way < A; ++Way)
      if (Lines[Set * 2 * A + A + Way] != 0)
        ++Count;
  return Count;
}
