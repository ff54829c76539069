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

uint64_t Cache::validLineCount() const {
  const unsigned A = Config.Associativity;
  uint64_t Count = 0;
  for (uint64_t Set = 0; Set < NumSets; ++Set)
    for (unsigned Way = 0; Way < A; ++Way)
      if (Lines[Set * 2 * A + A + Way] != 0)
        ++Count;
  return Count;
}
