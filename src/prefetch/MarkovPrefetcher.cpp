//===- prefetch/MarkovPrefetcher.cpp - Correlation-based prefetcher --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/MarkovPrefetcher.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace hds;
using namespace hds::prefetch;

namespace {

/// Nodes the pool holds: MaxNodes, or one when MaxNodes is 0.
uint32_t nodeBound(const MarkovPrefetcherConfig &Config) {
  return std::max<uint32_t>(Config.MaxNodes, 1);
}

/// Power-of-two index size keeping the load at or under 2/3 with at
/// least one empty slot, so every probe run terminates.
uint64_t slotsFor(const MarkovPrefetcherConfig &Config) {
  const uint64_t Bound = nodeBound(Config);
  return std::bit_ceil(Bound + Bound / 2 + 1);
}

} // namespace

MarkovPrefetcher::MarkovPrefetcher(const MarkovPrefetcherConfig &Cfg,
                                   uint32_t AssignedTag)
    : Prefetcher(Kind::Markov, AssignedTag), Config(Cfg),
      NodeWords(1 + size_t{Cfg.SuccessorsPerNode}), NodeBound(nodeBound(Cfg)),
      SlotMask(static_cast<size_t>(slotsFor(Cfg) - 1)),
      HashShift(64u - static_cast<unsigned>(std::countr_zero(SlotMask + 1))) {
}

size_t MarkovPrefetcher::find(uint32_t Block) const {
  size_t Slot = homeSlot(Block);
  for (;;) {
    const uint32_t Id = Index[Slot];
    if (Id == NoNode || node(Id)[0] == Block)
      return Slot;
    Slot = (Slot + 1) & SlotMask;
  }
}

void MarkovPrefetcher::erase(size_t Hole) {
  // Backward shift: a later member of the run moves into the hole when
  // the hole lies between its home slot and where it sits now.
  for (size_t Next = (Hole + 1) & SlotMask;; Next = (Next + 1) & SlotMask) {
    const uint32_t Id = Index[Next];
    if (Id == NoNode)
      break;
    const size_t Displacement = (Next - homeSlot(node(Id)[0])) & SlotMask;
    if (Displacement >= ((Next - Hole) & SlotMask)) {
      Index[Hole] = Id;
      Hole = Next;
    }
  }
  Index[Hole] = NoNode;
}

void MarkovPrefetcher::onMiss(const AccessEvent &Event,
                              memsim::MemoryHierarchy &Hierarchy) {
  if (Store.empty()) {
    Store.map(storeBytes());
    Pool = static_cast<uint32_t *>(Store.data());
    Index = Pool + size_t{NodeBound} * NodeWords;
    std::fill(Index, Index + slotCount(), NoNode);
  }
  const uint64_t Wide = Hierarchy.l1().blockOf(Event.Addr);
  assert(Wide < Empty && "block number does not fit 32 bits");
  const auto Block = static_cast<uint32_t>(Wide);
  const uint32_t Slots = Config.SuccessorsPerNode;

  // (a) Learn: the previous miss is followed by this one.
  if (LastMissBlock != Empty && LastMissBlock != Block) {
    size_t Slot = find(LastMissBlock);
    uint32_t Id = Index[Slot];
    if (Id == NoNode) {
      Id = NextId;
      NextId = NextId + 1 == NodeBound ? 0 : NextId + 1;
      if (Nodes == NodeBound) {
        // The id's previous owner is the oldest node: evict it.  The
        // shift may move LastMissBlock's insertion point.
        erase(find(node(Id)[0]));
        Slot = find(LastMissBlock);
      } else {
        ++Nodes;
      }
      Index[Slot] = Id;
      uint32_t *Fresh = node(Id);
      Fresh[0] = LastMissBlock;
      std::fill(Fresh + 1, Fresh + NodeWords, Empty);
    }
    uint32_t *Successors = node(Id) + 1;
    uint32_t Pos = 0;
    while (Pos < Slots && Successors[Pos] != Block &&
           Successors[Pos] != Empty)
      ++Pos;
    if (Pos < Slots && Successors[Pos] == Block) {
      // Move to front (highest priority).
      std::copy_backward(Successors, Successors + Pos, Successors + Pos + 1);
      Successors[0] = Block;
    } else {
      // New successor in front; a full list drops its oldest.
      if (Slots > 0) {
        std::copy_backward(Successors, Successors + Slots - 1,
                           Successors + Slots);
        Successors[0] = Block;
      }
      countTrain();
    }
  }
  LastMissBlock = Block;

  // (b) Predict: prefetch this block's recorded successors, prioritized
  // by recency.
  const uint32_t Id = Index[find(Block)];
  if (Id == NoNode)
    return;
  const uint32_t *Node = node(Id);
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  for (uint32_t I = 1; I <= Slots && Node[I] != Empty; ++I)
    issue(uint64_t{Node[I]} * BlockBytes, Hierarchy);
}

void MarkovPrefetcher::reset() {
  Prefetcher::reset();
  Store.release();
  Pool = nullptr;
  Index = nullptr;
  Nodes = 0;
  NextId = 0;
  LastMissBlock = Empty;
}
