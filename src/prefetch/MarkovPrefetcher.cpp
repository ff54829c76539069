//===- prefetch/MarkovPrefetcher.cpp - Correlation-based prefetcher --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/MarkovPrefetcher.h"

#include <algorithm>
#include <bit>

using namespace hds;
using namespace hds::prefetch;

namespace {

/// Nodes the table must hold: MaxNodes, or one when MaxNodes is 0 (the
/// ring then still admits one node before it starts evicting).
uint64_t nodeBound(const MarkovPrefetcherConfig &Config) {
  return std::max<uint64_t>(Config.MaxNodes, 1);
}

/// Power-of-two slot count keeping the load at or under 2/3 with at
/// least one empty slot, so every probe run terminates.
uint64_t slotsFor(const MarkovPrefetcherConfig &Config) {
  const uint64_t Bound = nodeBound(Config);
  return std::bit_ceil(Bound + Bound / 2 + 1);
}

} // namespace

MarkovPrefetcher::MarkovPrefetcher(const MarkovPrefetcherConfig &Cfg,
                                   uint32_t AssignedTag)
    : Prefetcher(Kind::Markov, AssignedTag), Config(Cfg),
      SlotWords(1 + size_t{Cfg.SuccessorsPerNode}),
      SlotMask(static_cast<size_t>(slotsFor(Cfg) - 1)),
      HashShift(64u - static_cast<unsigned>(std::countr_zero(SlotMask + 1))) {
}

size_t MarkovPrefetcher::find(uint64_t Block) const {
  size_t Index = homeSlot(Block);
  for (;;) {
    const uint64_t Key = Table[Index * SlotWords];
    if (Key == Block || Key == Empty)
      return Index;
    Index = (Index + 1) & SlotMask;
  }
}

void MarkovPrefetcher::erase(size_t Hole) {
  // Backward shift: a later member of the run moves into the hole when
  // the hole lies between its home slot and where it sits now.
  for (size_t Next = (Hole + 1) & SlotMask;; Next = (Next + 1) & SlotMask) {
    const uint64_t *Member = slot(Next);
    if (Member[0] == Empty)
      break;
    const size_t Displacement = (Next - homeSlot(Member[0])) & SlotMask;
    if (Displacement >= ((Next - Hole) & SlotMask)) {
      std::copy(Member, Member + SlotWords, slot(Hole));
      Hole = Next;
    }
  }
  slot(Hole)[0] = Empty;
  --Nodes;
}

void MarkovPrefetcher::onMiss(const AccessEvent &Event,
                              memsim::MemoryHierarchy &Hierarchy) {
  if (Table.empty()) {
    Table.assign(slotCount() * SlotWords, Empty);
    InsertionOrder.reserve(nodeBound(Config));
  }
  const uint64_t Block = Hierarchy.l1().blockOf(Event.Addr);
  const uint32_t Slots = Config.SuccessorsPerNode;

  // (a) Learn: the previous miss is followed by this one.
  if (LastMissBlock != Empty && LastMissBlock != Block) {
    size_t Index = find(LastMissBlock);
    if (slot(Index)[0] == Empty) {
      if (Nodes >= Config.MaxNodes && !InsertionOrder.empty()) {
        // Evict the oldest node (round-robin over insertion order); the
        // shift may move LastMissBlock's insertion point.
        erase(find(InsertionOrder[EvictCursor]));
        InsertionOrder[EvictCursor] = LastMissBlock;
        EvictCursor = (EvictCursor + 1) % InsertionOrder.size();
        Index = find(LastMissBlock);
      } else {
        InsertionOrder.push_back(LastMissBlock);
      }
      uint64_t *Fresh = slot(Index);
      Fresh[0] = LastMissBlock;
      std::fill(Fresh + 1, Fresh + SlotWords, Empty);
      ++Nodes;
    }
    uint64_t *Successors = slot(Index) + 1;
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
  const uint64_t *Node = slot(find(Block));
  if (Node[0] != Block)
    return;
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  for (uint32_t I = 1; I <= Slots && Node[I] != Empty; ++I)
    issue(Node[I] * BlockBytes, Hierarchy);
}

void MarkovPrefetcher::reset() {
  Prefetcher::reset();
  Table.clear();
  Nodes = 0;
  InsertionOrder.clear();
  EvictCursor = 0;
  LastMissBlock = Empty;
}
