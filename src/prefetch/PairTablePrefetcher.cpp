//===- prefetch/PairTablePrefetcher.cpp - Temporal pair table --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/PairTablePrefetcher.h"

#include <cassert>

using namespace hds;
using namespace hds::prefetch;

uint32_t PairTablePrefetcher::blockOf(memsim::Addr Addr,
                                      const memsim::MemoryHierarchy &Hierarchy) {
  const uint64_t Block = Hierarchy.l1().blockOf(Addr);
  assert(Block < NoBlock && "block number does not fit 32 bits");
  return static_cast<uint32_t>(Block);
}

void PairTablePrefetcher::train(uint32_t FromBlock, uint32_t ToBlock) {
  countTrain();
  Entry *Set = &Table[setBase(FromBlock)];

  // Exact pair present: reinforce.
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    Entry &E = Set[Way];
    if (E.KeyBlock == FromBlock && E.NextBlock == ToBlock) {
      if (E.Confidence < Config.MaxConfidence)
        ++E.Confidence;
      return;
    }
  }

  // Empty way: allocate at confidence 1.
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    Entry &E = Set[Way];
    if (E.KeyBlock == NoBlock) {
      E.KeyBlock = FromBlock;
      E.NextBlock = ToBlock;
      E.Confidence = 1;
      return;
    }
  }

  // Full set: decay the weakest way (first-wins ties keep replacement
  // deterministic); only a fully decayed way is handed to the new pair.
  uint32_t Victim = 0;
  for (uint32_t Way = 1; Way < Config.Ways; ++Way)
    if (Set[Way].Confidence < Set[Victim].Confidence)
      Victim = Way;
  Entry &E = Set[Victim];
  if (E.Confidence > 0) {
    --E.Confidence;
    return;
  }
  E.KeyBlock = FromBlock;
  E.NextBlock = ToBlock;
  E.Confidence = 1;
}

void PairTablePrefetcher::predict(uint32_t Block, uint32_t Budget,
                                  uint64_t BlockBytes,
                                  memsim::MemoryHierarchy &Hierarchy) {
  const Entry *Set = &Table[setBase(Block)];
  // Most confident successors first; ties resolve by way order so the
  // issue sequence is a pure function of table state.  Candidate ways
  // are kept sorted by (confidence desc, way asc) with an in-place
  // insertion sort — sets are a handful of ways.
  uint32_t Count = 0;
  for (uint32_t Way = 0; Way < Config.Ways; ++Way) {
    const Entry &E = Set[Way];
    if (E.KeyBlock != Block || E.Confidence < Config.IssueThreshold)
      continue;
    uint32_t Pos = Count;
    while (Pos > 0 && Set[Candidates[Pos - 1]].Confidence < E.Confidence) {
      Candidates[Pos] = Candidates[Pos - 1];
      --Pos;
    }
    Candidates[Pos] = Way;
    ++Count;
  }
  // A nested predict() (see Candidates) may rewrite the slots between
  // issues; this loop deliberately rereads them.
  for (uint32_t I = 0; I < Count && I < Budget; ++I)
    issue(uint64_t{Set[Candidates[I]].NextBlock} * BlockBytes, Hierarchy);
}

void PairTablePrefetcher::onMiss(const AccessEvent &Event,
                                 memsim::MemoryHierarchy &Hierarchy) {
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  const uint32_t Block = blockOf(Event.Addr, Hierarchy);

  if (LastMissBlock != NoBlock && LastMissBlock != Block)
    train(LastMissBlock, Block);
  LastMissBlock = Block;

  predict(Block, Config.Degree, BlockBytes, Hierarchy);
}

void PairTablePrefetcher::onFill(memsim::Addr BlockAddr,
                                 memsim::MemoryHierarchy &Hierarchy) {
  if (!Config.ChainOnFill)
    return;
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  predict(blockOf(BlockAddr, Hierarchy), 1, BlockBytes, Hierarchy);
}

uint64_t PairTablePrefetcher::occupiedEntries() const {
  uint64_t Count = 0;
  for (const Entry &E : Table)
    Count += E.KeyBlock != NoBlock ? 1 : 0;
  return Count;
}

void PairTablePrefetcher::reset() {
  Prefetcher::reset();
  for (Entry &E : Table)
    E = Entry();
  LastMissBlock = NoBlock;
}
