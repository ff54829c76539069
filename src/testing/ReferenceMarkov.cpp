//===- testing/ReferenceMarkov.cpp - Pre-rewrite Markov table -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceMarkov.h"

#include <algorithm>

using namespace hds;
using namespace hds::testing;

void ReferenceMarkov::onMiss(const prefetch::AccessEvent &Event,
                             memsim::MemoryHierarchy &Hierarchy) {
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  const uint64_t Block = Event.Addr / BlockBytes;

  // (a) Learn: the previous miss is followed by this one.
  if (LastMissBlock != ~uint64_t{0} && LastMissBlock != Block) {
    auto It = Nodes.find(LastMissBlock);
    if (It == Nodes.end()) {
      if (Nodes.size() >= Config.MaxNodes && !InsertionOrder.empty()) {
        // Evict the oldest node (round-robin over insertion order).
        Nodes.erase(InsertionOrder[EvictCursor]);
        InsertionOrder[EvictCursor] = LastMissBlock;
        EvictCursor = (EvictCursor + 1) % InsertionOrder.size();
      } else {
        InsertionOrder.push_back(LastMissBlock);
      }
      It = Nodes.emplace(LastMissBlock, Node()).first;
    }
    std::vector<uint64_t> &Successors = It->second.Successors;
    auto Existing = std::find(Successors.begin(), Successors.end(), Block);
    if (Existing != Successors.end()) {
      // Move to front (highest priority).
      std::rotate(Successors.begin(), Existing, Existing + 1);
    } else {
      Successors.insert(Successors.begin(), Block);
      if (Successors.size() > Config.SuccessorsPerNode)
        Successors.pop_back();
      countTrain();
    }
  }
  LastMissBlock = Block;

  // (b) Predict: prefetch this block's recorded successors, prioritized
  // by recency.
  auto It = Nodes.find(Block);
  if (It != Nodes.end())
    for (uint64_t Successor : It->second.Successors)
      issue(Successor * BlockBytes, Hierarchy);
}

void ReferenceMarkov::reset() {
  Prefetcher::reset();
  Nodes.clear();
  InsertionOrder.clear();
  EvictCursor = 0;
  LastMissBlock = ~uint64_t{0};
}
