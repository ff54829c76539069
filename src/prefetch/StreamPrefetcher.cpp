//===- prefetch/StreamPrefetcher.cpp - Confidence stream prefetcher --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/StreamPrefetcher.h"

using namespace hds;
using namespace hds::prefetch;

void StreamPrefetcher::onMiss(const AccessEvent &Event,
                              memsim::MemoryHierarchy &Hierarchy) {
  const uint64_t Block = Hierarchy.l1().blockOf(Event.Addr);
  const uint64_t Region = Event.Addr >> Config.RegionShift;

  Entry &E = Table[static_cast<size_t>(Region) % Table.size()];
  if (E.Region != Region) {
    // Direct-mapped takeover: a new region restarts detection.
    E.Region = Region;
    E.LastBlock = Block;
    E.Direction = 1;
    E.Confidence = 0;
    return;
  }

  const int64_t Delta =
      static_cast<int64_t>(Block) - static_cast<int64_t>(E.LastBlock);
  if (Delta == 0)
    return; // re-miss of the same block (e.g. L2 hit): neutral

  countTrain();
  const int8_t Dir = Delta > 0 ? int8_t{1} : int8_t{-1};
  const bool Conforming = (Delta == 1 || Delta == -1) && Dir == E.Direction;
  if (Conforming) {
    if (E.Confidence < Config.MaxConfidence)
      ++E.Confidence;
  } else if (Delta == 1 || Delta == -1) {
    // Unit step against the trained direction: flip and retrain.
    E.Direction = Dir;
    E.Confidence = 1;
  } else {
    // Unrelated jump inside the region: restart detection from here.
    E.Confidence = 0;
  }
  E.LastBlock = Block;

  if (E.Confidence < Config.ConfidenceThreshold)
    return;

  // Confident run: fetch Degree blocks along the direction, starting
  // Distance blocks past the miss (both closed-loop tuned; without a
  // tuner Degree is the configured constant and Distance is 0).
  const uint64_t BlockBytes = Hierarchy.l1().config().BlockBytes;
  const uint32_t Degree = effectiveDegree(Config.Degree);
  const uint32_t Distance = tunedDistance();
  for (uint32_t I = 1 + Distance; I <= Distance + Degree; ++I) {
    const int64_t Target = static_cast<int64_t>(Block) +
                           static_cast<int64_t>(E.Direction) *
                               static_cast<int64_t>(I);
    if (Target < 0)
      break;
    issue(static_cast<memsim::Addr>(Target) * BlockBytes, Hierarchy);
  }
}

void StreamPrefetcher::reset() {
  Prefetcher::reset();
  for (Entry &E : Table)
    E = Entry();
}
