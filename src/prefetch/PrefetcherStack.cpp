//===- prefetch/PrefetcherStack.cpp - Configured prefetcher set ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/PrefetcherStack.h"

#include "obs/PrefetchStats.h"

using namespace hds;
using namespace hds::prefetch;

namespace {

std::unique_ptr<Prefetcher> make(Prefetcher::Kind K, const StackConfig &Cfg,
                                 uint32_t AssignedTag) {
  switch (K) {
  case Prefetcher::Stride:
    return std::make_unique<StridePrefetcher>(Cfg.StrideCfg, AssignedTag);
  case Prefetcher::Markov:
    return std::make_unique<MarkovPrefetcher>(Cfg.MarkovCfg, AssignedTag);
  case Prefetcher::PairTable:
    return std::make_unique<PairTablePrefetcher>(Cfg.PairCfg, AssignedTag);
  }
  return nullptr;
}

} // namespace

PrefetcherStack::PrefetcherStack(const StackConfig &Cfg) {
  for (unsigned I = 0; I < PrefetcherSelection::NumKinds; ++I) {
    const auto K = static_cast<Prefetcher::Kind>(I);
    if (Cfg.Enabled.has(K))
      Engines.push_back(make(K, Cfg, tagCount()));
  }
}

void PrefetcherStack::onPrefetchFill(memsim::Addr BlockAddr,
                                     uint32_t StreamTag,
                                     memsim::MemoryHierarchy &Hierarchy) {
  if (StreamTag >= Engines.size())
    return; // hot-stream or untagged prefetch, not ours
  Engines[StreamTag]->onFill(BlockAddr, Hierarchy);
}

std::vector<obs::PrefetcherStats>
PrefetcherStack::snapshotStats(const memsim::MemoryHierarchy &Hierarchy) const {
  const std::vector<obs::PrefetchClassCounts> &Buckets =
      Hierarchy.streamClasses();
  std::vector<obs::PrefetcherStats> Rows;
  for (const std::unique_ptr<Prefetcher> &P : Engines) {
    obs::PrefetcherStats &Row = Rows.emplace_back();
    Row.Kind = P->kind();
    Row.Tag = P->tag();
    Row.Trains = P->trains();
    Row.Issued = P->issued();
    if (P->tag() >= Buckets.size())
      continue; // tag never produced a classification event
    const obs::PrefetchClassCounts &B = Buckets[P->tag()];
    Row.Issued = B.Issued;
    Row.Useful = B.Useful;
    Row.Late = B.Late;
    Row.Redundant = B.Redundant;
    Row.DroppedQueueFull = B.DroppedQueueFull;
    Row.UnusedEvicted = B.UnusedEvicted;
  }
  return Rows;
}

Prefetcher *PrefetcherStack::byKind(Prefetcher::Kind K) {
  for (const std::unique_ptr<Prefetcher> &P : Engines)
    if (P->kind() == K)
      return P.get();
  return nullptr;
}

void PrefetcherStack::reset() {
  for (const std::unique_ptr<Prefetcher> &P : Engines)
    P->reset();
}
