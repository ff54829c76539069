//===- prefetch/PrefetcherStack.h - Configured prefetcher set --*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's view of the zoo: a StackConfig says which prefetchers a
/// run enables, and the PrefetcherStack materializes them with reserved
/// stream tags 0..tagCount()-1, dispatches the demand stream to them,
/// and routes completed prefetch fills (memsim::PrefetchListener) back to
/// the owning engine by tag.
///
/// Composition: every enabled engine runs concurrently, in Kind order,
/// each under its own tag.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PREFETCHERSTACK_H
#define HDS_PREFETCH_PREFETCHERSTACK_H

#include "prefetch/MarkovPrefetcher.h"
#include "prefetch/PairTablePrefetcher.h"
#include "prefetch/Prefetcher.h"
#include "prefetch/Selection.h"
#include "prefetch/StridePrefetcher.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace hds {
namespace prefetch {

/// Which prefetchers a run enables (one PrefetcherSelection, shared
/// with spec identity and CLI tokens), and their knobs.
struct StackConfig {
  PrefetcherSelection Enabled;

  StridePrefetcherConfig StrideCfg;
  MarkovPrefetcherConfig MarkovCfg;
  PairTableConfig PairCfg;

  bool any() const { return Enabled.any(); }
};

/// The materialized stack.  Implements the hierarchy's listener
/// interface; core/Runtime installs it when the config is non-empty.
class PrefetcherStack : public memsim::PrefetchListener {
public:
  explicit PrefetcherStack(const StackConfig &Cfg);

  /// Stream tags reserved for the stack: 0..tagCount()-1.  Hot data
  /// stream tags must start here (core/PrefetchEngine).
  uint32_t tagCount() const { return static_cast<uint32_t>(Engines.size()); }

  /// Dispatches one demand access (already charged by the hierarchy) to
  /// every prefetcher.
  void onAccess(vulcan::SiteId Site, memsim::Addr Addr, uint64_t Latency,
                bool L1Miss, memsim::MemoryHierarchy &Hierarchy) {
    AccessEvent Event{Site, Addr, Latency, L1Miss};
    for (const std::unique_ptr<Prefetcher> &P : Engines) {
      P->onAccess(Event, Hierarchy);
      if (L1Miss)
        P->onMiss(Event, Hierarchy);
    }
  }

  /// memsim::PrefetchListener: a fill under tag \p StreamTag completed;
  /// routed to the engine owning the tag.
  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t StreamTag,
                      memsim::MemoryHierarchy &Hierarchy) override;

  /// Per-prefetcher report rows with classification counters joined from
  /// the hierarchy's per-tag buckets.
  std::vector<obs::PrefetcherStats>
  snapshotStats(const memsim::MemoryHierarchy &Hierarchy) const;

  /// The prefetcher of kind \p K, or null.  For reports and tests.
  Prefetcher *byKind(Prefetcher::Kind K);

  /// Drops all learned state (fresh machine).
  void reset();

private:
  /// The enabled engines in Kind order; an engine's tag is its index.
  std::vector<std::unique_ptr<Prefetcher>> Engines;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_PREFETCHERSTACK_H
