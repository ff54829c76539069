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
/// and routes memsim::PrefetchListener feedback (fills, useful/late
/// classifications, pollution evictions) back to the owning engine by
/// tag.
///
/// Composition rules: each enabled flag outside a duel runs
/// concurrently, exactly as the old hardcoded Stride/Markov members did.
/// With Duel set, the enabled flags name the duel's candidates (the
/// paper-era ablations duel stride against markov, say); fewer than two
/// named candidates means the duel runs over the full roster.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PREFETCHERSTACK_H
#define HDS_PREFETCH_PREFETCHERSTACK_H

#include "prefetch/DuelingSelector.h"
#include "prefetch/MarkovPrefetcher.h"
#include "prefetch/PairTablePrefetcher.h"
#include "prefetch/Prefetcher.h"
#include "prefetch/Selection.h"
#include "prefetch/StreamPrefetcher.h"
#include "prefetch/StridePrefetcher.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace hds {
namespace prefetch {

/// Which prefetchers a run enables (one PrefetcherSelection, shared
/// with spec identity and CLI tokens), and their knobs.  Enabling Duel
/// duels over the other enabled kinds (all four when fewer than two are
/// named).
struct StackConfig {
  PrefetcherSelection Enabled;

  StridePrefetcherConfig StrideCfg;
  MarkovPrefetcherConfig MarkovCfg;
  StreamPrefetcherConfig StreamCfg;
  PairTableConfig PairCfg;
  DuelConfig DuelCfg;

  bool any() const { return Enabled.any(); }
};

/// The materialized stack.  Implements the hierarchy's listener
/// interface; core/Runtime installs it when the config is non-empty.
class PrefetcherStack : public memsim::PrefetchListener {
public:
  explicit PrefetcherStack(const StackConfig &Cfg);

  /// Stream tags reserved for the stack: 0..tagCount()-1.  Hot data
  /// stream tags must start here (core/PrefetchEngine).
  uint32_t tagCount() const { return static_cast<uint32_t>(Owners.size()); }

  /// Dispatches one demand access (already charged by the hierarchy) to
  /// every active prefetcher.
  void onAccess(vulcan::SiteId Site, memsim::Addr Addr, uint64_t Latency,
                bool L1Miss, memsim::MemoryHierarchy &Hierarchy) {
    AccessEvent Event{Site, Addr, Latency, L1Miss};
    for (const std::unique_ptr<Prefetcher> &P : TopLevel) {
      P->onAccess(Event, Hierarchy);
      if (L1Miss)
        P->onMiss(Event, Hierarchy);
    }
  }

  // memsim::PrefetchListener feedback, routed by tag.
  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t StreamTag,
                      memsim::MemoryHierarchy &Hierarchy) override;
  void onPrefetchUseful(memsim::Addr Addr, uint32_t StreamTag) override;
  void onPrefetchLate(memsim::Addr Addr, uint32_t StreamTag) override;
  void onPrefetchEvicted(memsim::Addr BlockAddr, uint32_t StreamTag) override;

  /// Attaches the closed-loop tuner to every owned prefetcher (duel
  /// candidates included); null detaches.
  void setTuner(TuningPolicy *Policy);

  /// Per-prefetcher report rows with classification counters joined from
  /// the hierarchy's per-tag buckets.
  std::vector<obs::PrefetcherStats>
  snapshotStats(const memsim::MemoryHierarchy &Hierarchy) const;

  /// First prefetcher of \p K anywhere in the stack (top-level or duel
  /// candidate), or null.  For reports and tests.
  Prefetcher *byKind(Prefetcher::Kind K);
  /// The dueling selector, when configured.
  DuelingSelector *selector() { return Selector; }

  const std::vector<std::unique_ptr<Prefetcher>> &topLevel() const {
    return TopLevel;
  }

  /// Drops all learned state (fresh machine).
  void reset();

private:
  std::unique_ptr<Prefetcher> make(Prefetcher::Kind K, const StackConfig &Cfg,
                                   uint32_t AssignedTag);

  std::vector<std::unique_ptr<Prefetcher>> TopLevel;
  /// Tag -> owning prefetcher (duel candidates included); parallel Duels
  /// entry points at the selector scoring that tag's feedback, or null.
  std::vector<Prefetcher *> Owners;
  std::vector<DuelingSelector *> Duels;
  DuelingSelector *Selector = nullptr;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_PREFETCHERSTACK_H
