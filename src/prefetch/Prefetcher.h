//===- prefetch/Prefetcher.h - Pluggable prefetcher interface --*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable hardware-prefetcher interface behind the prefetcher zoo.
///
/// The paper compares its DFSM-injected hot-stream prefetching against
/// hardware techniques only in prose (Section 5.1); this subsystem makes
/// the comparison runnable.  Every prefetcher is an object behind one
/// interface — `onAccess` / `onMiss` observe the demand stream, `onFill`
/// observes prefetch completions (delivered via memsim::PrefetchListener)
/// — and issues through
/// `MemoryHierarchy::prefetchT0` under its own reserved stream tag, so
/// the obs classification machinery (useful / late / redundant / dropped /
/// unused-evicted, obs/PrefetchStats.h) attributes every event to the
/// engine that earned it.
///
/// Tags: core/Runtime reserves tags 0..N-1 for the N constructed
/// prefetchers and starts hot-data-stream tags at N, so per-tag buckets
/// stay dense and small (memsim grows its bucket vector to the largest
/// tag seen).
///
/// Determinism: implementations must derive every decision from the
/// observed access sequence and their config — no ambient randomness,
/// clocks, or address-ordered container iteration (docs/engine.md, "The
/// determinism contract").
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PREFETCHER_H
#define HDS_PREFETCH_PREFETCHER_H

#include "memsim/MemoryHierarchy.h"
#include "vulcan/Image.h"

#include <cstdint>
#include <string>

namespace hds {
namespace prefetch {

/// One demand access as the prefetcher stack sees it: the instrumented
/// site (pc), the address, and the latency the hierarchy already charged
/// for it (so trainers can distinguish L1 hits from misses without a
/// second probe).
struct AccessEvent {
  vulcan::SiteId Site = 0;
  memsim::Addr Addr = 0;
  /// Cycles the hierarchy charged for this access.
  uint64_t Latency = 0;
  /// True when the access did not hit L1 (Latency above the L1 hit cost).
  bool L1Miss = false;
};

/// Abstract base of every zoo prefetcher.
///
/// Hooks are observation points, not obligations: a pc-indexed stride
/// table trains on every access (onAccess), correlation tables train on
/// the miss stream (onMiss), and chaining prefetchers extend their runs
/// when a prefetched block lands (onFill).  All issuing funnels through
/// issue(), which applies the per-prefetcher tag.
class Prefetcher {
public:
  /// The zoo roster.  Every switch over it names each enumerator: the
  /// compiler checks that (-Wswitch-enum under HDS_WERROR).  Values
  /// appear in the results JSON (the "kind" gauge of the prefetchers
  /// result block), so new engines are appended;
  /// tests/prefetchers_test.cpp pins the numbering.
  enum Kind : uint8_t {
    Stride = 0,    ///< pc-indexed reference prediction table (Chen & Baer)
    Markov = 1,    ///< miss-digram correlation table (Joseph & Grunwald)
    PairTable = 2, ///< bounded temporal pair table (Pangloss / Triangel)
  };

  Prefetcher(Kind KindIn, uint32_t TagIn) : WhichKind(KindIn), Tag(TagIn) {}
  virtual ~Prefetcher() = default;

  Prefetcher(const Prefetcher &) = delete;
  Prefetcher &operator=(const Prefetcher &) = delete;

  Kind kind() const { return WhichKind; }
  /// The stream tag this prefetcher issues under.
  uint32_t tag() const { return Tag; }

  /// CLI and report token ("stride", "markov", ...) for \p K.
  static const char *kindToken(Kind K);
  /// Parses a CLI token; returns false on unknown input.
  static bool parseKindToken(const std::string &Token, Kind &K);

  /// Observes every demand access (after the hierarchy charged it).
  virtual void onAccess(const AccessEvent &Event,
                        memsim::MemoryHierarchy &Hierarchy) {
    (void)Event;
    (void)Hierarchy;
  }
  /// Observes the L1 miss stream (called in addition to onAccess).
  virtual void onMiss(const AccessEvent &Event,
                      memsim::MemoryHierarchy &Hierarchy) {
    (void)Event;
    (void)Hierarchy;
  }
  /// A prefetch issued under this prefetcher's tag completed its fill of
  /// \p BlockAddr.  May issue follow-up prefetches (chaining).
  virtual void onFill(memsim::Addr BlockAddr,
                      memsim::MemoryHierarchy &Hierarchy) {
    (void)BlockAddr;
    (void)Hierarchy;
  }
  /// Drops all learned state and counters (fresh machine).
  virtual void reset() {
    Trains = 0;
    Issued = 0;
  }

  /// Training updates performed (table writes), for the stats row.
  uint64_t trains() const { return Trains; }
  /// Prefetches this object pushed through issue().
  uint64_t issued() const { return Issued; }

protected:
  /// Issues a hardware prefetch for \p Target under this prefetcher's
  /// tag, spending no instruction issue slot.
  void issue(memsim::Addr Target, memsim::MemoryHierarchy &Hierarchy) {
    Hierarchy.prefetchT0(Target, /*ChargeIssueSlot=*/false, Tag);
    ++Issued;
  }

  /// Bumps the training counter (call once per table update).
  void countTrain() { ++Trains; }

private:
  Kind WhichKind;
  uint32_t Tag;
  uint64_t Trains = 0;
  uint64_t Issued = 0;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_PREFETCHER_H
