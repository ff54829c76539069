//===- prefetch/MarkovPrefetcher.h - Correlation-based prefetcher -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Markov (correlation-based) prefetcher after Joseph & Grunwald,
/// reference [16] of the paper, as a zoo member.
///
/// The paper calls correlation-based prefetching the hardware technique
/// its scheme is "most similar to", and differentiates itself three ways:
/// software (configurable/tunable), more global access pattern analysis,
/// and "capable of using more context for its predictions than digrams of
/// data accesses" (Section 5.1).  This implementation exists so the
/// comparison can be run (bench/ablation_markov): a digram predictor
/// keyed on cache-miss addresses, with a fixed number of successor slots
/// per node and prefetches issued for all of them, prioritized by
/// recency.
///
/// Model: on every L1 demand miss to block B, (a) record B as a successor
/// of the previously missed block, and (b) issue prefetches for B's
/// recorded successors.  As a hardware mechanism it spends no instruction
/// issue slots; its table capacity is bounded like the original paper's
/// (which dedicated megabytes of state — generous, but that is the
/// comparison point).
///
/// Layout: one open-addressed table of fixed-size slots,
/// [block, successor x SuccessorsPerNode], ~0 marking an empty key or
/// successor.  Linear probing from a multiplicative hash, backward-shift
/// deletion (no tombstones), and a capacity fixed from MaxNodes at a load
/// of at most 2/3, so the table never rehashes.  The slots are allocated
/// on the first miss, not at construction, so a cell's set-up stays
/// cheap.  Global FIFO eviction runs over the InsertionOrder ring.  This
/// is why Markov stays its own engine rather than a configuration of the
/// set-associative pair table: set-local replacement cannot reproduce
/// insertion-order eviction over the whole table.
/// src/testing/ReferenceMarkov.h keeps the map-of-vectors model this
/// replaced; tests/prefetchers_test.cpp drives both in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_MARKOVPREFETCHER_H
#define HDS_PREFETCH_MARKOVPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs for the Markov prefetcher.
struct MarkovPrefetcherConfig {
  /// Successor slots per node (the original evaluates 1-4).
  uint32_t SuccessorsPerNode = 2;
  /// Maximum nodes in the correlation table; beyond it, new nodes evict
  /// in insertion order (a coarse model of a bounded hardware table).
  uint32_t MaxNodes = 1 << 16;
};

/// The correlation table.
class MarkovPrefetcher : public Prefetcher {
public:
  MarkovPrefetcher(const MarkovPrefetcherConfig &Cfg, uint32_t AssignedTag);

  /// Observes a demand access that missed L1 (block granularity) and
  /// issues prefetches for the predicted successors.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  size_t nodeCount() const { return Nodes; }

  /// Slots in the table (fixed by MaxNodes; allocated on the first miss).
  size_t slotCount() const { return SlotMask + 1; }
  /// The slot \p Block's probe run starts at (tests build colliding
  /// keys with it).
  size_t homeSlot(uint64_t Block) const {
    return static_cast<size_t>((Block * 0x9E3779B97F4A7C15ull) >> HashShift);
  }

  void reset() override;

private:
  static constexpr uint64_t Empty = ~uint64_t{0};

  uint64_t *slot(size_t Index) { return &Table[Index * SlotWords]; }
  /// The slot holding \p Block, or the empty slot that ends its run.
  size_t find(uint64_t Block) const;
  /// Empties the slot at \p Hole, shifting later run members back.
  void erase(size_t Hole);

  MarkovPrefetcherConfig Config;
  /// Words per slot: the key block, then the successors, most recent
  /// first.
  size_t SlotWords;
  size_t SlotMask;
  unsigned HashShift;
  /// Empty until the first miss.
  std::vector<uint64_t> Table;
  size_t Nodes = 0;
  /// Keys in insertion order: a ring once the table is full, its cursor
  /// at the oldest node.
  std::vector<uint64_t> InsertionOrder;
  size_t EvictCursor = 0;
  uint64_t LastMissBlock = Empty;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_MARKOVPREFETCHER_H
