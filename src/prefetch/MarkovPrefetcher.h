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
/// Layout: a node pool and a 32-bit index, both in one page mapping
/// (support/PageMapping.h) created on the first miss, so a cell's set-up
/// stays cheap, and released on reset().  A node is [block, successor x
/// SuccessorsPerNode] in 32-bit words, ~0u marking an empty successor:
/// the simulated address space is 32-bit (DESIGN.md), so every block
/// number fits below that marker.  The pool holds max(MaxNodes, 1)
/// nodes, addressed by node id.  The index is an open-addressed array of
/// node ids (~0u = empty) sized from MaxNodes at a load of at most 2/3
/// (1/2 at the defaults), so it never rehashes: linear probing from a
/// multiplicative hash of the block, backward-shift deletion (no
/// tombstones).
///
/// FIFO rule: ids are handed out in insertion order and reused
/// round-robin, so the id handed out next always belongs to the oldest
/// node, which a full pool evicts.  This global insertion-order eviction
/// is why Markov stays its own engine rather than a configuration of the
/// set-associative pair table, whose replacement is set-local.
///
/// src/testing/ReferenceMarkov.h keeps the map-of-vectors model this
/// replaced; tests/prefetchers_test.cpp drives both in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_MARKOVPREFETCHER_H
#define HDS_PREFETCH_MARKOVPREFETCHER_H

#include "prefetch/Prefetcher.h"
#include "support/PageMapping.h"

#include <cstddef>
#include <cstdint>

namespace hds {
namespace prefetch {

/// Knobs for the Markov prefetcher.
struct MarkovPrefetcherConfig {
  /// Successor slots per node (the original evaluates 1-4).
  uint32_t SuccessorsPerNode = 2;
  /// Maximum nodes in the correlation table; beyond it, new nodes evict
  /// in insertion order (a coarse model of a bounded hardware table).
  /// 0 means one node: each new node evicts the previous one.
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

  /// Slots in the index (fixed by MaxNodes).
  size_t slotCount() const { return SlotMask + 1; }
  /// The index slot \p Block's probe run starts at (tests build
  /// colliding keys with it).
  size_t homeSlot(uint32_t Block) const {
    return static_cast<size_t>((Block * 0x9E3779B97F4A7C15ull) >> HashShift);
  }
  /// Bytes of the pool plus the index (mapped on the first miss).
  size_t storeBytes() const {
    return (size_t{NodeBound} * NodeWords + slotCount()) * sizeof(uint32_t);
  }

  void reset() override;

private:
  /// An empty successor, and no previous miss; no block reaches it.
  static constexpr uint32_t Empty = ~uint32_t{0};
  static constexpr uint32_t NoNode = ~uint32_t{0};

  uint32_t *node(uint32_t Id) const { return Pool + size_t{Id} * NodeWords; }
  /// The index slot holding \p Block's node, or the empty slot that ends
  /// its run.
  size_t find(uint32_t Block) const;
  /// Empties the index slot at \p Hole, shifting later run members back.
  void erase(size_t Hole);

  MarkovPrefetcherConfig Config;
  /// Words per node: the key block, then the successors, most recent
  /// first.
  size_t NodeWords;
  /// Nodes the pool holds: max(MaxNodes, 1).
  uint32_t NodeBound;
  size_t SlotMask;
  unsigned HashShift;
  /// The pool, then the index; unmapped until the first miss.
  PageMapping Store;
  uint32_t *Pool = nullptr;
  uint32_t *Index = nullptr;
  size_t Nodes = 0;
  /// The id the next new node takes: insertion order, modulo NodeBound.
  uint32_t NextId = 0;
  uint32_t LastMissBlock = Empty;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_MARKOVPREFETCHER_H
