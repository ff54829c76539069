//===- prefetch/PairTablePrefetcher.h - Temporal pair table ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A temporal pair-table prefetcher in the Pangloss / Triangel family
/// (PAPERS.md): miss-to-miss successor prediction like the Markov digram
/// table, but with the properties that made the modern designs practical
/// — strictly bounded set-associative metadata with confidence-guided
/// replacement (Pangloss keeps Markov-chain transition weights in a
/// fixed-size cache; Triangel adds filters so only pairs likely to be
/// accurate and timely occupy metadata), and chained lookahead: when a
/// prefetched block lands, its own best successor is fetched, walking
/// the recorded temporal chain ahead of demand instead of staying one
/// miss ahead.
///
/// Model: a Sets x Ways table of (key block -> successor block,
/// confidence) entries.  On an L1 miss to B after previous miss A: an
/// exact (A -> B) hit gains confidence; otherwise the lowest-confidence
/// way in A's set decays, and only a fully decayed way is reallocated to
/// the new pair — repeat pairs must out-vote noise to claim metadata,
/// the bounded-table discipline of the modern designs.  Prediction
/// issues the most confident successors of B at or above the issue
/// threshold, and the onFill hook chains one step further per completed
/// prefetch.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PAIRTABLEPREFETCHER_H
#define HDS_PREFETCH_PAIRTABLEPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs for the pair-table prefetcher.
struct PairTableConfig {
  /// Sets in the pair table (a power of two indexes by mask; any other
  /// count falls back to a modulo).
  uint32_t Sets = 1024;
  /// Ways per set.
  uint32_t Ways = 4;
  /// Saturation ceiling for the per-pair confidence counter.
  uint32_t MaxConfidence = 15;
  /// Minimum confidence before a successor is prefetched.
  uint32_t IssueThreshold = 2;
  /// Successors issued per triggering miss.
  uint32_t Degree = 2;
  /// Whether a completed prefetch chains one step down its own pair
  /// entry (temporal lookahead).
  bool ChainOnFill = true;
};

/// The bounded pair table.
class PairTablePrefetcher : public Prefetcher {
public:
  PairTablePrefetcher(const PairTableConfig &Cfg, uint32_t AssignedTag)
      : Prefetcher(Kind::PairTable, AssignedTag), Config(Cfg),
        SetsPow2(std::has_single_bit(Cfg.Sets)),
        Table(static_cast<size_t>(Cfg.Sets) * Cfg.Ways),
        Candidates(Cfg.Ways) {}

  /// Observes an L1 miss: trains the (previous miss -> this miss) pair
  /// and issues this miss's recorded successors.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  /// Chains one step: the landed block's own best successor.
  void onFill(memsim::Addr BlockAddr,
              memsim::MemoryHierarchy &Hierarchy) override;

  uint32_t configuredDegree() const override { return Config.Degree; }

  /// Occupied entries (tests: metadata stays within Sets * Ways).
  uint64_t occupiedEntries() const;
  /// Total table capacity in entries.
  uint64_t capacityEntries() const { return Table.size(); }

  void reset() override;

private:
  struct Entry {
    /// Key miss block; ~0 = empty.
    uint64_t KeyBlock = ~uint64_t{0};
    uint64_t NextBlock = 0;
    /// As wide as MaxConfidence, so any ceiling saturates, never wraps.
    uint32_t Confidence = 0;
  };
  static_assert(sizeof(Entry) == 24, "the widened counter fits the padding");

  size_t setBase(uint64_t Block) const {
    // Deterministic multiplicative mix so adjacent blocks spread over
    // sets (a plain modulo aliases strided workloads onto few sets).
    const uint64_t Mixed = (Block * 0x9E3779B97F4A7C15ull) >> 32;
    const uint64_t Set =
        SetsPow2 ? Mixed & (Config.Sets - 1) : Mixed % Config.Sets;
    return static_cast<size_t>(Set) * Config.Ways;
  }

  void train(uint64_t FromBlock, uint64_t ToBlock);
  /// Issues up to \p Budget successors of \p Block, most confident first.
  void predict(uint64_t Block, uint32_t Budget, uint64_t BlockBytes,
               memsim::MemoryHierarchy &Hierarchy);

  PairTableConfig Config;
  bool SetsPow2;
  std::vector<Entry> Table;
  uint64_t LastMissBlock = ~uint64_t{0};
  /// predict() candidate ways, sorted (confidence desc, way asc); one
  /// slot per way, sized once.  Nested fills share the buffer: issue()
  /// can drain a due prefetch whose onFill re-enters predict(), which
  /// refills these slots while the outer call is still reading them.
  /// The outer call keeps its own count and reads whatever the nested
  /// call left in place — the committed references encode that order.
  std::vector<uint32_t> Candidates;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_PAIRTABLEPREFETCHER_H
