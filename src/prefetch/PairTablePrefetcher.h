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
/// Layout: an entry is 16 bytes of 32-bit words (key, successor,
/// confidence, padding) — block numbers fit 32 bits because the simulated
/// address space does (DESIGN.md).  The table starts on a 64-byte
/// boundary inside its vector, so a set of the default four ways is
/// exactly one host cache line.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_PAIRTABLEPREFETCHER_H
#define HDS_PREFETCH_PAIRTABLEPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
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
        Storage(size_t{Cfg.Sets} * Cfg.Ways + LineEntries - 1),
        Table(lineStart(Storage), size_t{Cfg.Sets} * Cfg.Ways),
        Candidates(Cfg.Ways) {}
  /// Table points into Storage, so a copy would share its entries.
  PairTablePrefetcher(const PairTablePrefetcher &) = delete;
  PairTablePrefetcher &operator=(const PairTablePrefetcher &) = delete;

  /// Observes an L1 miss: trains the (previous miss -> this miss) pair
  /// and issues this miss's recorded successors.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  /// Chains one step: the landed block's own best successor.
  void onFill(memsim::Addr BlockAddr,
              memsim::MemoryHierarchy &Hierarchy) override;

  /// Occupied entries (tests: metadata stays within Sets * Ways).
  uint64_t occupiedEntries() const;
  /// Total table capacity in entries.
  uint64_t capacityEntries() const { return Table.size(); }
  /// Bytes one set occupies (a host line at the default four ways).
  size_t setBytes() const { return Config.Ways * sizeof(Entry); }
  /// Where the first set starts (tests: sets sit on line boundaries).
  const void *tableData() const { return Table.data(); }

  void reset() override;

private:
  /// No block reaches it: an empty entry's key, and no previous miss.
  static constexpr uint32_t NoBlock = ~uint32_t{0};

  struct alignas(16) Entry {
    uint32_t KeyBlock = NoBlock;
    uint32_t NextBlock = 0;
    /// As wide as MaxConfidence, so any ceiling saturates, never wraps.
    uint32_t Confidence = 0;
  };
  static_assert(sizeof(Entry) == 16, "four ways fill one 64-byte line");
  static constexpr size_t LineEntries = 64 / sizeof(Entry);

  /// The first entry of \p Storage that starts a 64-byte host line.
  static Entry *lineStart(std::vector<Entry> &Storage) {
    const auto Addr = reinterpret_cast<uintptr_t>(Storage.data());
    return Storage.data() + (64 - Addr % 64) % 64 / sizeof(Entry);
  }

  size_t setBase(uint32_t Block) const {
    // Deterministic multiplicative mix so adjacent blocks spread over
    // sets (a plain modulo aliases strided workloads onto few sets).
    const uint64_t Mixed = (Block * 0x9E3779B97F4A7C15ull) >> 32;
    const uint64_t Set =
        SetsPow2 ? Mixed & (Config.Sets - 1) : Mixed % Config.Sets;
    return static_cast<size_t>(Set) * Config.Ways;
  }

  /// The 32-bit number of the block holding \p Addr.
  static uint32_t blockOf(memsim::Addr Addr,
                          const memsim::MemoryHierarchy &Hierarchy);
  void train(uint32_t FromBlock, uint32_t ToBlock);
  /// Issues up to \p Budget successors of \p Block, most confident first.
  void predict(uint32_t Block, uint32_t Budget, uint64_t BlockBytes,
               memsim::MemoryHierarchy &Hierarchy);

  PairTableConfig Config;
  bool SetsPow2;
  /// Table's entries plus LineEntries - 1, so a line-aligned run fits.
  std::vector<Entry> Storage;
  /// Sets x Ways entries, set by set, from the first line of Storage.
  std::span<Entry> Table;
  uint32_t LastMissBlock = NoBlock;
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
