//===- prefetch/StreamPrefetcher.h - Confidence stream prefetcher -*- C++ -*-=//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A confidence-counter stream prefetcher: the region-based sequential
/// detector every commercial core since the Pentium 4 has shipped in some
/// form, and the baseline hardware competitor the temporal-prefetching
/// literature (Pangloss, Triangel — PAPERS.md) measures against.
///
/// Model: a direct-mapped table of detector entries indexed by 4 KiB
/// region.  Each entry tracks the last miss block inside its region, the
/// run direction (+1 / -1), and a saturating confidence counter.  A miss
/// one block away from the last one in the same direction trains the
/// counter; a direction flip retrains at confidence 1; an unrelated jump
/// inside the region resets.  Once confidence reaches the threshold the
/// detector issues `Degree` blocks ahead along the direction on every
/// further conforming miss.  Trains on the L1 miss stream only — unlike
/// the pc-indexed stride table it is address-indexed and blind to which
/// instruction misses, which is exactly the contrast the zoo wants.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_STREAMPREFETCHER_H
#define HDS_PREFETCH_STREAMPREFETCHER_H

#include "prefetch/Prefetcher.h"

#include <cstdint>
#include <vector>

namespace hds {
namespace prefetch {

/// Knobs for the stream prefetcher.
struct StreamPrefetcherConfig {
  /// Detector entries (direct mapped by region number).
  uint32_t TableEntries = 64;
  /// log2 of the detection region size in bytes (4 KiB default).
  uint32_t RegionShift = 12;
  /// Conforming misses before the detector starts issuing.
  uint32_t ConfidenceThreshold = 2;
  /// Saturation ceiling for the confidence counter.
  uint32_t MaxConfidence = 7;
  /// Blocks prefetched ahead per conforming miss once confident.
  uint32_t Degree = 4;
};

/// The stream detector table.
class StreamPrefetcher : public Prefetcher {
public:
  StreamPrefetcher(const StreamPrefetcherConfig &Cfg, uint32_t AssignedTag)
      : Prefetcher(Kind::Stream, AssignedTag), Config(Cfg), Table(Cfg.TableEntries) {}

  /// Observes an L1 miss and extends or retrains the region's run.
  void onMiss(const AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  uint32_t configuredDegree() const override { return Config.Degree; }

  void reset() override;

private:
  struct Entry {
    /// Region number owning the entry; ~0 = empty.
    uint64_t Region = ~uint64_t{0};
    uint64_t LastBlock = 0;
    /// +1 ascending, -1 descending.
    int8_t Direction = 1;
    /// As wide as MaxConfidence, so any ceiling saturates, never wraps.
    uint32_t Confidence = 0;
  };
  static_assert(sizeof(Entry) == 24, "the widened counter fits the padding");

  StreamPrefetcherConfig Config;
  std::vector<Entry> Table;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_STREAMPREFETCHER_H
