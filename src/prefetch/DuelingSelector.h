//===- prefetch/DuelingSelector.h - Per-region dueling selector -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An online dueling selector over zoo candidates, in the spirit of
/// set-dueling cache policy selection: instead of committing to one
/// hardware prefetcher, sample each candidate for a fixed number of
/// profiling epochs, score what its prefetches achieved per address
/// region, and converge on a per-region winner.
///
/// Sampling is round-robin over epochs measured in demand accesses (a
/// simulated quantity, so decisions are a pure function of the access
/// sequence and the config — never of wall clock or host scheduling;
/// docs/engine.md, "The determinism contract").  Every candidate trains
/// on every access the whole time so its tables are warm when its turn
/// comes; only the
/// sampled candidate's issue() gate is open.  Classification feedback
/// (useful / late, from the memsim listener hooks) is attributed to the
/// issuing candidate by stream tag and to a region bucket by demand
/// address.
///
/// Scoring is integer arithmetic over the obs::StreamPrefetchStats
/// classes (rule D5 forbids float accumulation in src/):
///
///   score(region, candidate) = 4*useful + 1*late - 1*issued
///
/// which linearizes accuracy and timeliness: a useful prefetch nets +3
/// (it paid for its issue and hid a full miss), a late one nets 0 (it
/// hid only a tail), and an issue that never helped nets -1.  After
/// SampleRounds full rotations the selector freezes: each region bucket
/// with any observed issues keeps its argmax candidate (ties to the
/// lowest index), and unresolved buckets fall back to the global argmax.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_DUELINGSELECTOR_H
#define HDS_PREFETCH_DUELINGSELECTOR_H

#include "prefetch/Prefetcher.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace hds {
namespace obs {
struct PrefetcherStats;
}
namespace prefetch {

/// Knobs for the dueling selector.
struct DuelConfig {
  /// log2 of the dueling region size in bytes (4 KiB default).
  uint32_t RegionShift = 12;
  /// Region hash buckets scores are kept per (regions alias onto
  /// buckets deterministically; 64 buckets cover the zoo workloads).
  uint32_t RegionBuckets = 64;
  /// Demand accesses per sampling epoch.
  uint64_t EpochAccesses = 4096;
  /// Full round-robin rotations over the candidates before the selector
  /// converges — the bounded number of profiling epochs is
  /// SampleRounds * candidateCount().
  uint32_t SampleRounds = 2;
};

/// The selector.  Owns its candidate prefetchers; each keeps its own
/// reserved stream tag so obs classification stays attributed.
class DuelingSelector : public Prefetcher {
public:
  DuelingSelector(const DuelConfig &Cfg, uint32_t AssignedTag,
                  std::vector<std::unique_ptr<Prefetcher>> CandidatesIn);

  void onAccess(const AccessEvent &Event,
                memsim::MemoryHierarchy &Hierarchy) override;
  void reset() override;

  /// Classification feedback routed by the prefetcher stack: a prefetch
  /// issued under candidate tag \p Tag turned useful / arrived late for
  /// the demand access at \p Addr.
  void noteUseful(uint32_t AssignedTag, memsim::Addr Addr);
  void noteLate(uint32_t AssignedTag, memsim::Addr Addr);

  const std::vector<std::unique_ptr<Prefetcher>> &candidates() const {
    return Candidates;
  }
  /// Candidate holding the tag, or null (stack routing).
  Prefetcher *candidateByTag(uint32_t CandidateTag);

  size_t candidateCount() const { return Candidates.size(); }
  /// Epochs after which decisions are frozen.
  uint64_t convergenceEpochs() const {
    return static_cast<uint64_t>(Config.SampleRounds) * Candidates.size();
  }
  bool converged() const { return Converged; }
  /// Converged winner index for the bucket covering \p Addr (tests).
  size_t winnerFor(memsim::Addr Addr) const;
  /// Converged global fallback winner index (tests).
  size_t globalWinner() const { return GlobalWinner; }

  /// One row for the selector itself plus one per candidate, in
  /// candidate order (classification counters joined by the stack).
  void appendStats(std::vector<obs::PrefetcherStats> &Rows) const;

private:
  size_t bucketOf(memsim::Addr Addr) const {
    return static_cast<size_t>((Addr >> Config.RegionShift) %
                               Config.RegionBuckets);
  }
  size_t cell(size_t Bucket, size_t Candidate) const {
    return Bucket * Candidates.size() + Candidate;
  }
  int64_t score(size_t Bucket, size_t Candidate) const;
  void converge();

  DuelConfig Config;
  std::vector<std::unique_ptr<Prefetcher>> Candidates;

  uint64_t Epoch = 0;
  uint64_t AccessesInEpoch = 0;
  size_t ActiveIdx = 0;
  bool Converged = false;

  /// Per (bucket, candidate) observation counters, indexed by cell().
  std::vector<uint64_t> UsefulCount;
  std::vector<uint64_t> LateCount;
  std::vector<uint64_t> IssuedCount;
  /// Epochs each candidate spent as the sampled issuer.
  std::vector<uint64_t> EpochsSampled;
  /// Converged per-bucket winner (candidate index).
  std::vector<uint32_t> Winner;
  /// Buckets resolved from their own scores (others fell back).
  uint64_t ResolvedBuckets = 0;
  size_t GlobalWinner = 0;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_DUELINGSELECTOR_H
