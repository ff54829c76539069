//===- analysis/PreciseAnalyzer.cpp - Exact hot stream detection ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/PreciseAnalyzer.h"

#include "analysis/StreamFilter.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace hds;
using namespace hds::analysis;

namespace {

/// Rolling-hash window key plus a representative start position so equal
/// hashes can be verified against the actual substring (no silent hash
/// collisions).
struct Candidate {
  std::vector<size_t> Starts; // all occurrence starts, ascending
};

/// Counts the maximum number of pairwise non-overlapping occurrences for a
/// pattern of length \p Length whose starts are \p Starts (sorted).  Greedy
/// earliest-end selection is optimal for interval scheduling of equal-length
/// intervals.
uint64_t countNonOverlapping(const std::vector<size_t> &Starts,
                             uint64_t Length) {
  uint64_t Count = 0;
  size_t NextFree = 0;
  for (size_t Start : Starts) {
    if (Start < NextFree)
      continue;
    ++Count;
    NextFree = Start + Length;
  }
  return Count;
}

} // namespace

PreciseAnalysisResult
hds::analysis::analyzeHotStreamsPrecisely(const std::vector<uint32_t> &Trace,
                                          const AnalysisConfig &Config) {
  PreciseAnalysisResult Result;
  Result.TraceLength = Trace.size();
  const size_t N = Trace.size();
  if (N == 0 || Config.MinLength == 0)
    return Result;

  const uint64_t MaxLen = std::min<uint64_t>(Config.MaxLength, N);

  for (uint64_t Length = Config.MinLength; Length <= MaxLen; ++Length) {
    // Polynomial rolling hash over windows of this length.
    constexpr uint64_t Base = 0x100000001B3ULL;
    uint64_t BasePow = 1; // Base^(Length-1)
    for (uint64_t I = 1; I < Length; ++I)
      BasePow *= Base;

    std::unordered_map<uint64_t, std::vector<Candidate>> Windows;
    uint64_t Hash = 0;
    for (size_t I = 0; I < N; ++I) {
      Hash = Hash * Base + Trace[I] + 1;
      if (I + 1 < Length)
        continue;
      const size_t Start = I + 1 - Length;
      // Bucket by hash; verify content within the bucket.
      auto &Bucket = Windows[Hash];
      bool Placed = false;
      for (Candidate &C : Bucket) {
        const size_t Repr = C.Starts.front();
        if (std::equal(Trace.begin() + Repr, Trace.begin() + Repr + Length,
                       Trace.begin() + Start)) {
          C.Starts.push_back(Start);
          Placed = true;
          break;
        }
      }
      if (!Placed)
        Bucket.push_back(Candidate{{Start}});
      // Slide the window.
      Hash -= BasePow * (Trace[Start] + 1);
    }

    // Emit candidates ordered by first occurrence, not by hash-bucket
    // order: Result.Streams must be identical across standard libraries
    // for replay and the fast-vs-precise differential oracle to hold.
    std::vector<const Candidate *> Ordered;
    // hds-lint: ordered-ok(collected into Ordered and sorted by first occurrence below)
    for (const auto &Entry : Windows)
      for (const Candidate &C : Entry.second)
        Ordered.push_back(&C);
    std::sort(Ordered.begin(), Ordered.end(),
              [](const Candidate *A, const Candidate *B) {
                // First starts are distinct: every window start belongs to
                // exactly one candidate's occurrence list.
                return A->Starts.front() < B->Starts.front();
              });
    for (const Candidate *C : Ordered) {
      const uint64_t Frequency = countNonOverlapping(C->Starts, Length);
      const uint64_t Heat = Frequency * Length;
      if (Heat < Config.HeatThreshold || Frequency < 2)
        continue;
      HotDataStream Stream;
      const size_t Repr = C->Starts.front();
      Stream.Symbols.assign(Trace.begin() + Repr,
                            Trace.begin() + Repr + Length);
      Stream.Frequency = Frequency;
      Stream.Heat = Heat;
      Result.Streams.push_back(std::move(Stream));
    }
  }

  // Keep only maximal streams: drop any stream contained in a longer
  // reported stream with at least the same frequency (such substreams add
  // no prefetching opportunity the longer stream does not already cover).
  keepMaximalStreams(Result.Streams);
  return Result;
}
