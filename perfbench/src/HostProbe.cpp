//===- perfbench/src/HostProbe.cpp - Frozen host-speed probe --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Do not change this file: its work defines the reference speed every timed
// result is scaled to, so any edit changes all end-to-end host-time figures.
//
//===----------------------------------------------------------------------===//

#include "HostProbe.h"

#include "Cells.h"

#include <vector>

using namespace perfbench;

namespace {

constexpr uint64_t ProbeAccesses = 2'000'000;

/// One set-associative LRU level over 32-byte blocks.
class Level {
public:
  Level(uint32_t NumSets, uint32_t NumWays)
      : Sets(NumSets), Ways(NumWays), Tags(size_t{NumSets} * NumWays, ~0ULL),
        Stamps(size_t{NumSets} * NumWays, 0) {}

  bool access(uint64_t Block, uint64_t Now) {
    const size_t Base = static_cast<size_t>(Block % Sets) * Ways;
    size_t Victim = Base;
    for (size_t I = Base; I < Base + Ways; ++I) {
      if (Tags[I] == Block) {
        Stamps[I] = Now;
        return true;
      }
      if (Stamps[I] < Stamps[Victim])
        Victim = I;
    }
    Tags[Victim] = Block;
    Stamps[Victim] = Now;
    return false;
  }

private:
  uint32_t Sets, Ways;
  std::vector<uint64_t> Tags, Stamps;
};

/// 16 KiB 4-way and 512 KiB 8-way levels; three of four references chase a
/// random permutation-like chain over 2.5 MiB, one streams over 1.5 MiB.
uint64_t probeWork() {
  Level L1(128, 4), L2(2048, 8);
  std::vector<uint32_t> Next(1 << 16);
  uint64_t X = 88172645463325252ULL; // xorshift64
  for (uint32_t &N : Next) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    N = static_cast<uint32_t>(X % Next.size());
  }
  uint64_t Cycles = 0, Stream = 0;
  uint32_t Chase = 0;
  for (uint64_t N = 0; N < ProbeAccesses; ++N) {
    uint64_t Addr;
    if ((N & 3) != 0) {
      Chase = Next[Chase];
      Addr = uint64_t{Chase} * 40;
    } else {
      Stream += 32;
      Addr = (uint64_t{1} << 24) + Stream % (uint64_t{3} << 19);
    }
    const uint64_t Block = Addr >> 5;
    Cycles += L1.access(Block, N) ? 1 : L2.access(Block, N) ? 14 : 100;
  }
  return Cycles;
}

} // namespace

double HostProbe::run() {
  const double Start = threadCpuSeconds();
  const uint64_t Result = probeWork();
  const double Seconds = threadCpuSeconds() - Start;
  if (!HaveResult) {
    FirstResult = Result;
    HaveResult = true;
  }
  Consistent = Consistent && Result == FirstResult;
  return Seconds;
}

double HostProbe::nsPerAccess(double ProbeSeconds) {
  return ProbeSeconds * 1e9 / static_cast<double>(ProbeAccesses);
}
