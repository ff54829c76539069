//===- tests/memsim_test.cpp - Memory hierarchy simulator tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "memsim/Cache.h"
#include "memsim/MemoryHierarchy.h"
#include "obs/CycleAccount.h"

#include "support/Rng.h"

#include <gtest/gtest.h>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

using namespace hds::memsim;
namespace obs = hds::obs;

namespace {

CacheConfig tinyCache() {
  // 4 sets x 2 ways x 32B blocks = 256 bytes.
  return CacheConfig{256, 2, 32};
}

TEST(CacheTest, ConfigGeometry) {
  EXPECT_EQ(tinyCache().numSets(), 4u);
  EXPECT_EQ(CacheConfig::pentiumIIIL1().numSets(), 128u);
  EXPECT_EQ(CacheConfig::pentiumIIIL2().numSets(), 1024u);
}

TEST(CacheTest, MissThenHit) {
  Cache C(tinyCache());
  EXPECT_FALSE(C.access(0x1000));
  C.fill(0x1000, /*IsPrefetch=*/false);
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().Misses, 1u);
}

TEST(CacheTest, SameBlockDifferentOffsetsHit) {
  Cache C(tinyCache());
  C.fill(0x1000, false);
  EXPECT_TRUE(C.access(0x1001));
  EXPECT_TRUE(C.access(0x101F));
  EXPECT_FALSE(C.contains(0x1020)); // next block
}

TEST(CacheTest, LruEvictionWithinSet) {
  Cache C(tinyCache());
  // Three blocks mapping to the same set (set stride = 4 blocks = 128B).
  const Addr A = 0x0, B = 0x80, D = 0x100;
  C.fill(A, false);
  C.fill(B, false);
  C.access(A); // A most recent; B is LRU
  C.fill(D, false);
  EXPECT_TRUE(C.contains(A));
  EXPECT_FALSE(C.contains(B));
  EXPECT_TRUE(C.contains(D));
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(CacheTest, FillPrefersInvalidWays) {
  Cache C(tinyCache());
  C.fill(0x0, false);
  C.fill(0x80, false); // same set, second way
  EXPECT_EQ(C.stats().Evictions, 0u);
  EXPECT_EQ(C.validLineCount(), 2u);
}

TEST(CacheTest, RefillResidentBlockDoesNotEvict) {
  Cache C(tinyCache());
  C.fill(0x0, false);
  C.fill(0x0, false);
  EXPECT_EQ(C.validLineCount(), 1u);
  EXPECT_EQ(C.stats().Evictions, 0u);
}

TEST(CacheTest, PrefetchAccounting) {
  Cache C(tinyCache());
  C.fill(0x0, /*IsPrefetch=*/true);
  EXPECT_EQ(C.stats().PrefetchFills, 1u);
  // First demand touch counts the prefetch as useful, once.
  EXPECT_TRUE(C.access(0x0));
  EXPECT_TRUE(C.access(0x0));
  EXPECT_EQ(C.stats().UsefulPrefetches, 1u);
}

TEST(CacheTest, WastedPrefetchOnEviction) {
  Cache C(tinyCache());
  C.fill(0x0, /*IsPrefetch=*/true);
  // Evict it with two demand fills in the same set, untouched.
  C.fill(0x80, false);
  C.fill(0x100, false);
  EXPECT_EQ(C.stats().WastedPrefetches, 1u);
  EXPECT_EQ(C.stats().UsefulPrefetches, 0u);
}

TEST(CacheTest, DemandRefillDoesNotRearmPrefetchBit) {
  Cache C(tinyCache());
  C.fill(0x0, /*IsPrefetch=*/true);
  C.access(0x0); // useful, bit cleared
  C.fill(0x0, /*IsPrefetch=*/true);
  // Resident-line refill refreshes recency but must not re-arm the bit.
  C.fill(0x80, false);
  C.fill(0x100, false); // evicts 0x80's set... same set as 0x0
  EXPECT_EQ(C.stats().WastedPrefetches, 0u);
}

TEST(CacheTest, ResetDropsLines) {
  Cache C(tinyCache());
  C.fill(0x0, false);
  C.reset();
  EXPECT_EQ(C.validLineCount(), 0u);
  EXPECT_FALSE(C.contains(0x0));
}

//===----------------------------------------------------------------------===//
// MemoryHierarchy
//===----------------------------------------------------------------------===//

LatencyConfig testLatency() {
  LatencyConfig L;
  L.L1HitCycles = 1;
  L.L2HitCycles = 14;
  L.MemoryCycles = 100;
  L.PrefetchIssueCycles = 1;
  L.MaxInFlightPrefetches = 4;
  return L;
}

TEST(HierarchyTest, ColdMissCostsMemoryLatency) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  EXPECT_EQ(M.access(0x5000), 100u);
  EXPECT_EQ(M.now(), 100u);
  // Both levels filled.
  EXPECT_EQ(M.access(0x5000), 1u);
}

TEST(HierarchyTest, L2HitAfterL1Eviction) {
  MemoryHierarchy M(CacheConfig{256, 2, 32}, CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.access(0x0);
  // Evict 0x0 from the tiny L1 (same set: stride 128).
  M.access(0x80);
  M.access(0x100);
  EXPECT_EQ(M.access(0x0), 14u); // L2 hit
}

TEST(HierarchyTest, TickAdvancesClock) {
  MemoryHierarchy M;
  M.tick(50);
  EXPECT_EQ(M.now(), 50u);
}

TEST(HierarchyTest, PrefetchHidesMemoryLatency) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x9000);
  EXPECT_EQ(M.inFlightCount(), 1u);
  M.tick(200); // plenty of time: the fill completes
  EXPECT_EQ(M.inFlightCount(), 0u);
  EXPECT_EQ(M.access(0x9000), 1u); // full hit, latency hidden
  EXPECT_EQ(M.l1().stats().UsefulPrefetches, 1u);
}

TEST(HierarchyTest, EarlyDemandPaysPartialLatency) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x9000); // issue slot: now = 1; ready at 101
  M.tick(40);           // now = 41
  const uint64_t Latency = M.access(0x9000);
  // 60 cycles remained + 1 cycle L1 hit.
  EXPECT_EQ(Latency, 61u);
  EXPECT_EQ(M.stats().PartialHits, 1u);
  EXPECT_EQ(M.stats().PartialHitStallCycles, 60u);
}

TEST(HierarchyTest, RedundantPrefetchIsCounted) {
  MemoryHierarchy M;
  M.access(0x100); // now resident in L1
  M.prefetchT0(0x100);
  EXPECT_EQ(M.stats().PrefetchesRedundant, 1u);
  EXPECT_EQ(M.inFlightCount(), 0u);
}

TEST(HierarchyTest, InFlightDuplicateIsRedundant) {
  MemoryHierarchy M;
  M.prefetchT0(0x2000);
  M.prefetchT0(0x2000);
  EXPECT_EQ(M.stats().PrefetchesRedundant, 1u);
  EXPECT_EQ(M.inFlightCount(), 1u);
}

TEST(HierarchyTest, QueueCapacityDropsExtraPrefetches) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency()); // capacity 4
  for (Addr A = 0; A < 6; ++A)
    M.prefetchT0(0x10000 + A * 64);
  EXPECT_EQ(M.inFlightCount(), 4u);
  EXPECT_EQ(M.stats().PrefetchesDroppedQueueFull, 2u);
}

TEST(HierarchyTest, L2ResidentPrefetchFillsOnlyL1) {
  MemoryHierarchy M(CacheConfig{256, 2, 32}, CacheConfig::pentiumIIIL2(),
                    testLatency());
  // Bring the block to L2 (and L1), then push it out of the tiny L1.
  M.access(0x0);
  M.access(0x80);
  M.access(0x100);
  ASSERT_FALSE(M.l1().contains(0x0));
  ASSERT_TRUE(M.l2().contains(0x0));
  M.prefetchT0(0x0);
  M.tick(20); // L2 latency is 14
  EXPECT_TRUE(M.l1().contains(0x0));
  EXPECT_EQ(M.access(0x0), 1u);
}

TEST(HierarchyTest, StallCyclesAccumulate) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.access(0x0);    // memory: stall 99
  M.access(0x0);    // L1 hit: no stall
  EXPECT_EQ(M.stats().StallCycles, 99u);
}

TEST(HierarchyTest, ResetClearsEverything) {
  MemoryHierarchy M;
  M.access(0x0);
  M.prefetchT0(0x4000);
  M.reset();
  EXPECT_EQ(M.now(), 0u);
  EXPECT_EQ(M.inFlightCount(), 0u);
  EXPECT_FALSE(M.l1().contains(0x0));
  EXPECT_FALSE(M.l2().contains(0x0));
}

//===----------------------------------------------------------------------===//
// Prefetch-effectiveness classification, per stream tag
//===----------------------------------------------------------------------===//

TEST(PrefetchClassTest, UsefulPrefetchIsAttributedToItsStream) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x9000, /*ChargeIssueSlot=*/true, /*StreamTag=*/0);
  M.tick(200); // fill completes
  EXPECT_EQ(M.access(0x9000), 1u);
  ASSERT_GE(M.streamClasses().size(), 1u);
  EXPECT_EQ(M.streamClasses()[0].Issued, 1u);
  EXPECT_EQ(M.streamClasses()[0].Useful, 1u);
  EXPECT_EQ(M.streamClasses()[0].Late, 0u);
  EXPECT_EQ(M.stats().PrefetchesUseful, 1u);
}

TEST(PrefetchClassTest, LatePrefetchIsAttributedToItsStream) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x9000, /*ChargeIssueSlot=*/true, /*StreamTag=*/1);
  M.tick(40); // fill still in flight (ready at 101)
  M.access(0x9000);
  ASSERT_GE(M.streamClasses().size(), 2u);
  EXPECT_EQ(M.streamClasses()[1].Issued, 1u);
  EXPECT_EQ(M.streamClasses()[1].Late, 1u);
  EXPECT_EQ(M.streamClasses()[1].Useful, 0u);
  EXPECT_EQ(M.stats().PartialHits, 1u);
}

TEST(PrefetchClassTest, RedundantIssueIsAttributedToItsStream) {
  MemoryHierarchy M;
  M.access(0x100); // resident
  M.prefetchT0(0x100, /*ChargeIssueSlot=*/true, /*StreamTag=*/0);
  ASSERT_GE(M.streamClasses().size(), 1u);
  // Issued counts requests (like HierarchyStats::PrefetchesIssued);
  // redundant marks the rejection.
  EXPECT_EQ(M.streamClasses()[0].Issued, 1u);
  EXPECT_EQ(M.streamClasses()[0].Redundant, 1u);
}

TEST(PrefetchClassTest, QueueFullDropIsAttributedToItsStream) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency()); // capacity 4
  for (Addr A = 0; A < 5; ++A)
    M.prefetchT0(0x10000 + A * 64, /*ChargeIssueSlot=*/true,
                 /*StreamTag=*/0);
  ASSERT_GE(M.streamClasses().size(), 1u);
  EXPECT_EQ(M.streamClasses()[0].Issued, 5u);
  EXPECT_EQ(M.streamClasses()[0].DroppedQueueFull, 1u);
}

TEST(PrefetchClassTest, UnusedEvictedPrefetchIsAttributedToItsStream) {
  // Tiny 2-way L1 (4 sets, stride 128): prefetch a block, never touch
  // it, then push two conflicting demand blocks through its set.
  MemoryHierarchy M(CacheConfig{256, 2, 32}, CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x0, /*ChargeIssueSlot=*/true, /*StreamTag=*/3);
  M.tick(200); // fill completes into L1
  ASSERT_TRUE(M.l1().contains(0x0));
  M.access(0x80);
  M.access(0x100); // evicts the untouched prefetched line
  ASSERT_FALSE(M.l1().contains(0x0));
  ASSERT_GE(M.streamClasses().size(), 4u);
  EXPECT_EQ(M.streamClasses()[3].UnusedEvicted, 1u);
  EXPECT_EQ(M.stats().PrefetchesUnusedEvicted, 1u);
}

TEST(PrefetchClassTest, UntaggedPrefetchesLandInTheUntaggedBucket) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.prefetchT0(0x9000); // no tag: hardware engines, tests
  M.tick(200);
  M.access(0x9000);
  EXPECT_EQ(M.untaggedClasses().Issued, 1u);
  EXPECT_EQ(M.untaggedClasses().Useful, 1u);
  EXPECT_TRUE(M.streamClasses().empty());
}

TEST(PrefetchClassTest, CycleAccountPartitionsTheHierarchyClock) {
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(), CacheConfig::pentiumIIIL2(),
                    testLatency());
  M.access(0x0);                 // miss: 1 compute + 99 demand stall
  M.tick(30);                    // pure compute
  M.tick(5, obs::CyclePhase::DynamicCheck);
  M.prefetchT0(0x9000);          // 1 prefetch-issue cycle
  M.prefetchT0(0x9000 + 64, /*ChargeIssueSlot=*/false); // hardware: free
  const obs::CycleBreakdown B = M.account().snapshot();
  EXPECT_EQ(B.total(), M.now());
  EXPECT_EQ(B.DemandStall, 99u);
  EXPECT_EQ(B.DynamicCheck, 5u);
  EXPECT_EQ(B.PrefetchIssue, 1u);
  EXPECT_EQ(B.PureCompute, 31u);
}

/// Logs every listener callback as "<event> <address> <stream tag>".
class CallbackLog : public PrefetchListener {
public:
  std::vector<std::string> Events;

  void onPrefetchFill(Addr BlockAddr, uint32_t StreamTag,
                      MemoryHierarchy &) override {
    log("fill", BlockAddr, StreamTag);
  }
  void onPrefetchUseful(Addr Address, uint32_t StreamTag) override {
    log("useful", Address, StreamTag);
  }
  void onPrefetchLate(Addr Address, uint32_t StreamTag) override {
    log("late", Address, StreamTag);
  }
  void onPrefetchEvicted(Addr BlockAddr, uint32_t StreamTag) override {
    log("evicted", BlockAddr, StreamTag);
  }

private:
  void log(const char *Event, Addr Address, uint32_t StreamTag) {
    std::ostringstream Line;
    Line << Event << " 0x" << std::hex << Address << std::dec << " "
         << StreamTag;
    Events.push_back(Line.str());
  }
};

TEST(PrefetchClassTest, DemandPathColdPathsReportInOrder) {
  // Every out-of-line branch of MemoryHierarchy::access in one run: L1
  // and L2 prefetch-useful hits, an untouched-prefetch eviction and a
  // partial hit.  Tiny 2-way L1 (4 sets); every address maps to set 0.
  MemoryHierarchy M(CacheConfig{256, 2, 32}, CacheConfig::pentiumIIIL2(),
                    testLatency());
  CallbackLog Log;
  M.setListener(&Log);

  M.prefetchT0(0x0, /*ChargeIssueSlot=*/true, /*StreamTag=*/3);
  M.tick(200);
  EXPECT_EQ(M.access(0x0), 1u); // L1 hit on the untouched prefetch

  M.prefetchT0(0x400, /*ChargeIssueSlot=*/true, /*StreamTag=*/4);
  M.tick(200);
  EXPECT_EQ(M.access(0x480), 100u); // evicts 0x0 (demand-touched)
  EXPECT_EQ(M.access(0x500), 100u); // evicts 0x400, untouched
  EXPECT_EQ(M.access(0x400), 14u);  // L2 hit on the untouched prefetch

  M.prefetchT0(0x2000, /*ChargeIssueSlot=*/true, /*StreamTag=*/5);
  M.tick(40);
  EXPECT_EQ(M.access(0x2000), 61u); // waits out 60 of its 100 cycles
  M.setListener(nullptr);

  const std::vector<std::string> Expected = {
      "fill 0x0 3",       "useful 0x0 3",   "fill 0x400 4",
      "evicted 0x400 4",  "useful 0x400 4", "late 0x2000 5",
      "fill 0x2000 5"};
  EXPECT_EQ(Log.Events, Expected);

  const HierarchyStats H = M.stats();
  EXPECT_EQ(H.DemandAccesses, 5u);
  EXPECT_EQ(H.PrefetchesIssued, 3u);
  EXPECT_EQ(H.PrefetchesUseful, 2u);
  EXPECT_EQ(H.PartialHits, 1u);
  EXPECT_EQ(H.PartialHitStallCycles, 60u);
  EXPECT_EQ(H.PrefetchesUnusedEvicted, 1u);
  ASSERT_EQ(M.streamClasses().size(), 6u);
  EXPECT_EQ(M.streamClasses()[3].Useful, 1u);
  EXPECT_EQ(M.streamClasses()[4].Useful, 1u);
  EXPECT_EQ(M.streamClasses()[4].UnusedEvicted, 1u);
  EXPECT_EQ(M.streamClasses()[5].Late, 1u);
  EXPECT_EQ(M.streamClasses()[5].Useful, 0u);

  const CacheStats &L1 = M.l1().stats();
  EXPECT_EQ(L1.Hits, 2u); // 0x0, and 0x2000 once it arrived
  EXPECT_EQ(L1.Misses, 4u);
  EXPECT_EQ(L1.DemandFills, 3u);
  EXPECT_EQ(L1.PrefetchFills, 3u);
  EXPECT_EQ(L1.Evictions, 4u);
  EXPECT_EQ(L1.UsefulPrefetches, 2u);
  EXPECT_EQ(L1.WastedPrefetches, 1u);
  const CacheStats &L2 = M.l2().stats();
  EXPECT_EQ(L2.Hits, 1u);
  EXPECT_EQ(L2.Misses, 2u);
  EXPECT_EQ(L2.DemandFills, 2u);
  EXPECT_EQ(L2.PrefetchFills, 3u);
  EXPECT_EQ(L2.Evictions, 0u);
  EXPECT_EQ(L2.UsefulPrefetches, 1u);
  EXPECT_EQ(L2.WastedPrefetches, 0u);
}

//===----------------------------------------------------------------------===//
// Property test: LRU thrash of a cyclic footprint
//===----------------------------------------------------------------------===//

struct ThrashCase {
  uint64_t Blocks;
  bool ExpectThrash;
};

// ThrashCase has padding after its bool, so gtest's default byte dump of
// the parameter (which the discovered ctest names carry) would read
// uninitialized memory and change from build to build.
void PrintTo(const ThrashCase &Case, std::ostream *OS) {
  *OS << Case.Blocks << (Case.ExpectThrash ? "-blocks-thrash" : "-blocks-fit");
}

class ThrashTest : public ::testing::TestWithParam<ThrashCase> {};

TEST_P(ThrashTest, CyclicLoopHitRate) {
  // The workloads rely on the classic result: cyclically touching a
  // working set slightly larger than an LRU cache misses every time,
  // while one that fits hits every time after warmup.
  const ThrashCase &Case = GetParam();
  Cache C(CacheConfig::pentiumIIIL1()); // 512 blocks
  const uint64_t Rounds = 8;
  uint64_t Hits = 0, Accesses = 0;
  for (uint64_t R = 0; R < Rounds; ++R)
    for (uint64_t B = 0; B < Case.Blocks; ++B) {
      const Addr A = B * 32;
      const bool Hit = C.access(A);
      if (!Hit)
        C.fill(A, false);
      if (R > 0) { // skip cold warmup round
        ++Accesses;
        Hits += Hit;
      }
    }
  const double HitRate =
      static_cast<double>(Hits) / static_cast<double>(Accesses);
  if (Case.ExpectThrash)
    EXPECT_LT(HitRate, 0.05) << Case.Blocks << " blocks";
  else
    EXPECT_GT(HitRate, 0.95) << Case.Blocks << " blocks";
}

INSTANTIATE_TEST_SUITE_P(Footprints, ThrashTest,
                         ::testing::Values(ThrashCase{256, false},
                                           ThrashCase{512, false},
                                           // >= 5 blocks per set: every
                                           // set LRU-thrashes.
                                           ThrashCase{640, true},
                                           ThrashCase{768, true},
                                           ThrashCase{1024, true}));

/// Deterministic random access pattern: cache model self-consistency —
/// contains() agrees with access() outcomes, stats add up.
TEST(CachePropertyTest, StatsAreConsistentUnderRandomTraffic) {
  hds::Rng R(99);
  Cache C(tinyCache());
  uint64_t ExpectedHits = 0, ExpectedMisses = 0;
  for (int I = 0; I < 20000; ++I) {
    const Addr A = R.nextBelow(64) * 32;
    const bool WasResident = C.contains(A);
    const bool Hit = C.access(A);
    EXPECT_EQ(Hit, WasResident);
    if (Hit)
      ++ExpectedHits;
    else {
      ++ExpectedMisses;
      C.fill(A, false);
      EXPECT_TRUE(C.contains(A));
    }
  }
  EXPECT_EQ(C.stats().Hits, ExpectedHits);
  EXPECT_EQ(C.stats().Misses, ExpectedMisses);
  EXPECT_EQ(C.stats().DemandFills, ExpectedMisses);
  EXPECT_LE(C.validLineCount(), 8u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Alternative geometries and latencies
//===----------------------------------------------------------------------===//

namespace {

TEST(CacheTest, SixtyFourByteBlocks) {
  Cache C(CacheConfig{4096, 4, 64});
  EXPECT_EQ(C.config().numSets(), 16u);
  C.fill(0x1000, false);
  EXPECT_TRUE(C.contains(0x103F));  // same 64B block
  EXPECT_FALSE(C.contains(0x1040)); // next block
}

TEST(CacheTest, DirectMappedBehaviour) {
  Cache C(CacheConfig{128, 1, 32}); // 4 sets, direct mapped
  C.fill(0x0, false);
  C.fill(0x80, false); // same set: must evict
  EXPECT_FALSE(C.contains(0x0));
  EXPECT_TRUE(C.contains(0x80));
}

TEST(HierarchyTest, CustomLatenciesAreRespected) {
  LatencyConfig L;
  L.L1HitCycles = 2;
  L.L2HitCycles = 20;
  L.MemoryCycles = 300;
  MemoryHierarchy M(CacheConfig::pentiumIIIL1(),
                    CacheConfig::pentiumIIIL2(), L);
  EXPECT_EQ(M.access(0x0), 300u);
  EXPECT_EQ(M.access(0x0), 2u);
}

TEST(HierarchyTest, HardwarePrefetchSkipsIssueSlot) {
  MemoryHierarchy M;
  M.prefetchT0(0x1000, /*ChargeIssueSlot=*/false);
  EXPECT_EQ(M.now(), 0u);
  M.prefetchT0(0x2000, /*ChargeIssueSlot=*/true);
  EXPECT_EQ(M.now(), uint64_t{LatencyConfig().PrefetchIssueCycles});
}

} // namespace
