//===- tests/cache_model_test.cpp - Cache vs ReferenceCache lockstep ------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Differential property tests for the packed memsim::Cache against the
// pre-rewrite array-of-line-structs model (ReferenceCache).
// Both models run the same operation sequence — demand accesses, demand
// and prefetch fills, probes — and must agree on every return value,
// every classification detail, and every statistics counter after every
// single operation.  The sequences come from seeded TraceGen streams and
// an Rng-driven operation mix, across associativities, capacities, and a
// non-power-of-two set count (the packed model's div/mod geometry
// fallback).
//
//===----------------------------------------------------------------------===//

#include "memsim/Cache.h"
#include "support/Rng.h"
#include "testing/ReferenceCache.h"
#include "testing/TraceGen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

// NOTE: no `using namespace hds` — hds::testing would collide with
// gtest's ::testing.
using hds::Rng;
using hds::memsim::Addr;
using hds::memsim::Cache;
using hds::memsim::CacheConfig;
using hds::memsim::CacheStats;
using hds::obs::NoStreamTag;
using hds::testing::ReferenceCache;
using hds::testing::generateTrace;

namespace {

void expectStatsEqual(const CacheStats &A, const CacheStats &B,
                      const char *Where, uint64_t Step) {
  EXPECT_EQ(A.Hits, B.Hits) << Where << " step " << Step;
  EXPECT_EQ(A.Misses, B.Misses) << Where << " step " << Step;
  EXPECT_EQ(A.DemandFills, B.DemandFills) << Where << " step " << Step;
  EXPECT_EQ(A.PrefetchFills, B.PrefetchFills) << Where << " step " << Step;
  EXPECT_EQ(A.Evictions, B.Evictions) << Where << " step " << Step;
  EXPECT_EQ(A.UsefulPrefetches, B.UsefulPrefetches)
      << Where << " step " << Step;
  EXPECT_EQ(A.WastedPrefetches, B.WastedPrefetches)
      << Where << " step " << Step;
}

/// Drives both models through an identical operation sequence derived
/// from one TraceGen trace and checks full agreement after every step.
void runLockstep(const CacheConfig &Config, uint64_t Seed,
                 const char *Where) {
  Cache Packed(Config);
  ReferenceCache Reference(Config);
  Rng Ops(Seed * 0x9E3779B97F4A7C15ULL + 1);

  // TraceGen symbols become addresses at a handful of strides so the
  // same trace exercises dense set reuse, block-offset aliasing, and
  // conflict-heavy mappings.
  const std::vector<uint32_t> Trace = generateTrace(Seed);
  const uint64_t Strides[] = {1, 8, uint64_t{Config.BlockBytes},
                              uint64_t{Config.BlockBytes} * Config.numSets()};

  uint64_t Step = 0;
  for (uint32_t Symbol : Trace) {
    ++Step;
    const uint64_t Stride = Strides[Ops.nextBelow(4)];
    const Addr Address = uint64_t{Symbol} * Stride + Ops.nextBelow(4);

    switch (Ops.nextBelow(7)) {
    case 0: { // pure probe
      EXPECT_EQ(Packed.contains(Address), Reference.contains(Address))
          << Where << " step " << Step;
      break;
    }
    case 1: { // probe-and-touch (the prefetch redundancy check)
      EXPECT_EQ(Packed.touchIfPresent(Address),
                Reference.touchIfPresent(Address))
          << Where << " step " << Step;
      break;
    }
    case 2:
    case 3: { // demand access with classification detail
      Cache::AccessInfo InfoA, InfoB;
      EXPECT_EQ(Packed.access(Address, &InfoA),
                Reference.access(Address, &InfoB))
          << Where << " step " << Step;
      EXPECT_EQ(InfoA.PrefetchHit, InfoB.PrefetchHit)
          << Where << " step " << Step;
      EXPECT_EQ(InfoA.StreamTag, InfoB.StreamTag)
          << Where << " step " << Step;
      break;
    }
    case 4:
    case 5: { // fill (demand or prefetch, tagged or not)
      const bool IsPrefetch = Ops.nextBelow(2) == 0;
      const uint32_t Tag = IsPrefetch
                               ? static_cast<uint32_t>(Ops.nextBelow(7))
                               : NoStreamTag;
      const Cache::EvictInfo EvictA = Packed.fill(Address, IsPrefetch, Tag);
      const Cache::EvictInfo EvictB =
          Reference.fill(Address, IsPrefetch, Tag);
      EXPECT_EQ(EvictA.EvictedUntouchedPrefetch,
                EvictB.EvictedUntouchedPrefetch)
          << Where << " step " << Step;
      EXPECT_EQ(EvictA.EvictedStreamTag, EvictB.EvictedStreamTag)
          << Where << " step " << Step;
      EXPECT_EQ(EvictA.EvictedBlockAddr, EvictB.EvictedBlockAddr)
          << Where << " step " << Step;
      break;
    }
    default: { // the hierarchy's demand path: probe, then fill the slot
      Cache::AccessInfo InfoA, InfoB;
      Cache::MissSlot Slot;
      const bool HitA = Packed.access(Address, &InfoA, &Slot);
      EXPECT_EQ(HitA, Reference.access(Address, &InfoB))
          << Where << " step " << Step;
      EXPECT_EQ(InfoA.PrefetchHit, InfoB.PrefetchHit)
          << Where << " step " << Step;
      EXPECT_EQ(InfoA.StreamTag, InfoB.StreamTag)
          << Where << " step " << Step;
      if (HitA)
        break;
      EXPECT_TRUE(Packed.slotValid(Slot)) << Where << " step " << Step;
      const Cache::EvictInfo EvictA = Packed.fillMiss(Slot);
      const Cache::EvictInfo EvictB = Reference.fill(Address, false);
      EXPECT_EQ(EvictA.EvictedUntouchedPrefetch,
                EvictB.EvictedUntouchedPrefetch)
          << Where << " step " << Step;
      EXPECT_EQ(EvictA.EvictedStreamTag, EvictB.EvictedStreamTag)
          << Where << " step " << Step;
      EXPECT_EQ(EvictA.EvictedBlockAddr, EvictB.EvictedBlockAddr)
          << Where << " step " << Step;
      EXPECT_TRUE(Packed.contains(Address)) << Where << " step " << Step;
      break;
    }
    }

    expectStatsEqual(Packed.stats(), Reference.stats(), Where, Step);
    if (::testing::Test::HasFailure())
      return; // the first divergence is the interesting one
    if (Step % 512 == 0) {
      EXPECT_EQ(Packed.validLineCount(), Reference.validLineCount())
          << Where << " step " << Step;
    }
  }

  EXPECT_EQ(Packed.validLineCount(), Reference.validLineCount()) << Where;

  // reset() must leave both models in the same (empty) state and keep
  // them in agreement afterwards.
  Packed.reset();
  Reference.reset();
  EXPECT_EQ(Packed.validLineCount(), 0u) << Where;
  EXPECT_EQ(Reference.validLineCount(), 0u) << Where;
  for (uint32_t Symbol : Trace) {
    if (++Step > Trace.size() + 256)
      break;
    const Addr Address = uint64_t{Symbol} * Config.BlockBytes;
    EXPECT_EQ(Packed.access(Address), Reference.access(Address))
        << Where << " post-reset step " << Step;
    Packed.fill(Address, false);
    Reference.fill(Address, false);
  }
  expectStatsEqual(Packed.stats(), Reference.stats(), Where, Step);
}

struct Geometry {
  const char *Name;
  CacheConfig Config;
};

const Geometry Geometries[] = {
    {"direct_mapped_1k", {1024, 1, 32}},
    {"two_way_2k", {2 * 1024, 2, 32}},
    {"paper_l1_16k_4way", CacheConfig::pentiumIIIL1()},
    {"paper_l2_256k_8way", CacheConfig::pentiumIIIL2()},
    {"tiny_fully_assoc", {256, 8, 32}},
    // 12 sets: not a power of two, so the packed model must take its
    // div/mod geometry fallback instead of shift/mask.
    {"npot_sets_12x4", {12 * 4 * 32, 4, 32}},
    {"npot_sets_3x2_64b", {3 * 2 * 64, 2, 64}},
};

} // namespace

TEST(CacheModelDifferential, LockstepAcrossGeometriesAndSeeds) {
  for (const Geometry &G : Geometries)
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      SCOPED_TRACE(G.Name);
      runLockstep(G.Config, Seed, G.Name);
      if (::testing::Test::HasFailure())
        return;
    }
}

TEST(CacheModelDifferential, MissSlotGoesStaleWhenItsSetChanges) {
  // The slot access() returns on a miss stays valid only while its set
  // is unchanged (Cache::MissSlot); slotValid() is the check fillMiss()
  // asserts.
  const CacheConfig Config{1024, 4, 32}; // 8 sets
  const Addr SetSpan = uint64_t{Config.BlockBytes} * Config.numSets();
  Cache Packed(Config);
  Cache::MissSlot Slot;

  // Empty set: the victim is way 0; touching another set or only
  // reading leaves the slot valid.
  ASSERT_FALSE(Packed.access(0, nullptr, &Slot));
  EXPECT_EQ(Slot.Way, 0u);
  EXPECT_TRUE(Packed.slotValid(Slot));
  Packed.fill(Config.BlockBytes, /*IsPrefetch=*/false); // the next set
  EXPECT_FALSE(Packed.contains(0));
  EXPECT_TRUE(Packed.slotValid(Slot));

  // A fill into the same set takes way 0, so the victim moves.
  Packed.fill(SetSpan, /*IsPrefetch=*/false);
  EXPECT_FALSE(Packed.slotValid(Slot));

  // Filling the slot's own block makes it resident: stale as well.
  ASSERT_FALSE(Packed.access(0, nullptr, &Slot));
  EXPECT_EQ(Slot.Way, 1u);
  Packed.fill(0, /*IsPrefetch=*/false);
  EXPECT_FALSE(Packed.slotValid(Slot));

  // Full set: a hit on the LRU line moves the victim to the next way.
  Packed.fill(2 * SetSpan, /*IsPrefetch=*/false);
  Packed.fill(3 * SetSpan, /*IsPrefetch=*/false);
  ASSERT_FALSE(Packed.access(4 * SetSpan, nullptr, &Slot));
  EXPECT_EQ(Slot.Way, 0u); // SetSpan, filled first
  EXPECT_TRUE(Packed.slotValid(Slot));
  ASSERT_TRUE(Packed.access(SetSpan));
  EXPECT_FALSE(Packed.slotValid(Slot));

  // A fresh slot fills where it says and evicts that way's block.
  ASSERT_FALSE(Packed.access(4 * SetSpan, nullptr, &Slot));
  EXPECT_EQ(Slot.Way, 1u); // block 0
  Packed.fillMiss(Slot);
  EXPECT_TRUE(Packed.contains(4 * SetSpan));
  EXPECT_FALSE(Packed.contains(0));
  EXPECT_TRUE(Packed.contains(SetSpan));
}

TEST(CacheModelDifferential, BlockOfMatchesDivision) {
  // blockOf shifts for power-of-two blocks and divides otherwise; both
  // must agree with the plain division the reference model uses.
  std::vector<CacheConfig> Configs;
  for (const Geometry &G : Geometries)
    Configs.push_back(G.Config);
  Configs.push_back(CacheConfig{4 * 2 * 48, 2, 48}); // 48-byte blocks
  Rng Addresses(7);
  for (const CacheConfig &Config : Configs) {
    const Cache Packed(Config);
    for (int I = 0; I < 1000; ++I) {
      const Addr Address = Addresses.next();
      EXPECT_EQ(Packed.blockOf(Address), Address / Config.BlockBytes);
    }
  }
}

TEST(CacheModelDifferential, AdversarialSetConflicts) {
  // All addresses land in one set: maximal eviction pressure, the LRU
  // victim choice diverges immediately if the argmin is wrong.
  const CacheConfig Config{1024, 4, 32}; // 8 sets
  Cache Packed(Config);
  ReferenceCache Reference(Config);
  Rng Ops(0xC0FFEE);

  const uint64_t SetSpan = uint64_t{Config.BlockBytes} * Config.numSets();
  for (uint64_t Step = 1; Step <= 20000; ++Step) {
    const Addr Address = Ops.nextBelow(16) * SetSpan; // 16 blocks, 1 set
    const bool IsPrefetch = Ops.nextBelow(3) == 0;
    if (Ops.nextBelow(2) == 0) {
      EXPECT_EQ(Packed.access(Address), Reference.access(Address))
          << "step " << Step;
    } else {
      const uint32_t Tag =
          IsPrefetch ? static_cast<uint32_t>(Ops.nextBelow(3)) : NoStreamTag;
      const Cache::EvictInfo A = Packed.fill(Address, IsPrefetch, Tag);
      const Cache::EvictInfo B = Reference.fill(Address, IsPrefetch, Tag);
      EXPECT_EQ(A.EvictedUntouchedPrefetch, B.EvictedUntouchedPrefetch)
          << "step " << Step;
      EXPECT_EQ(A.EvictedStreamTag, B.EvictedStreamTag) << "step " << Step;
    }
    if (::testing::Test::HasFailure()) {
      expectStatsEqual(Packed.stats(), Reference.stats(), "conflict", Step);
      return;
    }
  }
  expectStatsEqual(Packed.stats(), Reference.stats(), "conflict", 20000);
  EXPECT_EQ(Packed.validLineCount(), Reference.validLineCount());
}
