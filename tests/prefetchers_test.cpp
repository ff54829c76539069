//===- tests/prefetchers_test.cpp - Prefetcher zoo -------------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for the pluggable prefetcher zoo (src/prefetch/): the stride,
// Markov and pair-table engines, the selection value that names them,
// the runtime's prefetcher stack, and the static-scheme pinning model.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "engine/ExperimentRunner.h"
#include "obs/PrefetchStats.h"
#include "prefetch/MarkovPrefetcher.h"
#include "prefetch/PairTablePrefetcher.h"
#include "prefetch/PrefetcherStack.h"
#include "prefetch/Selection.h"
#include "prefetch/StridePrefetcher.h"
#include "support/Rng.h"
#include "testing/ReferenceMarkov.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace hds;
using namespace hds::core;
using namespace hds::prefetch;

namespace {

/// A demand access as the stack would deliver it on an L1 hit.
AccessEvent hit(vulcan::SiteId Site, memsim::Addr Addr) {
  return AccessEvent{Site, Addr, 1, false};
}

/// A demand access as the stack would deliver it on an L1 miss.
AccessEvent miss(memsim::Addr Addr) {
  return AccessEvent{1, Addr, 100, true};
}

/// Records every completed prefetch fill in queue order — which is issue
/// order for prefetches queued together — and optionally hands each one
/// to a prefetcher's onFill, the way the runtime's stack chains fills.
class FillRecorder : public memsim::PrefetchListener {
public:
  std::vector<memsim::Addr> Fills;
  Prefetcher *ForwardTo = nullptr;

  void onPrefetchFill(memsim::Addr BlockAddr, uint32_t StreamTag,
                      memsim::MemoryHierarchy &Hierarchy) override {
    (void)StreamTag;
    Fills.push_back(BlockAddr);
    if (ForwardTo)
      ForwardTo->onFill(BlockAddr, Hierarchy);
  }
};

//===----------------------------------------------------------------------===//
// PrefetcherSelection token round-trip
//===----------------------------------------------------------------------===//

TEST(PrefetcherSelection, TokenRoundTripIsCanonical) {
  PrefetcherSelection Empty;
  EXPECT_EQ(Empty.token(), "none");
  EXPECT_TRUE(Empty.none());
  EXPECT_EQ(Empty.count(), 0u);

  PrefetcherSelection Sel;
  Sel.set(Prefetcher::PairTable, true);
  Sel.set(Prefetcher::Stride, true);
  // Canonical printing follows Kind enumeration order regardless of the
  // order the bits were set in.
  EXPECT_EQ(Sel.token(), "stride+pair");
  EXPECT_EQ(Sel.count(), 2u);
  EXPECT_FALSE(Sel.only(Prefetcher::Stride));

  for (const char *Token : {"none", "stride", "pair", "stride+pair",
                            "markov+pair", "stride+markov+pair"}) {
    PrefetcherSelection Parsed;
    ASSERT_TRUE(PrefetcherSelection::parseToken(Token, Parsed)) << Token;
    EXPECT_EQ(Parsed.token(), Token);
  }

  // Reordered tokens parse, but print canonically.
  PrefetcherSelection Reordered;
  ASSERT_TRUE(PrefetcherSelection::parseToken("pair+stride", Reordered));
  EXPECT_EQ(Reordered, Sel);
  EXPECT_EQ(Reordered.token(), "stride+pair");
}

TEST(PrefetcherSelection, ParseRejectsMalformedTokens) {
  PrefetcherSelection Out;
  for (const char *Bad :
       {"", "bogus", "stride+", "+stride", "stride++markov",
        "stride+stride", "none+stride", "duel", "stride+duel", "stream",
        "stride+stream"})
    EXPECT_FALSE(PrefetcherSelection::parseToken(Bad, Out)) << Bad;
}

TEST(PrefetcherSelection, TokenListMatchesTheRoster) {
  EXPECT_EQ(PrefetcherSelection::tokenList(), "none|stride|markov|pair");
  // The numbering is the "kind" gauge of every results document's
  // prefetcher rows.  The stream engine (2) and the dueling selector
  // (4) were removed; pair moved from 3 to 2.
  EXPECT_EQ(Prefetcher::Stride, 0);
  EXPECT_EQ(Prefetcher::Markov, 1);
  EXPECT_EQ(Prefetcher::PairTable, 2);
  EXPECT_EQ(PrefetcherSelection::NumKinds, 3u);
}

//===----------------------------------------------------------------------===//
// StridePrefetcher
//===----------------------------------------------------------------------===//

class StrideTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  StridePrefetcher Prefetcher{StridePrefetcherConfig(), /*AssignedTag=*/0};

  void access(vulcan::SiteId Site, memsim::Addr Addr) {
    Prefetcher.onAccess(hit(Site, Addr), Memory);
  }
};

TEST_F(StrideTest, ConfirmedStrideIssuesPrefetches) {
  // Three accesses with the same stride: the third confirms and issues.
  access(1, 0x1000);
  access(1, 0x1040);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.confirmed(), 1u);
  EXPECT_EQ(Prefetcher.issued(), 2u); // degree 2
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x10C0));
  EXPECT_TRUE(Memory.l1().contains(0x1100));
}

TEST_F(StrideTest, NegativeStrideWorks) {
  access(1, 0x2000);
  access(1, 0x1FC0);
  access(1, 0x1F80);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x1F40));
}

TEST_F(StrideTest, IrregularAddressesNeverConfirm) {
  // Pointer-chase-like deltas (huge, varying) never train the entry.
  const memsim::Addr Addrs[] = {0x1000, 0x9000, 0x3000, 0xF000, 0x2000};
  for (memsim::Addr A : Addrs)
    access(1, A);
  EXPECT_EQ(Prefetcher.issued(), 0u);
}

TEST_F(StrideTest, SmallIrregularStridesDoNotConfirm) {
  access(1, 0x1000);
  access(1, 0x1040); // stride 0x40
  access(1, 0x10C0); // stride 0x80: retrain
  EXPECT_EQ(Prefetcher.issued(), 0u);
}

TEST_F(StrideTest, DistinctPcsTrainIndependently) {
  access(1, 0x1000);
  access(2, 0x8000); // different pc, different entry
  access(1, 0x1040);
  access(2, 0x8100);
  access(1, 0x1080);
  access(2, 0x8200);
  EXPECT_EQ(Prefetcher.confirmed(), 2u);
}

TEST_F(StrideTest, SameAddressIsNeutral) {
  access(1, 0x1000);
  access(1, 0x1040);
  access(1, 0x1040); // repeat: neither trains nor breaks
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.confirmed(), 1u);
}

TEST_F(StrideTest, HardwarePrefetchesSpendNoIssueSlots) {
  const uint64_t Before = Memory.now();
  access(1, 0x1000);
  access(1, 0x1040);
  access(1, 0x1080);
  EXPECT_EQ(Memory.now(), Before);
}

TEST_F(StrideTest, ResetClearsState) {
  access(1, 0x1000);
  access(1, 0x1040);
  Prefetcher.reset();
  access(1, 0x1080);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  EXPECT_EQ(Prefetcher.trains(), 1u);
}

//===----------------------------------------------------------------------===//
// MarkovPrefetcher
//===----------------------------------------------------------------------===//

class MarkovTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  MarkovPrefetcher Prefetcher{MarkovPrefetcherConfig(), /*AssignedTag=*/0};

  void onMiss(memsim::Addr Addr) { Prefetcher.onMiss(miss(Addr), Memory); }
};

TEST_F(MarkovTest, LearnsDigramAndPrefetches) {
  // Miss sequence A, B teaches A -> B; the next miss on A prefetches B.
  onMiss(0x1000);
  onMiss(0x5000);
  EXPECT_EQ(Prefetcher.trains(), 1u);
  EXPECT_EQ(Prefetcher.issued(), 0u);
  onMiss(0x1000);
  EXPECT_EQ(Prefetcher.issued(), 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
}

TEST_F(MarkovTest, SuccessorSlotsAreBounded) {
  // A followed by three different blocks: only the most recent
  // SuccessorsPerNode (2) survive.
  for (memsim::Addr B : {0x5000, 0x6000, 0x7000}) {
    onMiss(0x1000);
    onMiss(B);
  }
  onMiss(0x1000);
  // Intermediate A-misses predicted {5}, then {6,5}; the final one
  // predicts {7,6}: 1 + 2 + 2 prefetches, never more than 2 per miss.
  EXPECT_EQ(Prefetcher.issued(), 5u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x7000)); // most recent always kept
}

TEST_F(MarkovTest, RepeatedMissOfSameBlockIsNotATransition) {
  onMiss(0x1000);
  onMiss(0x1000);
  EXPECT_EQ(Prefetcher.trains(), 0u);
}

TEST_F(MarkovTest, TableCapacityEvicts) {
  MarkovPrefetcherConfig Config;
  Config.MaxNodes = 4;
  MarkovPrefetcher Small(Config, /*AssignedTag=*/0);
  // Create 8 nodes; only 4 survive.
  for (memsim::Addr A = 0; A < 9; ++A)
    Small.onMiss(miss(0x1000 + A * 0x1000), Memory);
  EXPECT_LE(Small.nodeCount(), 4u);
}

TEST_F(MarkovTest, PrioritizedByRecency) {
  // A->B, then A->C: C is the more recent, listed first.
  onMiss(0x1000);
  onMiss(0x5000); // A->B
  onMiss(0x1000); // issues prefetch for B
  onMiss(0x6000); // A->C
  const uint64_t Before = Prefetcher.issued();
  onMiss(0x1000); // issues B and C
  EXPECT_EQ(Prefetcher.issued() - Before, 2u);
}

TEST_F(MarkovTest, SlotCountKeepsLoadAtMostTwoThirds) {
  // 65536 nodes fit 131072 slots (load 1/2); a single node still gets
  // two slots so every probe run ends at an empty one.
  EXPECT_EQ(Prefetcher.slotCount(), 131072u);
  MarkovPrefetcherConfig One;
  One.MaxNodes = 1;
  EXPECT_EQ(MarkovPrefetcher(One, /*AssignedTag=*/0).slotCount(), 2u);
  One.MaxNodes = 4;
  EXPECT_EQ(MarkovPrefetcher(One, /*AssignedTag=*/0).slotCount(), 8u);
}

TEST_F(MarkovTest, EvictsOldestNodeFirst) {
  // Two nodes: the third key evicts the first-inserted one, and a
  // relearned evicted key starts with no successors.
  MarkovPrefetcherConfig Config;
  Config.MaxNodes = 2;
  MarkovPrefetcher Small(Config, /*AssignedTag=*/0);
  const memsim::Addr A = 0x1000, B = 0x2000, C = 0x3000, D = 0x4000,
                     E = 0x5000;
  for (memsim::Addr Addr : {A, B, C, D}) // nodes A->B, B->C, then C->D
    Small.onMiss(miss(Addr), Memory);
  EXPECT_EQ(Small.nodeCount(), 2u);
  Small.onMiss(miss(A), Memory); // A was evicted: predicts nothing
  EXPECT_EQ(Small.issued(), 0u);
  Small.onMiss(miss(E), Memory); // relearns A, now A->E
  Small.onMiss(miss(A), Memory); // predicts E only, never the lost B
  EXPECT_EQ(Small.issued(), 1u);
  EXPECT_EQ(Small.nodeCount(), 2u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(E));
  EXPECT_FALSE(Memory.l1().contains(B));
}

TEST_F(MarkovTest, StoreFootprintAtDefaults) {
  // 65536 nodes of [block, 2 successors] in 32-bit words plus a
  // 131072-slot index of 32-bit node ids: 65536 * 12 + 131072 * 4 bytes.
  EXPECT_EQ(Prefetcher.storeBytes(), 1310720u);
}

/// One engine under test plus the hierarchy it issues into.  The
/// hierarchy's caches are tiny because it is reset after every miss: a
/// reset empties both levels and the in-flight queue, so every issue of
/// the next miss is queued (never redundant) and the recorder sees each
/// issued address once, in issue order.
template <typename EngineT> struct OracleLane {
  memsim::MemoryHierarchy Memory{memsim::CacheConfig{256, 2, 32},
                                 memsim::CacheConfig{512, 2, 32}};
  FillRecorder Issued;
  EngineT Engine;

  explicit OracleLane(const MarkovPrefetcherConfig &Config)
      : Engine(Config, /*AssignedTag=*/0) {
    Memory.setListener(&Issued);
  }

  /// The addresses \p Addr's miss issued, in order.
  std::vector<memsim::Addr> miss(memsim::Addr Addr) {
    Issued.Fills.clear();
    Engine.onMiss(AccessEvent{1, Addr, 100, true}, Memory);
    Memory.tick(1000);
    Memory.reset();
    return Issued.Fills;
  }
};

/// Blocks whose probe runs start in the last two slots of \p Table, so
/// runs of them wrap past the table's end.  They are drawn below 2^27,
/// so that their 32-byte blocks stay in the 32-bit address space.
std::vector<uint32_t> collidingBlocks(const MarkovPrefetcher &Table,
                                      size_t Count, Rng &Random) {
  std::vector<uint32_t> Blocks;
  while (Blocks.size() < Count) {
    const auto Block =
        static_cast<uint32_t>(Random.nextBelow(uint64_t{1} << 27));
    if (Table.homeSlot(Block) + 2 >= Table.slotCount())
      Blocks.push_back(Block);
  }
  return Blocks;
}

TEST(MarkovOracleTest, FlatTableMatchesReferenceInLockstep) {
  // The node pool must reproduce the map-of-vectors engine it replaced
  // exactly: the same addresses issued in the same order, the same
  // training count and the same node count after every miss.  The miss
  // stream walks a block universe three times the table bound (successor
  // lists hit, reorder and overflow; FIFO eviction runs), mixes in blocks
  // that collide on the last home slots (probe runs wrap past the end,
  // evicting one shifts the rest of its run back), repeats the previous
  // block and jumps at random.  Both engines reset halfway through.
  // MaxNodes 0 holds one node, like MaxNodes 1.
  for (uint32_t MaxNodes : {0u, 1u, 4u, 64u, 65536u}) {
    for (uint32_t Successors : {1u, 2u, 4u}) {
      SCOPED_TRACE("MaxNodes=" + std::to_string(MaxNodes) +
                   " SuccessorsPerNode=" + std::to_string(Successors));
      MarkovPrefetcherConfig Config;
      Config.MaxNodes = MaxNodes;
      Config.SuccessorsPerNode = Successors;
      OracleLane<MarkovPrefetcher> Flat(Config);
      OracleLane<hds::testing::ReferenceMarkov> Reference(Config);

      Rng Random(0xC0FFEEull * MaxNodes + Successors);
      const std::vector<uint32_t> Colliders =
          collidingBlocks(Flat.Engine, 8, Random);
      const uint64_t Universe = 3 * uint64_t{MaxNodes} + 8;
      const size_t Misses = MaxNodes >= 65536 ? 200000 : 4000;
      uint64_t Cursor = 0, Block = 0;
      for (size_t I = 0; I < Misses; ++I) {
        if (I == Misses / 2) {
          Flat.Engine.reset();
          Reference.Engine.reset();
        }
        const uint64_t Pick = Random.nextBelow(16);
        if (Pick < 9) {
          Cursor = (Cursor + 1 + Random.nextBelow(3)) % Universe;
          Block = 0x40000 + Cursor;
        } else if (Pick < 12) {
          Block = Colliders[Random.nextBelow(Colliders.size())];
        } else if (Pick < 15) {
          Cursor = Random.nextBelow(Universe);
          Block = 0x40000 + Cursor;
        } // else: the previous block misses again
        const memsim::Addr Addr = Block * 32 + Random.nextBelow(32);
        ASSERT_EQ(Flat.miss(Addr), Reference.miss(Addr)) << "miss " << I;
        ASSERT_EQ(Flat.Engine.trains(), Reference.Engine.trains())
            << "miss " << I;
        ASSERT_EQ(Flat.Engine.nodeCount(), Reference.Engine.nodeCount())
            << "miss " << I;
        ASSERT_EQ(Flat.Engine.issued(), Reference.Engine.issued())
            << "miss " << I;
      }
      EXPECT_LE(Flat.Engine.nodeCount(), std::max(MaxNodes, 1u));
    }
  }
}

//===----------------------------------------------------------------------===//
// PairTablePrefetcher
//===----------------------------------------------------------------------===//

class PairTableTest : public ::testing::Test {
protected:
  memsim::MemoryHierarchy Memory;
  PairTablePrefetcher Prefetcher{PairTableConfig(), /*AssignedTag=*/0};

  void onMiss(memsim::Addr Addr) { Prefetcher.onMiss(miss(Addr), Memory); }
};

TEST_F(PairTableTest, RepeatedPairReachesIssueThreshold) {
  // (A -> B) must repeat before it is trusted (IssueThreshold 2): the
  // first traversal trains, the second reinforces, the third predicts.
  onMiss(0x1000);
  onMiss(0x5000); // A->B at confidence 1
  onMiss(0x1000); // predict(A): below threshold
  EXPECT_EQ(Prefetcher.issued(), 0u);
  onMiss(0x5000); // A->B at confidence 2
  onMiss(0x1000); // predict(A): issues B
  EXPECT_EQ(Prefetcher.issued(), 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
}

TEST_F(PairTableTest, ConfidenceAbove255Saturates) {
  // A ceiling above 255 must saturate: 300 reinforcements of A->B and
  // B->A keep both pairs above the issue threshold throughout.
  PairTableConfig Config;
  Config.MaxConfidence = 300;
  PairTablePrefetcher Wide(Config, /*AssignedTag=*/0);
  for (int Round = 0; Round <= 300; ++Round) {
    const uint64_t Before = Wide.issued();
    Wide.onMiss(miss(0x1000), Memory);
    Wide.onMiss(miss(0x5000), Memory);
    // Each pair reaches the threshold (2) on its second traversal; from
    // then on both misses of a round issue their successor.
    ASSERT_EQ(Wide.issued() - Before, Round < 2 ? 0u : 2u)
        << "round " << Round;
  }
}

TEST_F(PairTableTest, FillChainsOneStepDownTheChain) {
  // Train A->B and B->C to confidence >= 2, then simulate B's fill
  // landing: the chain hook prefetches C without a demand miss on B.
  for (int Round = 0; Round < 3; ++Round) {
    onMiss(0x1000);
    onMiss(0x5000);
    onMiss(0x9000);
  }
  const uint64_t Before = Prefetcher.issued();
  Prefetcher.onFill(0x5000, Memory);
  EXPECT_EQ(Prefetcher.issued() - Before, 1u);
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x9000));
}

TEST_F(PairTableTest, MetadataStaysStrictlyBounded) {
  // The eviction discipline keeps the table at Sets x Ways entries no
  // matter how many distinct pairs the miss stream produces.
  PairTableConfig Config;
  Config.Sets = 4;
  Config.Ways = 2;
  PairTablePrefetcher Small(Config, /*AssignedTag=*/0);
  EXPECT_EQ(Small.capacityEntries(), 8u);
  for (memsim::Addr A = 0; A < 200; ++A)
    Small.onMiss(miss(0x1000 + A * 0x1000), Memory);
  EXPECT_LE(Small.occupiedEntries(), Small.capacityEntries());
  EXPECT_GT(Small.trains(), 0u);
}

TEST_F(PairTableTest, DefaultSetIsOneAlignedHostLine) {
  // Four 16-byte ways from a 64-byte boundary: each set is exactly one
  // 64-byte host cache line.
  EXPECT_EQ(Prefetcher.setBytes(), 64u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Prefetcher.tableData()) % 64, 0u);
}

TEST_F(PairTableTest, NoisePairsMustOutvoteResidents) {
  // A full set only surrenders a way after the incumbent fully decays:
  // one traversal of a noise pair cannot displace a reinforced pair.
  for (int Round = 0; Round < 3; ++Round) {
    onMiss(0x1000);
    onMiss(0x5000); // reinforce A->B
  }
  // One traversal of a different successor for A: the reinforced pair
  // must survive it.
  onMiss(0x1000);
  onMiss(0x6000); // A->C noise, same set as A->B
  onMiss(0x1000); // predict(A): B still the confident successor
  Memory.tick(500);
  EXPECT_TRUE(Memory.l1().contains(0x5000));
  // The noise successor sits below the issue threshold: never fetched.
  EXPECT_FALSE(Memory.l1().contains(0x6000));
}

TEST(PairTableNestedFillTest, NestedPredictSharesTheCandidateBuffer) {
  // issue() can drain a due prefetch whose fill chains into predict()
  // while an outer predict() is still walking its candidates.  The two
  // calls share one candidate buffer, and the outer call keeps its own
  // count: after the nested call it issues whatever the nested call left
  // in each slot.  The committed references encode exactly this order,
  // so it is pinned here; a per-call list would issue C where R is.
  PairTableConfig Config;
  Config.Sets = 1; // every pair in one set: candidate way indices agree
  Config.Ways = 16;
  Config.Degree = 3;
  PairTablePrefetcher Pair(Config, /*AssignedTag=*/0);
  memsim::MemoryHierarchy Memory;
  auto Miss = [&](memsim::Addr Addr) { Pair.onMiss(miss(Addr), Memory); };

  const memsim::Addr A = 0x1000, B = 0x2000, C = 0x3000, D = 0x4000;
  const memsim::Addr P = 0x5000, Q = 0x6000, R = 0x7000;
  // A -> {B, C, D} and P -> {Q, R}, every pair at confidence 3.
  for (int Round = 0; Round < 3; ++Round)
    for (memsim::Addr Addr : {A, B, A, C, A, D})
      Miss(Addr);
  for (int Round = 0; Round < 3; ++Round)
    for (memsim::Addr Addr : {P, Q, P, R})
      Miss(Addr);

  // A prefetch of P comes due exactly while A's miss issues B.
  Memory.reset();
  FillRecorder Fills;
  Fills.ForwardTo = &Pair;
  Memory.setListener(&Fills);
  Memory.prefetchT0(P, /*ChargeIssueSlot=*/false, /*StreamTag=*/0);
  Memory.access(0x100000); // a demand miss advances the clock past P
  const uint64_t Before = Pair.issued();
  Miss(A);
  EXPECT_EQ(Pair.issued() - Before, 4u);

  // Queue order is issue order: the nested fill of P queues Q before the
  // outer issue of B lands; then the outer call reads R (the nested
  // call's second candidate) and D (its own stale third slot).
  Fills.ForwardTo = nullptr;
  Memory.tick(1000);
  EXPECT_EQ(Fills.Fills, (std::vector<memsim::Addr>{P, Q, B, R, D}));
  Memory.setListener(nullptr);
}

//===----------------------------------------------------------------------===//
// Runtime integration (the prefetcher stack)
//===----------------------------------------------------------------------===//

TEST(RuntimePrefetcherTest, StrideCoversSequentialScan) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("scan");
  const auto S = Rt.declareSite(P);
  const memsim::Addr Base = Rt.allocate(1 << 20, 64);

  Runtime::ProcedureScope Scope(Rt, P);
  for (uint64_t I = 0; I < 2000; ++I) {
    Rt.load(S, Base + I * 32);
    Rt.compute(4);
  }
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  Prefetcher *Stride = Rt.prefetcherStack()->byKind(Prefetcher::Stride);
  ASSERT_NE(Stride, nullptr);
  EXPECT_GT(Stride->issued(), 1000u);
  // Most of the scan is covered: far fewer full-latency misses than refs.
  EXPECT_GT(Rt.memory().l1().stats().UsefulPrefetches +
                Rt.memory().stats().PartialHits,
            1000u);
}

TEST(RuntimePrefetcherTest, DisabledStackIsNull) {
  OptimizerConfig Config;
  Runtime Rt(Config);
  EXPECT_EQ(Rt.prefetcherStack(), nullptr);
  EXPECT_TRUE(Rt.prefetcherStats().empty());
}

TEST(RuntimePrefetcherTest, MarkovObservesOnlyMisses) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Markov, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("p");
  const auto S = Rt.declareSite(P);
  const memsim::Addr A = Rt.allocate(64, 64);
  const memsim::Addr B = Rt.allocate(64, 64);
  const memsim::Addr C = Rt.allocate(64, 64);

  Runtime::ProcedureScope Scope(Rt, P);
  Rt.load(S, A); // miss
  Rt.load(S, B); // miss: A -> B
  Rt.load(S, A); // hit: must not be observed
  Rt.load(S, C); // miss: B -> C (an observed hit would record B -> A)
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  Prefetcher *Markov = Rt.prefetcherStack()->byKind(Prefetcher::Markov);
  ASSERT_NE(Markov, nullptr);
  EXPECT_EQ(Markov->trains(), 2u);
}

TEST(RuntimePrefetcherTest, FullRosterComposesWithDenseTags) {
  OptimizerConfig Config;
  Config.Mode = RunMode::Original;
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Config.Prefetchers.Enabled.set(Prefetcher::Markov, true);
  Config.Prefetchers.Enabled.set(Prefetcher::PairTable, true);
  Runtime Rt(Config);
  const auto P = Rt.declareProcedure("scan");
  const auto S = Rt.declareSite(P);
  const memsim::Addr Base = Rt.allocate(1 << 16, 64);
  Runtime::ProcedureScope Scope(Rt, P);
  for (uint64_t I = 0; I < 500; ++I)
    Rt.load(S, Base + I * 32);

  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  EXPECT_EQ(Rt.prefetcherStack()->tagCount(), 3u);
  const std::vector<obs::PrefetcherStats> Rows = Rt.prefetcherStats();
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_EQ(Rows[0].Kind, static_cast<uint64_t>(Prefetcher::Stride));
  EXPECT_EQ(Rows[1].Kind, static_cast<uint64_t>(Prefetcher::Markov));
  EXPECT_EQ(Rows[2].Kind, static_cast<uint64_t>(Prefetcher::PairTable));
  for (uint64_t Tag = 0; Tag < 3; ++Tag)
    EXPECT_EQ(Rows[Tag].Tag, Tag);
  // The scan is stride territory: classification feedback joined from
  // the hierarchy lands on the stride row.
  EXPECT_GT(Rows[0].Issued, 0u);
  EXPECT_GT(Rows[0].Useful + Rows[0].Late, 0u);
}

TEST(RuntimePrefetcherTest, HotStreamTagsStartAboveStackTags) {
  // With prefetchers enabled in a prefetching mode, hot-data-stream
  // prefetches must classify under tags above the stack's reserved
  // range, so per-engine attribution never collides.
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Config.Prefetchers.Enabled.set(Prefetcher::Stride, true);
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 6000);
  ASSERT_NE(Rt.prefetcherStack(), nullptr);
  ASSERT_EQ(Rt.prefetcherStack()->tagCount(), 1u);
  EXPECT_GT(Rt.stats().PrefetchesRequested, 0u);
  // Stream-tag buckets beyond the stack's range belong to hot streams.
  EXPECT_GT(Rt.memory().streamClasses().size(), 1u);
}

//===----------------------------------------------------------------------===//
// Static-scheme pinning
//===----------------------------------------------------------------------===//

TEST(PinTest, PinnedRunKeepsFirstOptimizationForever) {
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.PinFirstOptimization = true;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 6000);

  // Exactly one optimization cycle was recorded; the engine stayed
  // installed and the image patched.
  EXPECT_EQ(Rt.stats().Cycles.size(), 1u);
  EXPECT_TRUE(Rt.engine().installed());
  EXPECT_TRUE(Rt.optimizer().pinned());
  EXPECT_EQ(Rt.image().deoptimizations(), 0u);
  EXPECT_GT(Rt.stats().CompleteMatches, 0u);
}

TEST(PinTest, PinnedRunStopsFrameworkCosts) {
  // After pinning, checks stop costing and tracing stops: total checks
  // executed must be far below an unpinned run's.
  auto RunChecks = [](bool Pin) {
    OptimizerConfig Config;
    Config.Mode = RunMode::DynamicPrefetch;
    Config.PinFirstOptimization = Pin;
    Config.Tracing = {1'481, 30, 30, 120, true};
    Runtime Rt(Config);
    auto W = workloads::createWorkload("vpr");
    W->setup(Rt);
    W->run(Rt, 6000);
    return Rt.stats().ChecksExecuted;
  };
  EXPECT_LT(RunChecks(true), RunChecks(false) / 2);
}

TEST(PinTest, TwophaseWorkloadChangesItsStreams) {
  // The phase-change program: a pinned run matches only during the
  // first phase; a dynamic run keeps matching.
  auto RunMatches = [](bool Pin) {
    OptimizerConfig Config;
    Config.Mode = RunMode::DynamicPrefetch;
    Config.PinFirstOptimization = Pin;
    Config.Tracing = {1'481, 30, 30, 120, true};
    Runtime Rt(Config);
    auto W = workloads::createWorkload("twophase");
    W->setup(Rt);
    W->run(Rt, 12000);
    return Rt.stats().CompleteMatches;
  };
  const uint64_t Static = RunMatches(true);
  const uint64_t Dynamic = RunMatches(false);
  EXPECT_GT(Dynamic, 2 * Static);
}

} // namespace

//===----------------------------------------------------------------------===//
// Adaptive hibernation (optimizer side)
//===----------------------------------------------------------------------===//

namespace {

OptimizerConfig adaptiveConfig() {
  OptimizerConfig Config;
  Config.Mode = RunMode::DynamicPrefetch;
  Config.Tracing = {1'481, 30, 30, 120, true};
  Config.AdaptiveHibernation = true;
  return Config;
}

TEST(AdaptiveHibernationTest, StableBehaviourStretchesHibernation) {
  Runtime Rt(adaptiveConfig());
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 16000);
  const RunStats &Stats = Rt.stats();
  ASSERT_GE(Stats.Cycles.size(), 2u);
  // Each stable cycle doubles the hibernation length (bounded).
  EXPECT_GT(Stats.Cycles.back().NextHibernationPeriods,
            Stats.Cycles.front().NextHibernationPeriods);
}

TEST(AdaptiveHibernationTest, ComparesReferencesNotTheirPerCycleIds) {
  // Two cycles install streams over the same 16 references, but the
  // second cycle first traces 16 references that never recur, so the
  // loop's references get ids 16-31 there instead of 0-15.  Ids only name
  // references within one cycle; the behaviour is stable all the same.
  Runtime Rt(adaptiveConfig());
  const vulcan::ProcId Proc = Rt.declareProcedure("loop");
  std::vector<vulcan::SiteId> Sites;
  for (int I = 0; I < 32; ++I)
    Sites.push_back(Rt.declareSite(Proc));
  DynamicOptimizer &Optimizer = Rt.optimizer();
  auto ProfileCycle = [&](bool ColdRefsFirst) {
    if (ColdRefsFirst)
      for (uint64_t I = 0; I < 16; ++I)
        Optimizer.recordRef({Sites[16 + I], 0x900000 + I * 64});
    for (int Pass = 0; Pass < 50; ++Pass)
      for (uint64_t I = 0; I < 16; ++I)
        Optimizer.recordRef({Sites[I], 0x100000 + I * 4096});
    Optimizer.onCheckEvent(profiling::CheckEvent::AwakeEnded);
    Optimizer.onCheckEvent(profiling::CheckEvent::HibernationEnded);
  };
  ProfileCycle(false);
  ProfileCycle(true);

  const RunStats &Stats = Rt.stats();
  ASSERT_EQ(Stats.Cycles.size(), 2u);
  ASSERT_GT(Stats.Cycles[0].StreamsInstalled, 0u);
  ASSERT_GT(Stats.Cycles[1].StreamsInstalled, 0u);
  const uint64_t Base = Rt.config().Tracing.NHibernate;
  EXPECT_EQ(Stats.Cycles[0].NextHibernationPeriods, Base);
  EXPECT_EQ(Stats.Cycles[1].NextHibernationPeriods, 2 * Base);
}

TEST(AdaptiveHibernationTest, PinsTheAblationTrails) {
  // No matrix cell runs adaptive hibernation, so this pins its exact
  // outcome on the two runs of hds_matrix --view adaptive (scale 0.2) whose
  // hibernation stretches: the cycles, and the hibernation length chosen
  // after each optimization cycle.
  struct Pin {
    const char *Workload;
    uint64_t Cycles;
    std::vector<uint64_t> Trail;
  };
  const Pin Pins[] = {
      {"mcf", 278940601, {150, 300}},
      {"vortex", 291330708, {150, 300}},
  };
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Workload);
    engine::ExperimentSpec Spec;
    Spec.Workload = P.Workload;
    Spec.Mode = RunMode::DynamicPrefetch;
    Spec.Scale = 0.2;
    Spec.Adaptive = true;
    const engine::RunResult Result = engine::runExperiment(Spec);
    ASSERT_TRUE(Result.ok());
    std::vector<uint64_t> Trail;
    for (const CycleStats &Cycle : Result.Stats.Cycles)
      Trail.push_back(Cycle.NextHibernationPeriods);
    EXPECT_EQ(Result.Cycles, P.Cycles);
    EXPECT_EQ(Trail, P.Trail);
  }
}

TEST(AdaptiveHibernationTest, BoundedByMaxFactor) {
  OptimizerConfig Config = adaptiveConfig();
  Config.AdaptiveHibernationMaxFactor = 2;
  Runtime Rt(Config);
  auto W = workloads::createWorkload("vpr");
  W->setup(Rt);
  W->run(Rt, 24000);
  for (const CycleStats &Cycle : Rt.stats().Cycles)
    EXPECT_LE(Cycle.NextHibernationPeriods, 2 * Config.Tracing.NHibernate);
}

TEST(AdaptiveHibernationTest, PhaseChangeResetsHibernation) {
  Runtime Rt(adaptiveConfig());
  auto W = workloads::createWorkload("twophase");
  W->setup(Rt);
  W->run(Rt, 24000);
  const RunStats &Stats = Rt.stats();
  ASSERT_GE(Stats.Cycles.size(), 3u);
  // At least one later cycle falls back to the base length (the phase
  // transition changed the detected stream set).
  bool SawReset = false;
  for (size_t C = 1; C < Stats.Cycles.size(); ++C)
    SawReset |= Stats.Cycles[C].NextHibernationPeriods ==
                Rt.config().Tracing.NHibernate;
  EXPECT_TRUE(SawReset);
}

TEST(AdaptiveHibernationTest, OffByDefault) {
  OptimizerConfig Config;
  EXPECT_FALSE(Config.AdaptiveHibernation);
}

} // namespace
