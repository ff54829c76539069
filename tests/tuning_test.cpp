//===- tests/tuning_test.cpp - Closed-loop tuning policy tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Unit and property tests for the per-stream closed-loop degree/distance
// controller (prefetch/TuningPolicy.h) and for the PrefetcherSelection
// value type (prefetch/Selection.h) its CLI/spec plumbing rides on.
//
//===----------------------------------------------------------------------===//

#include "prefetch/Selection.h"
#include "prefetch/TuningPolicy.h"

#include <gtest/gtest.h>

#include <vector>

using namespace hds;
using namespace hds::prefetch;

namespace {

/// Cumulative per-tag buckets the hierarchy would hand rollEpoch();
/// tests advance them by epoch deltas.
struct Buckets {
  std::vector<obs::PrefetchClassCounts> Classes;

  explicit Buckets(size_t Tags) : Classes(Tags) {}

  /// Adds one epoch's worth of activity to \p Tag's cumulative counters.
  void addEpoch(size_t Tag, uint64_t Issued, uint64_t Useful,
                uint64_t Late = 0) {
    Classes[Tag].Issued += Issued;
    Classes[Tag].Useful += Useful;
    Classes[Tag].Late += Late;
  }
};

TuningConfig smallConfig() {
  TuningConfig Cfg;
  Cfg.Enabled = true;
  Cfg.EpochAccesses = 8;
  Cfg.MaxDegree = 8;
  Cfg.MaxDistance = 4;
  Cfg.MinSample = 4;
  Cfg.ProbationEpochs = 2;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Epoch clock
//===----------------------------------------------------------------------===//

TEST(TuningPolicy, EpochClockFiresEveryEpochAccesses) {
  TuningPolicy Policy(smallConfig());
  unsigned Boundaries = 0;
  for (unsigned I = 0; I < 24; ++I)
    if (Policy.onDemandAccess())
      ++Boundaries;
  EXPECT_EQ(Boundaries, 3u);
}

TEST(TuningPolicy, RegistrationUsesFallbackDegreeCappedAtMax) {
  TuningPolicy Policy(smallConfig());
  EXPECT_EQ(Policy.degree(0, 3), 3u);
  // The fallback saturates to MaxDegree on first registration.
  EXPECT_EQ(Policy.degree(1, 100), 8u);
  // Unregistered tags report the fallback read-only and distance 0.
  EXPECT_EQ(Policy.peekDegree(9, 24), 24u);
  EXPECT_EQ(Policy.distance(9), 0u);
  EXPECT_EQ(Policy.peek(9), nullptr);
}

//===----------------------------------------------------------------------===//
// Degree rule: multiplicative decay to squelch, probation re-probe
//===----------------------------------------------------------------------===//

TEST(TuningPolicy, InaccurateStreamDecaysToSquelchThenReProbes) {
  TuningPolicy Policy(smallConfig());
  Buckets B(1);
  ASSERT_EQ(Policy.degree(0, 8), 8u);

  // Zero useful prefetches: 8 -> 4 -> 2 -> 1 -> 0 (squelched).
  for (uint32_t Want : {4u, 2u, 1u, 0u}) {
    B.addEpoch(0, /*Issued=*/16, /*Useful=*/0);
    Policy.rollEpoch(B.Classes);
    EXPECT_EQ(Policy.degree(0, 8), Want);
  }
  const TuningPolicy::StreamState *State = Policy.peek(0);
  ASSERT_NE(State, nullptr);
  EXPECT_EQ(State->Squelches, 1u);

  // Squelched streams issue nothing, so their epoch deltas are empty;
  // after ProbationEpochs boundaries the stream is probed at degree 1.
  Policy.rollEpoch(B.Classes);
  EXPECT_EQ(Policy.degree(0, 8), 0u);
  Policy.rollEpoch(B.Classes);
  EXPECT_EQ(Policy.degree(0, 8), 1u);
  EXPECT_EQ(Policy.peek(0)->Probes, 1u);
}

TEST(TuningPolicy, AccurateStreamRaisesDegreeAdditivelyToMax) {
  TuningPolicy Policy(smallConfig());
  Buckets B(1);
  ASSERT_EQ(Policy.degree(0, 2), 2u);
  // All-useful epochs: +1 per epoch, saturating at MaxDegree = 8.
  for (uint32_t Want : {3u, 4u, 5u, 6u, 7u, 8u, 8u}) {
    B.addEpoch(0, /*Issued=*/16, /*Useful=*/16);
    Policy.rollEpoch(B.Classes);
    EXPECT_EQ(Policy.degree(0, 2), Want);
  }
}

TEST(TuningPolicy, ThinEpochHoldsTheSettings) {
  TuningPolicy Policy(smallConfig());
  Buckets B(1);
  ASSERT_EQ(Policy.degree(0, 4), 4u);
  // Below MinSample the rules do not fire, however bad the ratio.
  B.addEpoch(0, /*Issued=*/3, /*Useful=*/0);
  Policy.rollEpoch(B.Classes);
  EXPECT_EQ(Policy.degree(0, 4), 4u);
}

//===----------------------------------------------------------------------===//
// Distance rule: grows while late-heavy, plateaus, cautious shrink
//===----------------------------------------------------------------------===//

TEST(TuningPolicy, LateHeavyStreamGrowsDistanceAndPlateaus) {
  TuningPolicy Policy(smallConfig());
  Buckets B(1);
  ASSERT_EQ(Policy.degree(0, 4), 4u);
  EXPECT_EQ(Policy.distance(0), 0u);

  // Accurate but late-heavy epochs (useful/(useful+late) < 1/2): the
  // distance walks up by 1 per epoch and saturates at MaxDistance = 4.
  for (uint32_t Want : {1u, 2u, 3u, 4u, 4u, 4u}) {
    B.addEpoch(0, /*Issued=*/16, /*Useful=*/6, /*Late=*/10);
    Policy.rollEpoch(B.Classes);
    EXPECT_EQ(Policy.distance(0), Want);
  }

  // Timely epochs that still see some lateness hold the distance...
  B.addEpoch(0, /*Issued=*/16, /*Useful=*/15, /*Late=*/1);
  Policy.rollEpoch(B.Classes);
  EXPECT_EQ(Policy.distance(0), 4u);
  // ...and only an epoch with zero late prefetches shrinks it.
  B.addEpoch(0, /*Issued=*/16, /*Useful=*/16, /*Late=*/0);
  Policy.rollEpoch(B.Classes);
  EXPECT_EQ(Policy.distance(0), 3u);
}

//===----------------------------------------------------------------------===//
// Purity: adjustments are a function of epoch-delta counters only
//===----------------------------------------------------------------------===//

TEST(TuningPolicy, AdjustmentsAreAPureFunctionOfEpochDeltas) {
  // Two policies fed the same per-epoch deltas on top of different
  // cumulative histories must land in identical state: the rules read
  // only the delta against the previous boundary's snapshot.
  TuningPolicy A(smallConfig());
  TuningPolicy B(smallConfig());
  Buckets BucketsA(2), BucketsB(2);

  // Policy B's tag 0 starts with a large pre-registration history that
  // the first snapshot absorbs.
  BucketsB.addEpoch(0, 1000, 900, 50);
  ASSERT_EQ(A.degree(0, 6), 6u);
  ASSERT_EQ(B.degree(0, 6), 6u);
  ASSERT_EQ(A.degree(1, 6), 6u);
  ASSERT_EQ(B.degree(1, 6), 6u);
  A.rollEpoch(BucketsA.Classes);
  B.rollEpoch(BucketsB.Classes);

  const struct {
    uint64_t Issued, Useful, Late;
  } Epochs[] = {{16, 2, 0}, {16, 16, 0}, {16, 5, 11}, {3, 0, 0}, {16, 0, 0}};
  for (const auto &E : Epochs) {
    for (size_t Tag = 0; Tag < 2; ++Tag) {
      BucketsA.addEpoch(Tag, E.Issued, E.Useful, E.Late);
      BucketsB.addEpoch(Tag, E.Issued, E.Useful, E.Late);
    }
    A.rollEpoch(BucketsA.Classes);
    B.rollEpoch(BucketsB.Classes);
    for (uint32_t Tag = 0; Tag < 2; ++Tag) {
      EXPECT_EQ(A.degree(Tag, 6), B.degree(Tag, 6));
      EXPECT_EQ(A.distance(Tag), B.distance(Tag));
    }
  }
  EXPECT_EQ(A.epochsRolled(), B.epochsRolled());
}

TEST(TuningPolicy, ResetDropsAllStreamState) {
  TuningPolicy Policy(smallConfig());
  Buckets B(1);
  ASSERT_EQ(Policy.degree(0, 4), 4u);
  B.addEpoch(0, 16, 16);
  Policy.rollEpoch(B.Classes);
  ASSERT_EQ(Policy.degree(0, 4), 5u);
  Policy.reset();
  EXPECT_EQ(Policy.epochsRolled(), 0u);
  EXPECT_EQ(Policy.peek(0), nullptr);
  EXPECT_EQ(Policy.degree(0, 4), 4u);
}

//===----------------------------------------------------------------------===//
// PrefetcherSelection token round-trip
//===----------------------------------------------------------------------===//

TEST(PrefetcherSelection, TokenRoundTripIsCanonical) {
  PrefetcherSelection Empty;
  EXPECT_EQ(Empty.token(), "none");
  EXPECT_TRUE(Empty.none());
  EXPECT_EQ(Empty.count(), 0u);

  PrefetcherSelection Sel;
  Sel.set(Prefetcher::Stream, true);
  Sel.set(Prefetcher::Stride, true);
  // Canonical printing follows Kind enumeration order regardless of the
  // order the bits were set in.
  EXPECT_EQ(Sel.token(), "stride+stream");
  EXPECT_EQ(Sel.count(), 2u);
  EXPECT_FALSE(Sel.only(Prefetcher::Stride));

  for (const char *Token :
       {"none", "stride", "pair", "stride+stream", "markov+pair",
        "stride+markov+stream+pair"}) {
    PrefetcherSelection Parsed;
    ASSERT_TRUE(PrefetcherSelection::parseToken(Token, Parsed)) << Token;
    EXPECT_EQ(Parsed.token(), Token);
  }

  // Reordered tokens parse, but print canonically.
  PrefetcherSelection Reordered;
  ASSERT_TRUE(PrefetcherSelection::parseToken("stream+stride", Reordered));
  EXPECT_EQ(Reordered, Sel);
  EXPECT_EQ(Reordered.token(), "stride+stream");
}

TEST(PrefetcherSelection, ParseRejectsMalformedTokens) {
  PrefetcherSelection Out;
  for (const char *Bad :
       {"", "bogus", "stride+", "+stride", "stride++markov",
        "stride+stride", "none+stride", "duel", "stride+duel"})
    EXPECT_FALSE(PrefetcherSelection::parseToken(Bad, Out)) << Bad;
}

TEST(PrefetcherSelection, TokenListMatchesTheRoster) {
  EXPECT_EQ(PrefetcherSelection::tokenList(),
            "none|stride|markov|stream|pair");
  // The numbering is the "kind" gauge of every results document's
  // prefetcher rows: new engines are appended, nothing is renumbered.
  EXPECT_EQ(Prefetcher::Stride, 0);
  EXPECT_EQ(Prefetcher::Markov, 1);
  EXPECT_EQ(Prefetcher::Stream, 2);
  EXPECT_EQ(Prefetcher::PairTable, 3);
  // Kind 4 was the removed dueling selector: no enumerator past PairTable.
  EXPECT_EQ(PrefetcherSelection::NumKinds, 4u);
}

} // namespace
