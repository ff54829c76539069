//===- tests/replay_test.cpp - Record/replay + oracle tests ---------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Covers the trace format (round-trip, versioning, corruption rejection),
// record/replay fidelity through the full Runtime, the differential
// oracles, and the seeded adversarial trace generator.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "replay/Oracles.h"
#include "replay/TraceFormat.h"
#include "replay/TraceRecorder.h"
#include "replay/TraceReplayer.h"
#include "support/Rng.h"
#include "testing/TraceGen.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>

// Note: no `using namespace hds` here — hds::testing would collide with
// gtest's ::testing.
namespace rp = hds::replay;
namespace gen = hds::testing;

namespace {

//===----------------------------------------------------------------------===//
// Trace format
//===----------------------------------------------------------------------===//

/// A hand-built trace exercising every event kind and operand field.
rp::Trace sampleTrace() {
  rp::Trace T;
  T.Meta.Workload = "sample";
  T.Meta.Iterations = 7;
  T.Meta.Mode = hds::core::RunMode::DynamicPrefetch;
  T.Meta.HeadLength = 3;
  T.Meta.Prefetchers.set(hds::prefetch::Prefetcher::Stride, true);
  T.Meta.Pin = true;
  using K = rp::TraceEvent::Kind;
  T.Events = {
      {K::DeclareProcedure, 0, 0, 0, "walk"},
      {K::DeclareSite, 0, 0, 0, "node->next"},
      {K::Allocate, 64, 8, 0x100000, {}},
      {K::PadHeap, 24, 0, 0, {}},
      {K::SetupDone, 0, 0, 0, {}},
      {K::EnterProcedure, 0, 0, 0, {}},
      {K::Load, 0, 0x100000, 0, {}},
      {K::Store, 0, 0x100008, 0, {}},
      {K::Compute, 12, 0, 0, {}},
      {K::LoopBackEdge, 0, 0, 0, {}},
      {K::LeaveProcedure, 0, 0, 0, {}},
  };
  T.Summary.Cycles = 1234;
  T.Summary.TotalAccesses = 2;
  T.Summary.ChecksExecuted = 2;
  T.Summary.TracedRefs = 1;
  T.Summary.L1Misses = 2;
  T.Summary.L2Misses = 1;
  T.Summary.PrefetchesIssued = 0;
  T.Summary.CompleteMatches = 0;
  return T;
}

TEST(TraceFormatTest, RoundTripPreservesEverything) {
  const rp::Trace T = sampleTrace();
  const std::string Bytes = rp::serializeTrace(T);
  rp::Trace Back;
  std::string Error;
  ASSERT_TRUE(rp::deserializeTrace(Bytes, Back, &Error)) << Error;
  EXPECT_TRUE(Back.Meta == T.Meta);
  EXPECT_EQ(Back.Events.size(), T.Events.size());
  for (size_t I = 0; I < T.Events.size(); ++I)
    EXPECT_TRUE(Back.Events[I] == T.Events[I]) << "event " << I;
  EXPECT_TRUE(Back.Summary == T.Summary);
}

TEST(TraceFormatTest, EmptyTraceRoundTrips) {
  rp::Trace T;
  rp::Trace Back;
  ASSERT_TRUE(rp::deserializeTrace(rp::serializeTrace(T), Back, nullptr));
  EXPECT_TRUE(Back.Events.empty());
  EXPECT_TRUE(Back.Summary == rp::TraceSummary());
}

TEST(TraceFormatTest, RejectsBadMagic) {
  std::string Bytes = rp::serializeTrace(sampleTrace());
  Bytes[0] = 'X';
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(TraceFormatTest, RejectsUnsupportedVersion) {
  std::string Bytes = rp::serializeTrace(sampleTrace());
  Bytes[8] = 99; // version word follows the 8-byte magic
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(TraceFormatTest, RejectsTruncationAtEveryPrefix) {
  const std::string Bytes = rp::serializeTrace(sampleTrace());
  for (size_t Length = 0; Length < Bytes.size(); ++Length) {
    rp::Trace Back;
    EXPECT_FALSE(
        rp::deserializeTrace(Bytes.substr(0, Length), Back, nullptr))
        << "prefix of " << Length << " bytes accepted";
  }
}

/// Offset of sampleTrace()'s meta flags byte: the one byte a Pin change
/// flips.
size_t sampleFlagsOffset() {
  rp::Trace Unpinned = sampleTrace();
  Unpinned.Meta.Pin = false;
  const std::string Bytes = rp::serializeTrace(sampleTrace());
  const std::string Other = rp::serializeTrace(Unpinned);
  size_t FlagsAt = 0;
  while (FlagsAt < Bytes.size() && FlagsAt < Other.size() &&
         Bytes[FlagsAt] == Other[FlagsAt])
    ++FlagsAt;
  return FlagsAt;
}

TEST(TraceFormatTest, RejectsRetiredAndUnknownFlagBits) {
  const std::string Bytes = rp::serializeTrace(sampleTrace());
  const size_t FlagsAt = sampleFlagsOffset();
  ASSERT_LT(FlagsAt, Bytes.size());
  ASSERT_EQ(Bytes[FlagsAt], 5); // stride (1) | pin (4)

  // Bit 32 was the dueling selector; 64 was never assigned.
  for (const int Bit : {32, 64}) {
    std::string Tampered = Bytes;
    Tampered[FlagsAt] = static_cast<char>(5 | Bit);
    rp::Trace Back;
    std::string Error;
    EXPECT_FALSE(rp::deserializeTrace(Tampered, Back, &Error)) << Bit;
    EXPECT_NE(Error.find(Bit == 32 ? "dueling selector" : "unknown flag bits"),
              std::string::npos)
        << Error;
  }
}

TEST(TraceFormatTest, RejectsTheRetiredStreamFlag) {
  // Bit 8 enabled the stream prefetcher, which no longer exists: a trace
  // that asks for it cannot be replayed faithfully, so it is refused.
  std::string Bytes = rp::serializeTrace(sampleTrace());
  const size_t FlagsAt = sampleFlagsOffset();
  ASSERT_LT(FlagsAt, Bytes.size());
  Bytes[FlagsAt] = static_cast<char>(5 | 8);
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error));
  EXPECT_EQ(Error, "trace enables the stream prefetcher (flag 8), which "
                   "was removed");
}

TEST(TraceFormatTest, RejectsTrailingGarbage) {
  std::string Bytes = rp::serializeTrace(sampleTrace());
  Bytes.push_back('\0');
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos) << Error;
}

/// An empty trace: magic (8), version (4), then one byte each for the
/// workload name length, iterations, mode, head length, flags and event
/// count, the 8 one-byte summary varints, and the 4-byte end magic.
std::string emptyTraceBytes() {
  const std::string Bytes = rp::serializeTrace(rp::Trace());
  EXPECT_EQ(Bytes.size(), 30u);
  return Bytes;
}

TEST(TraceFormatTest, HugeEventCountIsTruncationNotAnAllocation) {
  // The header and meta of an empty trace, then a count of 2^60 events
  // and no event bytes.  The reservation must be bounded by the bytes
  // left, so this is an ordinary truncation (it used to throw
  // std::length_error out of reserve()).
  std::string Bytes = emptyTraceBytes().substr(0, 17);
  uint64_t Count = uint64_t{1} << 60;
  for (; Count >= 0x80; Count >>= 7)
    Bytes.push_back(static_cast<char>(0x80 | (Count & 0x7F)));
  Bytes.push_back(static_cast<char>(Count));
  ASSERT_EQ(Bytes.size(), 26u);
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error));
  EXPECT_EQ(Error, "truncated at event 0");
}

TEST(TraceFormatTest, StringLengthNearTwoToThe64IsRejected) {
  // Workload name length 2^64-1 as a 10-byte varint ending at offset 21.
  // A bound check written as Pos + Length wraps to Pos - 1: it takes the
  // file's tail as the name and resumes at the varint's last byte.  With
  // one footer byte dropped, the shifted rest would decode cleanly.
  std::string Bytes = emptyTraceBytes();
  ASSERT_EQ(Bytes[12], '\0');
  Bytes.replace(12, 1, std::string(9, '\xFF') + '\x01');
  Bytes.erase(Bytes.size() - 5, 1);
  rp::Trace Back;
  std::string Error;
  EXPECT_FALSE(rp::deserializeTrace(Bytes, Back, &Error))
      << "decoded workload of " << Back.Meta.Workload.size() << " bytes";
  EXPECT_EQ(Error, "truncated trace meta");
}

TEST(TraceFormatTest, RejectsBytesPastTheAddressSpace) {
  // The simulated address space is 32-bit: a trace may name byte
  // 2^32 - 1 but none past it, whether by access or recorded allocation,
  // and its allocations and paddings together may not be able to push the
  // replayed heap past it.  sampleTrace's heap can reach HeapBase + 95:
  // 64 bytes at alignment 8 (up to 71) and 24 bytes of padding.
  using K = rp::TraceEvent::Kind;
  const uint64_t Limit = uint64_t{1} << 32;
  const uint64_t Room = Limit - hds::core::Runtime::HeapBase - 95;
  const std::string Past = " at event 11 leaves the 32-bit simulated "
                           "address space";
  struct Case {
    std::vector<rp::TraceEvent> Events;
    std::string Error; ///< empty: the trace reads back
  } Cases[] = {
      {{{K::Load, 0, Limit - 1, 0, {}}}, ""},
      {{{K::Load, 0, Limit, 0, {}}}, "access address" + Past},
      {{{K::Store, 0, ~uint64_t{0}, 0, {}}}, "access address" + Past},
      {{{K::Allocate, 64, 8, Limit - 64, {}}}, ""},
      {{{K::Allocate, 65, 8, Limit - 64, {}}}, "allocation" + Past},
      {{{K::Allocate, 0, 8, Limit, {}}}, "allocation" + Past},
      {{{K::Allocate, 8, uint64_t{1} << 40, 0x200000, {}}},
       "allocation" + Past},
      {{{K::Allocate, 8, 3, 0x200000, {}}},
       "allocation alignment 3 at event 11 is not a power of two"},
      {{{K::Allocate, 8, 0, 0x200000, {}}},
       "allocation alignment 0 at event 11 is not a power of two"},
      {{{K::PadHeap, Room, 0, 0, {}}}, ""},
      {{{K::PadHeap, Room + 1, 0, 0, {}}}, "heap padding" + Past},
      // Each padding fits alone; together they would not.
      {{{K::PadHeap, Room / 2 + 1, 0, 0, {}}, {K::PadHeap, Room / 2 + 1, 0, 0, {}}},
       "heap padding at event 12 leaves the 32-bit simulated address space"},
  };
  for (const Case &C : Cases) {
    rp::Trace T = sampleTrace();
    T.Events.insert(T.Events.end(), C.Events.begin(), C.Events.end());
    rp::Trace Back;
    std::string Error;
    EXPECT_EQ(rp::deserializeTrace(rp::serializeTrace(T), Back, &Error),
              C.Error.empty())
        << Error;
    EXPECT_EQ(Error, C.Error);
  }
}

TEST(TraceFormatTest, FileRoundTrip) {
  const rp::Trace T = sampleTrace();
  const std::string Path = "replay_test_tmp.hdstrace";
  std::string Error;
  ASSERT_TRUE(rp::writeTraceFile(T, Path, &Error)) << Error;
  rp::Trace Back;
  ASSERT_TRUE(rp::readTraceFile(Path, Back, &Error)) << Error;
  EXPECT_TRUE(Back.Meta == T.Meta);
  EXPECT_TRUE(Back.Summary == T.Summary);
  std::remove(Path.c_str());
}

TEST(TraceFormatTest, SummaryDivergenceNamesChangedFields) {
  rp::TraceSummary A, B;
  A.Cycles = 10;
  B.Cycles = 12;
  B.L1Misses = 3;
  const std::string Description = rp::describeSummaryDivergence(A, B);
  EXPECT_NE(Description.find("cycles"), std::string::npos);
  EXPECT_NE(Description.find("L1 misses"), std::string::npos);
  EXPECT_EQ(Description.find("L2"), std::string::npos);
  EXPECT_TRUE(rp::describeSummaryDivergence(A, A).empty());
}

//===----------------------------------------------------------------------===//
// Record + replay through the full Runtime
//===----------------------------------------------------------------------===//

/// Records a real workload run and returns the captured trace.
rp::Trace recordWorkload(const std::string &Name, hds::core::RunMode Mode,
                         uint64_t Iterations) {
  hds::core::OptimizerConfig Config;
  Config.Mode = Mode;
  auto Bench = hds::workloads::createWorkload(Name);
  EXPECT_NE(Bench, nullptr);
  hds::core::Runtime Rt(Config);
  rp::TraceRecorder Recorder(
      rp::metaFromConfig(Config, Name, Iterations));
  Rt.setObserver(&Recorder);
  Bench->setup(Rt);
  Recorder.markSetupDone();
  Bench->run(Rt, Iterations);
  Rt.setObserver(nullptr);
  Recorder.finish(Rt);
  return Recorder.takeTrace();
}

class RecordReplayTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(RecordReplayTest, ReplayReproducesRecordedRunExactly) {
  const rp::Trace T = recordWorkload(
      GetParam(), hds::core::RunMode::DynamicPrefetch, 150);
  ASSERT_FALSE(T.Events.empty());
  EXPECT_GT(T.Summary.Cycles, 0u);

  const rp::ReplayResult Result = rp::replayTrace(T);
  EXPECT_EQ(Result.EventMismatches, 0u);
  EXPECT_TRUE(Result.SummaryMatches) << Result.Divergence;
  EXPECT_EQ(Result.Replayed.Cycles, T.Summary.Cycles);
  EXPECT_EQ(Result.Replayed.L1Misses, T.Summary.L1Misses);
  EXPECT_EQ(Result.Replayed.L2Misses, T.Summary.L2Misses);
}

INSTANTIATE_TEST_SUITE_P(Workloads, RecordReplayTest,
                         ::testing::Values("vpr", "mcf", "parser"));

TEST(RecordReplayTest, SerializedReplayMatchesToo) {
  // The full pipeline: record -> serialize -> deserialize -> replay.
  const rp::Trace T =
      recordWorkload("vpr", hds::core::RunMode::DynamicPrefetch, 100);
  rp::Trace Back;
  std::string Error;
  ASSERT_TRUE(rp::deserializeTrace(rp::serializeTrace(T), Back, &Error))
      << Error;
  const rp::ReplayResult Result = rp::replayTrace(Back);
  EXPECT_TRUE(Result.SummaryMatches) << Result.Divergence;
}

TEST(RecordReplayTest, DetectsTamperedSummary) {
  rp::Trace T =
      recordWorkload("vpr", hds::core::RunMode::DynamicPrefetch, 60);
  T.Summary.Cycles += 1;
  const rp::ReplayResult Result = rp::replayTrace(T);
  EXPECT_FALSE(Result.SummaryMatches);
  EXPECT_NE(Result.Divergence.find("cycles"), std::string::npos)
      << Result.Divergence;
}

TEST(RecordReplayTest, DetectsDroppedEvent) {
  rp::Trace T =
      recordWorkload("vpr", hds::core::RunMode::DynamicPrefetch, 60);
  // Drop the last Load/Store event; the access count must diverge.
  for (size_t I = T.Events.size(); I-- > 0;) {
    if (T.Events[I].K == rp::TraceEvent::Kind::Load ||
        T.Events[I].K == rp::TraceEvent::Kind::Store) {
      T.Events.erase(T.Events.begin() + static_cast<ptrdiff_t>(I));
      break;
    }
  }
  const rp::ReplayResult Result = rp::replayTrace(T);
  EXPECT_FALSE(Result.SummaryMatches);
}

TEST(RecordReplayTest, DetectsForgedAllocationAddress) {
  rp::Trace T;
  T.Meta.Mode = hds::core::RunMode::Original;
  using K = rp::TraceEvent::Kind;
  // The bump allocator starts at 1 MiB, so a recorded address of 0x42
  // can never be reproduced.
  T.Events = {{K::Allocate, 64, 8, 0x42, {}}, {K::SetupDone, 0, 0, 0, {}}};
  const rp::ReplayResult Result = rp::replayTrace(T);
  EXPECT_GT(Result.EventMismatches, 0u);
  EXPECT_FALSE(Result.SummaryMatches);
  EXPECT_NE(Result.Divergence.find("allocation"), std::string::npos)
      << Result.Divergence;
}

TEST(RecordReplayTest, ReplayWithoutSetupMarkerStillReplaysEverything) {
  rp::Trace T =
      recordWorkload("vpr", hds::core::RunMode::DynamicPrefetch, 60);
  // Strip the marker: all events replay in setup(), none in run(); the
  // outcome must be unchanged (the boundary carries no simulation state).
  for (size_t I = 0; I < T.Events.size(); ++I) {
    if (T.Events[I].K == rp::TraceEvent::Kind::SetupDone) {
      T.Events.erase(T.Events.begin() + static_cast<ptrdiff_t>(I));
      break;
    }
  }
  const rp::ReplayResult Result = rp::replayTrace(T);
  EXPECT_TRUE(Result.SummaryMatches) << Result.Divergence;
}

//===----------------------------------------------------------------------===//
// Trace generator
//===----------------------------------------------------------------------===//

TEST(TraceGenTest, SameSeedSameTrace) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    EXPECT_EQ(gen::generateTrace(Seed), gen::generateTrace(Seed))
        << "seed " << Seed;
}

TEST(TraceGenTest, DistinctSeedsProduceDistinctTraces) {
  EXPECT_NE(gen::generateTrace(4), gen::generateTrace(8));
  EXPECT_NE(gen::generateTrace(1), gen::generateTrace(5));
}

TEST(TraceGenTest, SeedsCycleThroughAllShapes) {
  EXPECT_EQ(gen::shapeForSeed(5), gen::TraceShape::HotLoops);
  EXPECT_EQ(gen::shapeForSeed(6), gen::TraceShape::PhaseShifts);
  EXPECT_EQ(gen::shapeForSeed(7), gen::TraceShape::NoiseFlood);
  EXPECT_EQ(gen::shapeForSeed(8), gen::TraceShape::RegexRecurrence);
  EXPECT_EQ(gen::shapeForSeed(9), gen::TraceShape::CacheThrash);
  EXPECT_STRNE(gen::shapeName(gen::TraceShape::HotLoops),
               gen::shapeName(gen::TraceShape::NoiseFlood));
}

TEST(TraceGenTest, TracesAreNonTrivial) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    EXPECT_GT(gen::generateTrace(Seed).size(), 100u) << "seed " << Seed;
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

TEST(OracleTest, CountNonOverlappingIsGreedy) {
  const std::vector<uint32_t> Trace = {1, 2, 1, 2, 1, 2, 3};
  EXPECT_EQ(rp::countNonOverlapping(Trace, {1, 2}), 3u);
  EXPECT_EQ(rp::countNonOverlapping(Trace, {2, 1}), 2u);
  EXPECT_EQ(rp::countNonOverlapping(Trace, {1, 2, 1}), 1u);
  EXPECT_EQ(rp::countNonOverlapping(Trace, {9}), 0u);
  EXPECT_EQ(rp::countNonOverlapping(Trace, {}), 0u);
  EXPECT_EQ(rp::countNonOverlapping({}, {1}), 0u);
}

TEST(OracleTest, GrammarOraclePassesOnAdversarialTraces) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    const rp::OracleReport Report =
        rp::checkGrammarOracle(gen::generateTrace(Seed));
    EXPECT_TRUE(Report.Passed) << "seed " << Seed << ": " << Report.Failure;
  }
}

TEST(OracleTest, GrammarOracleHandlesDegenerateTraces) {
  EXPECT_TRUE(rp::checkGrammarOracle({}).Passed);
  EXPECT_TRUE(rp::checkGrammarOracle({7}).Passed);
  EXPECT_TRUE(rp::checkGrammarOracle(std::vector<uint32_t>(500, 3)).Passed);
}

TEST(OracleTest, AnalyzerOracleCrossChecksBothAnalyzers) {
  hds::analysis::AnalysisConfig Config;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    const rp::OracleReport Report =
        rp::checkAnalyzerOracle(gen::generateTrace(Seed), Config);
    EXPECT_TRUE(Report.Passed) << "seed " << Seed << ": " << Report.Failure;
  }
}

TEST(OracleTest, DfsmOracleAcceptsMatchingMachine) {
  const std::vector<std::vector<uint32_t>> Streams = {
      {1, 2, 3, 4, 5}, {1, 1, 2, 9, 9}, {2, 1, 7, 7, 7}};
  std::vector<uint32_t> Trace;
  hds::Rng R(42);
  for (int I = 0; I < 4000; ++I)
    Trace.push_back(static_cast<uint32_t>(R.nextBelow(10)));
  const rp::OracleReport Report = rp::checkDfsmOracle(Trace, Streams, 2);
  EXPECT_TRUE(Report.Passed) << Report.Failure;
}

TEST(OracleTest, DfsmOracleRejectsZeroHeadLength) {
  EXPECT_FALSE(rp::checkDfsmOracle({1, 2}, {{1, 2, 3}}, 0).Passed);
}

TEST(OracleTest, FullSuitePassesOnFixedSeeds) {
  hds::analysis::AnalysisConfig Config;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    const rp::OracleReport Report =
        rp::runOracleSuite(gen::generateTrace(Seed), Config, 2);
    EXPECT_TRUE(Report.Passed) << "seed " << Seed << ": " << Report.Failure;
  }
}

} // namespace
