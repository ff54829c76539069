//===- tests/profiling_test.cpp - Bursty tracing framework tests -----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "profiling/BurstyTracer.h"
#include "profiling/TemporalProfiler.h"

#include <gtest/gtest.h>

using namespace hds;
using namespace hds::profiling;

namespace {

BurstyTracingConfig tinyConfig() {
  BurstyTracingConfig C;
  C.NCheck0 = 9;
  C.NInstr0 = 3;
  C.NAwake = 2;
  C.NHibernate = 4;
  C.HibernationEnabled = true;
  return C;
}

TEST(BurstyTracerTest, StartsInCheckingCode) {
  BurstyTracer T(tinyConfig());
  EXPECT_FALSE(T.inInstrumentedCode());
  EXPECT_EQ(T.phase(), TracerPhase::Awake);
}

TEST(BurstyTracerTest, BurstBeginsAfterNCheckChecks) {
  BurstyTracer T(tinyConfig());
  // nCheck = 9: after 9 checks the burst starts.
  for (int I = 0; I < 8; ++I) {
    T.check();
    EXPECT_FALSE(T.inInstrumentedCode()) << "check " << I;
  }
  T.check();
  EXPECT_TRUE(T.inInstrumentedCode());
}

TEST(BurstyTracerTest, BurstLastsNInstrChecks) {
  BurstyTracer T(tinyConfig());
  for (int I = 0; I < 9; ++I)
    T.check();
  ASSERT_TRUE(T.inInstrumentedCode());
  T.check();
  EXPECT_TRUE(T.inInstrumentedCode());
  T.check();
  EXPECT_TRUE(T.inInstrumentedCode());
  T.check(); // third instrumented check ends the burst
  EXPECT_FALSE(T.inInstrumentedCode());
  EXPECT_EQ(T.completedBurstPeriods(), 1u);
}

TEST(BurstyTracerTest, BurstPeriodIsNCheckPlusNInstrChecks) {
  BurstyTracer T(tinyConfig());
  uint64_t Checks = 0;
  while (T.completedBurstPeriods() == 0) {
    T.check();
    ++Checks;
  }
  EXPECT_EQ(Checks, tinyConfig().burstPeriodChecks());
}

TEST(BurstyTracerTest, AwakeEndsAfterNAwakeBurstPeriods) {
  BurstyTracer T(tinyConfig());
  // nAwake = 2 burst-periods of 12 checks each.
  CheckEvent Event = CheckEvent::None;
  uint64_t Checks = 0;
  while (Event == CheckEvent::None) {
    Event = T.check();
    ++Checks;
  }
  EXPECT_EQ(Event, CheckEvent::AwakeEnded);
  EXPECT_EQ(Checks, 2 * 12u);
  EXPECT_EQ(T.phase(), TracerPhase::Hibernating);
}

TEST(BurstyTracerTest, HibernationBurstPeriodsMatchAwakeLength) {
  // The §2.2 design: burst-periods correspond to the same number of
  // executed checks in either phase (nCheck = nCheck0+nInstr0-1,
  // nInstr = 1).
  BurstyTracer T(tinyConfig());
  while (T.phase() == TracerPhase::Awake)
    T.check();
  uint64_t Checks = 0;
  const uint64_t StartPeriods = T.completedBurstPeriods();
  while (T.completedBurstPeriods() == StartPeriods) {
    T.check();
    ++Checks;
  }
  EXPECT_EQ(Checks, tinyConfig().burstPeriodChecks());
}

TEST(BurstyTracerTest, HibernationTracesOneCheckPerPeriod) {
  BurstyTracer T(tinyConfig());
  while (T.phase() == TracerPhase::Awake)
    T.check();
  // Over one hibernating burst-period exactly one check runs in
  // instrumented code.
  const uint64_t Before = T.instrumentedChecks();
  const uint64_t StartPeriods = T.completedBurstPeriods();
  while (T.completedBurstPeriods() == StartPeriods)
    T.check();
  EXPECT_EQ(T.instrumentedChecks() - Before, 1u);
}

TEST(BurstyTracerTest, FullCycleReturnsToAwake) {
  BurstyTracer T(tinyConfig());
  CheckEvent Event = CheckEvent::None;
  while (Event != CheckEvent::AwakeEnded)
    Event = T.check();
  while (Event != CheckEvent::HibernationEnded)
    Event = T.check();
  EXPECT_EQ(T.phase(), TracerPhase::Awake);
  // nAwake + nHibernate burst-periods completed.
  EXPECT_EQ(T.completedBurstPeriods(), 2u + 4u);
}

TEST(BurstyTracerTest, DisabledHibernationNeverChangesPhase) {
  BurstyTracingConfig C = tinyConfig();
  C.HibernationEnabled = false;
  BurstyTracer T(C);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(T.check(), CheckEvent::None);
  EXPECT_EQ(T.phase(), TracerPhase::Awake);
  EXPECT_GT(T.completedBurstPeriods(), 10u);
}

TEST(BurstyTracerTest, ResetRestartsCycle) {
  BurstyTracer T(tinyConfig());
  for (int I = 0; I < 50; ++I)
    T.check();
  T.reset();
  EXPECT_EQ(T.checksExecuted(), 0u);
  EXPECT_EQ(T.completedBurstPeriods(), 0u);
  EXPECT_EQ(T.phase(), TracerPhase::Awake);
  EXPECT_FALSE(T.inInstrumentedCode());
}

TEST(BurstyTracerTest, DeterministicAcrossInstances) {
  BurstyTracer A(tinyConfig()), B(tinyConfig());
  for (int I = 0; I < 500; ++I) {
    EXPECT_EQ(A.check(), B.check());
    EXPECT_EQ(A.inInstrumentedCode(), B.inInstrumentedCode());
  }
}

//===----------------------------------------------------------------------===//
// Sampling-rate formula (§2.2)
//===----------------------------------------------------------------------===//

struct RateCase {
  uint64_t NCheck0, NInstr0, NAwake, NHibernate;
};

class SamplingRateTest : public ::testing::TestWithParam<RateCase> {};

TEST_P(SamplingRateTest, MeasuredRateMatchesFormula) {
  const RateCase &Case = GetParam();
  BurstyTracingConfig C;
  C.NCheck0 = Case.NCheck0;
  C.NInstr0 = Case.NInstr0;
  C.NAwake = Case.NAwake;
  C.NHibernate = Case.NHibernate;
  BurstyTracer T(C);

  // Run an integral number of full awake+hibernate cycles.
  const uint64_t CycleChecks =
      (Case.NAwake + Case.NHibernate) * C.burstPeriodChecks();
  uint64_t AwakeInstrumented = 0;
  for (uint64_t I = 0; I < 3 * CycleChecks; ++I) {
    T.check();
    // Count instrumented checks during awake phases only — that is what
    // feeds Sequitur.
    if (T.inInstrumentedCode() && T.phase() == TracerPhase::Awake)
      ++AwakeInstrumented;
  }

  const double Measured = static_cast<double>(AwakeInstrumented) /
                          (3.0 * static_cast<double>(CycleChecks));
  EXPECT_NEAR(Measured, C.overallSamplingRate(),
              C.overallSamplingRate() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    CounterSettings, SamplingRateTest,
    ::testing::Values(RateCase{9, 3, 2, 4}, RateCase{99, 1, 5, 5},
                      RateCase{199, 10, 4, 12}, RateCase{97, 3, 10, 30},
                      RateCase{995, 5, 2, 8},
                      // The paper's §4.1 settings, scaled phases.
                      RateCase{11940, 60, 5, 15}));

TEST(SamplingRateTest, PaperFormulaValues) {
  // Section 2.1: nCheck0 = 9900, nInstr0 = 100 is a 1% sampling rate.
  BurstyTracingConfig C;
  C.NCheck0 = 9900;
  C.NInstr0 = 100;
  C.HibernationEnabled = false;
  EXPECT_NEAR(C.awakeSamplingRate(), 0.01, 1e-12);

  // Section 4.1: nCheck0 = 11940, nInstr0 = 60 is 0.5% while awake.
  C.NCheck0 = 11940;
  C.NInstr0 = 60;
  EXPECT_NEAR(C.awakeSamplingRate(), 0.005, 1e-12);

  // With nAwake = 50 and nHibernate = 2450 the overall rate is
  // (50*60)/((50+2450)*12000) = 0.01%.
  C.NAwake = 50;
  C.NHibernate = 2450;
  C.HibernationEnabled = true;
  EXPECT_NEAR(C.overallSamplingRate(), 0.0001, 1e-12);
}

//===----------------------------------------------------------------------===//
// TemporalProfiler
//===----------------------------------------------------------------------===//

TEST(TemporalProfilerTest, RecordsIntoGrammar) {
  TemporalProfiler P;
  P.recordRef({1, 100});
  P.recordRef({1, 200});
  P.recordRef({1, 100});
  P.recordRef({1, 200});
  EXPECT_EQ(P.tracedRefCount(), 4u);
  EXPECT_EQ(P.grammar().inputLength(), 4u);
  EXPECT_EQ(P.refTable().size(), 2u);
  // abab compresses to two rules.
  EXPECT_EQ(P.grammar().ruleCount(), 2u);
}

TEST(TemporalProfilerTest, PcSampleCounts) {
  TemporalProfiler P;
  P.recordRef({1, 100});
  P.recordRef({1, 200});
  P.recordRef({2, 100});
  EXPECT_EQ(P.pcSampleCount(1), 2u);
  EXPECT_EQ(P.pcSampleCount(2), 1u);
  EXPECT_EQ(P.pcSampleCount(3), 0u);
}

TEST(TemporalProfilerTest, NewCycleRestartsInterning) {
  TemporalProfiler P;
  EXPECT_EQ(P.recordRef({1, 100}), 0u);
  EXPECT_EQ(P.recordRef({1, 200}), 1u);
  P.startNewCycle();
  EXPECT_EQ(P.tracedRefCount(), 0u);
  EXPECT_EQ(P.grammar().inputLength(), 0u);
  EXPECT_EQ(P.pcSampleCount(1), 0u);
  EXPECT_EQ(P.refTable().size(), 0u);
  // Ids follow first sight within the cycle: the reference seen second
  // in the last cycle is the first one seen in this one.
  EXPECT_EQ(P.recordRef({1, 200}), 0u);
  EXPECT_EQ(P.recordRef({1, 100}), 1u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Adaptive hibernation support (tracer side)
//===----------------------------------------------------------------------===//

namespace {

TEST(BurstyTracerTest, HibernationLengthCanBeRetuned) {
  BurstyTracingConfig C = tinyConfig(); // nAwake 2, nHibernate 4
  BurstyTracer T(C);
  // First full cycle at the default hibernation length.
  CheckEvent Event = CheckEvent::None;
  while (Event != CheckEvent::AwakeEnded)
    Event = T.check();
  T.setHibernationLength(8);
  uint64_t Checks = 0;
  while (Event != CheckEvent::HibernationEnded) {
    Event = T.check();
    ++Checks;
  }
  // 8 burst-periods of 12 checks each.
  EXPECT_EQ(Checks, 8 * 12u);
}

TEST(BurstyTracerTest, ShorteningHibernationTakesEffect) {
  BurstyTracingConfig C = tinyConfig();
  C.NHibernate = 100;
  BurstyTracer T(C);
  CheckEvent Event = CheckEvent::None;
  while (Event != CheckEvent::AwakeEnded)
    Event = T.check();
  T.setHibernationLength(2);
  uint64_t Checks = 0;
  while (Event != CheckEvent::HibernationEnded) {
    Event = T.check();
    ++Checks;
  }
  EXPECT_EQ(Checks, 2 * 12u);
}

} // namespace
