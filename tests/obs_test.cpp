//===- tests/obs_test.cpp - Observability subsystem tests -------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for the typed observability layer (src/obs) and the engine's
// metric registry built on top of it: the cycle account's clock/phase
// coupling, the phase timeline invariants, stable-id uniqueness, and the
// registry <-> JSON writer <-> --diff agreement that makes the metric
// ids the one source of truth for the results format.
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "engine/MetricRegistry.h"
#include "engine/ResultsJson.h"
#include "engine/ResultsDiff.h"
#include "obs/CycleAccount.h"
#include "obs/Metrics.h"
#include "obs/PrefetchStats.h"
#include "obs/Timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// CycleAccount
//===----------------------------------------------------------------------===//

TEST(CycleAccountTest, ChargeAdvancesClockAndPhaseTogether) {
  obs::CycleAccount Account;
  Account.charge(10, obs::CyclePhase::PureCompute);
  Account.charge(4, obs::CyclePhase::DemandStall);
  Account.charge(1, obs::CyclePhase::DynamicCheck);
  EXPECT_EQ(Account.total(), 15u);
  EXPECT_EQ(Account.phase(obs::CyclePhase::PureCompute), 10u);
  EXPECT_EQ(Account.phase(obs::CyclePhase::DemandStall), 4u);
  EXPECT_EQ(Account.phase(obs::CyclePhase::DynamicCheck), 1u);
}

TEST(CycleAccountTest, PhasesPartitionTheClock) {
  obs::CycleAccount Account;
  uint64_t Expected = 0;
  for (std::size_t Phase = 0; Phase < obs::NumCyclePhases; ++Phase) {
    Account.charge(Phase * 7 + 1, static_cast<obs::CyclePhase>(Phase));
    Expected += Phase * 7 + 1;
  }
  EXPECT_EQ(Account.total(), Expected);
  EXPECT_EQ(Account.snapshot().total(), Account.total());

  uint64_t Sum = 0;
  for (std::size_t Phase = 0; Phase < obs::NumCyclePhases; ++Phase)
    Sum += Account.phase(static_cast<obs::CyclePhase>(Phase));
  EXPECT_EQ(Sum, Account.total());
}

TEST(CycleAccountTest, StallCyclesCoversFullAndPartialDemandStall) {
  obs::CycleAccount Account;
  Account.charge(100, obs::CyclePhase::DemandStall);
  Account.charge(13, obs::CyclePhase::PartialHitStall);
  Account.charge(50, obs::CyclePhase::PureCompute);
  EXPECT_EQ(Account.stallCycles(), 113u);
}

TEST(CycleAccountTest, ResetClearsEverything) {
  obs::CycleAccount Account;
  Account.charge(42, obs::CyclePhase::Analysis);
  Account.reset();
  EXPECT_EQ(Account.total(), 0u);
  EXPECT_EQ(Account.phase(obs::CyclePhase::Analysis), 0u);
}

TEST(CycleAccountTest, EveryPhaseHasAStableName) {
  std::set<std::string> Names;
  for (std::size_t Phase = 0; Phase < obs::NumCyclePhases; ++Phase) {
    const char *Name =
        obs::cyclePhaseName(static_cast<obs::CyclePhase>(Phase));
    EXPECT_STRNE(Name, "unknown");
    Names.insert(Name);
  }
  EXPECT_EQ(Names.size(), obs::NumCyclePhases); // all distinct
}

//===----------------------------------------------------------------------===//
// Timeline
//===----------------------------------------------------------------------===//

TEST(TimelineTest, BeginClosesThePreviousSpan) {
  obs::Timeline Timeline;
  Timeline.begin("awake", 0);
  Timeline.begin("analysis", 100);
  Timeline.begin("hibernation", 130);
  Timeline.closeOpen(500);

  ASSERT_EQ(Timeline.spans().size(), 3u);
  EXPECT_EQ(Timeline.spans()[0].Name, "awake");
  EXPECT_EQ(Timeline.spans()[0].BeginCycle, 0u);
  EXPECT_EQ(Timeline.spans()[0].EndCycle, 100u);
  EXPECT_FALSE(Timeline.spans()[0].Open);
  EXPECT_EQ(Timeline.spans()[1].EndCycle, 130u);
  EXPECT_EQ(Timeline.spans()[2].EndCycle, 500u);
  EXPECT_FALSE(Timeline.spans()[2].Open);
}

TEST(TimelineTest, SpansAreAGapFreePartition) {
  obs::Timeline Timeline;
  Timeline.begin("a", 0);
  Timeline.begin("b", 10);
  Timeline.begin("c", 25);
  Timeline.closeOpen(40);
  for (std::size_t I = 1; I < Timeline.spans().size(); ++I)
    EXPECT_EQ(Timeline.spans()[I].BeginCycle,
              Timeline.spans()[I - 1].EndCycle);
}

TEST(TimelineTest, ZeroLengthSpansAreDropped) {
  obs::Timeline Timeline;
  Timeline.begin("awake", 0);
  Timeline.begin("analysis", 50);
  Timeline.begin("hibernation", 50); // analysis lasted zero cycles
  Timeline.closeOpen(80);
  ASSERT_EQ(Timeline.spans().size(), 2u);
  EXPECT_EQ(Timeline.spans()[0].Name, "awake");
  EXPECT_EQ(Timeline.spans()[1].Name, "hibernation");
}

//===----------------------------------------------------------------------===//
// Prefetch effectiveness figures of merit
//===----------------------------------------------------------------------===//

TEST(StreamPrefetchStatsTest, FiguresOfMeritHandleZeroDenominators) {
  obs::StreamPrefetchStats Empty;
  EXPECT_EQ(Empty.accuracy(), 0.0);
  EXPECT_EQ(Empty.timeliness(), 0.0);

  obs::StreamPrefetchStats S;
  S.Issued = 10;
  S.Useful = 6;
  S.Late = 2;
  EXPECT_DOUBLE_EQ(S.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(S.timeliness(), 0.75);
}

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

TEST(MetricRegistryTest, HasEveryBlockInDocumentOrder) {
  // The results-JSON schema, written out: every block and its metric
  // ids, in document order.  A metric may only be appended to its block;
  // reordering, renaming or deleting one changes a key of every committed
  // document, so it must show up here (and in the golden diff) as a
  // deliberate edit.
  const std::vector<std::pair<const char *, std::vector<std::string>>>
      Expected = {
          {"result",
           {"accesses", "checks_executed", "traced_refs",
            "instrumented_site_hits", "match_clauses_scanned",
            "complete_matches", "prefetches_requested",
            "stale_frame_accesses"}},
          {"phase",
           {"traced_refs", "hot_streams_detected", "streams_installed",
            "dfsm_states", "dfsm_transitions", "check_clauses_injected",
            "procedures_modified", "sites_instrumented", "grammar_rules",
            "grammar_symbols", "analysis_cost_cycles",
            "next_hibernation_periods"}},
          {"memory",
           {"demand_accesses", "stall_cycles", "prefetches_issued",
            "prefetches_dropped_queue_full", "prefetches_redundant",
            "partial_hits", "partial_hit_stall_cycles", "prefetches_useful",
            "prefetches_unused_evicted"}},
          {"cache",
           {"hits", "misses", "demand_fills", "prefetch_fills", "evictions",
            "useful_prefetches", "wasted_prefetches"}},
          {"cycle_breakdown",
           {"pure_compute", "demand_stall", "partial_hit_stall",
            "dynamic_check", "profiling", "prefix_match", "prefetch_issue",
            "analysis"}},
          {"stream",
           {"stream", "install_cycle", "length", "issued", "useful", "late",
            "redundant", "dropped_queue_full", "unused_evicted"}},
          {"prefetcher",
           {"kind", "tag", "trains", "issued", "useful", "late", "redundant",
            "dropped_queue_full", "unused_evicted"}},
          {"timing", {"wall_ns", "accesses_per_sec"}},
      };
  const std::vector<MetricBlock> &Registry = metricRegistry();
  ASSERT_EQ(Registry.size(), Expected.size());
  for (std::size_t B = 0; B < Expected.size(); ++B) {
    EXPECT_STREQ(Registry[B].Name, Expected[B].first);
    std::vector<std::string> Ids;
    for (const obs::MetricDef &Def : Registry[B].Metrics)
      Ids.push_back(Def.Id);
    EXPECT_EQ(Ids, Expected[B].second) << "block " << Expected[B].first;
  }
}

TEST(MetricRegistryTest, IdsAreUniqueAndDocumentedWithinEachBlock) {
  for (const MetricBlock &Block : metricRegistry()) {
    std::set<std::string> Ids;
    for (const obs::MetricDef &Def : Block.Metrics) {
      EXPECT_TRUE(Ids.insert(Def.Id).second)
          << "duplicate id '" << Def.Id << "' in block " << Block.Name;
      EXPECT_NE(Def.Unit, nullptr);
      EXPECT_STRNE(Def.Unit, "");
      EXPECT_NE(Def.Doc, nullptr);
      EXPECT_STRNE(Def.Doc, "");
    }
  }
}

TEST(MetricRegistryTest, TracksTheAppendOnlyCycleBreakdownShape) {
  // One metric per cycle phase, in enum order, named by cyclePhaseName —
  // the registry, the enum, and the serialized shape can't drift apart.
  const MetricBlock *Breakdown = nullptr;
  for (const MetricBlock &Block : metricRegistry())
    if (std::string(Block.Name) == "cycle_breakdown")
      Breakdown = &Block;
  ASSERT_NE(Breakdown, nullptr);
  ASSERT_EQ(Breakdown->Metrics.size(), obs::NumCyclePhases);
  for (std::size_t Phase = 0; Phase < obs::NumCyclePhases; ++Phase)
    EXPECT_STREQ(Breakdown->Metrics[Phase].Id,
                 obs::cyclePhaseName(static_cast<obs::CyclePhase>(Phase)));
}

TEST(MetricRegistryTest, FindMetricLooksUpByBlockAndId) {
  const obs::MetricDef *Stall = findMetric("memory", "stall_cycles");
  ASSERT_NE(Stall, nullptr);
  EXPECT_STREQ(Stall->Unit, "cycles");
  EXPECT_EQ(findMetric("memory", "no_such_metric"), nullptr);
  EXPECT_EQ(findMetric("no_such_block", "stall_cycles"), nullptr);
}

TEST(MetricRegistryTest, IdentityFieldsMatchTheSpecEcho) {
  const std::vector<const char *> &Fields = specIdentityFields();
  ASSERT_FALSE(Fields.empty());
  std::set<std::string> Unique(Fields.begin(), Fields.end());
  EXPECT_EQ(Unique.size(), Fields.size());
  // Identity fields are spec echo, never metrics.
  for (const char *Field : Fields)
    for (const MetricBlock &Block : metricRegistry())
      for (const obs::MetricDef &Def : Block.Metrics)
        EXPECT_STRNE(Def.Id, Field);
}

//===----------------------------------------------------------------------===//
// Registry <-> JSON writer <-> --diff agreement
//===----------------------------------------------------------------------===//

/// An Ok result with every registered counter set to a distinct value,
/// counting up from \p Fill.
RunResult denseResult(uint64_t Fill = 1000) {
  RunResult Result;
  Result.Spec.Workload = "vpr";
  Result.State = RunResult::Status::Ok;
  Result.Iterations = 5;
  Result.Cycles = 99;
  auto Assign = [&Fill](const obs::MetricDef &, auto &Field) {
    Field = static_cast<std::remove_reference_t<decltype(Field)>>(Fill++);
  };
  core::visitRunStatsMetrics(Result.Stats, Assign);
  memsim::visitHierarchyStatsMetrics(Result.Memory, Assign);
  memsim::visitCacheStatsMetrics(Result.L1, Assign);
  memsim::visitCacheStatsMetrics(Result.L2, Assign);
  core::CycleStats Phase;
  core::visitCycleStatsMetrics(Phase, Assign);
  Result.Stats.Cycles.push_back(Phase);
  obs::visitCycleBreakdownMetrics(Result.Breakdown, Assign);
  obs::StreamPrefetchStats Stream;
  obs::visitStreamPrefetchStatsMetrics(Stream, Assign);
  Result.Streams.push_back(Stream);
  obs::PrefetcherStats Prefetcher;
  obs::visitPrefetcherStatsMetrics(Prefetcher, Assign);
  Result.Prefetchers.push_back(Prefetcher);
  visitResultTimingMetrics(Result.Timing, Assign);
  return Result;
}

/// TimingInfo that turns on the per-result "timing" object (the
/// registry's "timing" block only reaches the JSON when a caller
/// measures wall clock and opts in).
TimingInfo perResultTiming() {
  TimingInfo Timing;
  Timing.IncludePerResult = true;
  return Timing;
}

TEST(MetricRegistryTest, EveryRegisteredIdAppearsInTheJson) {
  const std::string Json =
      resultsToJson(std::vector<RunResult>{denseResult()}, perResultTiming());
  for (const MetricBlock &Block : metricRegistry())
    for (const obs::MetricDef &Def : Block.Metrics) {
      std::string Needle(1, '"');
      Needle += Def.Id;
      Needle += "\":";
      EXPECT_NE(Json.find(Needle), std::string::npos)
          << "metric " << Block.Name << "." << Def.Id
          << " registered but absent from the JSON";
    }
}

TEST(MetricRegistryTest, DiffComparesEveryRegisteredMetric) {
  // Two results that differ in every registered field: the diff must
  // report a change under each id, so no metric the writer emits escapes
  // the --diff gate.  wall_ns is the one exception by design: the wall
  // gate compares the rate, never the raw time (engine/ResultsDiff.h).
  const std::string A =
      resultsToJson(std::vector<RunResult>{denseResult(1000)},
                    perResultTiming());
  const std::string B =
      resultsToJson(std::vector<RunResult>{denseResult(2000)},
                    perResultTiming());
  DiffOptions Opts;
  Opts.WallThresholdPct = 0.0;
  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(A, B, Opts, Report, Error)) << Error;
  std::vector<std::string> Paths;
  for (const std::vector<DiffLine> *Lines :
       {&Report.Regressions, &Report.Improvements, &Report.MetricChanges})
    for (const DiffLine &Line : *Lines)
      Paths.push_back(Line.Detail.substr(0, Line.Detail.find(' ')));
  for (const MetricBlock &Block : metricRegistry())
    for (const obs::MetricDef &Def : Block.Metrics) {
      if (std::string(Def.Id) == "wall_ns")
        continue;
      const std::string Suffix = std::string(".") + Def.Id;
      const bool Reported = std::any_of(
          Paths.begin(), Paths.end(), [&](const std::string &Path) {
            return Path == Def.Id ||
                   (Path.size() > Suffix.size() &&
                    Path.compare(Path.size() - Suffix.size(), Suffix.size(),
                                 Suffix) == 0);
          });
      EXPECT_TRUE(Reported) << "metric " << Block.Name << "." << Def.Id
                            << " changed but the diff did not report it";
    }
}

} // namespace
