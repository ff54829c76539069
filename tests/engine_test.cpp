//===- tests/engine_test.cpp - Parallel experiment engine tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for src/engine: runMatrix's threads and its determinism
// contract — every spec runs exactly once, the progress callback is
// serialized, results come back in spec order, and the aggregate JSON
// is byte-identical for any job count, with failed cells neither
// corrupting nor reordering the output (this binary also runs under
// TSan in CI) — plus the results JSON reader behind --diff, which must
// reject every truncated, malformed or inconsistent document (this
// binary also runs under ASan).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "engine/ResultsDiff.h"
#include "engine/ResultsJson.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// Spec vocabulary
//===----------------------------------------------------------------------===//

TEST(ExperimentSpec, ModeTokensRoundTrip) {
  const core::RunMode Modes[] = {
      core::RunMode::Original,         core::RunMode::ChecksOnly,
      core::RunMode::Profile,          core::RunMode::ProfileAnalyze,
      core::RunMode::MatchNoPrefetch,  core::RunMode::SequentialPrefetch,
      core::RunMode::DynamicPrefetch};
  for (core::RunMode Mode : Modes) {
    core::RunMode Parsed;
    ASSERT_TRUE(core::parseRunModeToken(core::runModeToken(Mode), Parsed));
    EXPECT_EQ(Parsed, Mode);
  }
  core::RunMode Parsed;
  EXPECT_FALSE(core::parseRunModeToken("bogus", Parsed));
}

TEST(ExperimentSpec, FilterNarrowsTheMatrix) {
  std::vector<ExperimentSpec> Specs = defaultMatrix();
  ASSERT_TRUE(applyFilter(Specs, "workload=mcf"));
  ASSERT_FALSE(Specs.empty());
  for (const ExperimentSpec &Spec : Specs)
    EXPECT_EQ(Spec.Workload, "mcf");

  ASSERT_TRUE(applyFilter(Specs, "mode=dynpref"));
  ASSERT_EQ(Specs.size(), 2u);
  for (const ExperimentSpec &Spec : Specs)
    EXPECT_EQ(Spec.Mode, core::RunMode::DynamicPrefetch);
  EXPECT_NE(Specs[0].Tuned, Specs[1].Tuned);

  ASSERT_TRUE(applyFilter(Specs, "tuning=fixed"));
  ASSERT_EQ(Specs.size(), 1u);
  EXPECT_FALSE(Specs[0].Tuned);
}

TEST(ExperimentSpec, BadFilterReportsErrorAndLeavesSpecsAlone) {
  std::vector<ExperimentSpec> Specs = defaultMatrix();
  const std::size_t Before = Specs.size();
  std::string Error;
  EXPECT_FALSE(applyFilter(Specs, "flavor=spicy", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Specs.size(), Before);
  EXPECT_FALSE(applyFilter(Specs, "no-equals-sign", &Error));
  EXPECT_EQ(Specs.size(), Before);
  for (const char *Bad :
       {"seed=-1", "seed=+1", "seed=1x", "seed=99999999999999999999"}) {
    Error.clear();
    EXPECT_FALSE(applyFilter(Specs, Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
    EXPECT_EQ(Specs.size(), Before) << Bad;
  }
  // Sharding was removed; shard= is an unknown key like any other.
  Error.clear();
  EXPECT_FALSE(applyFilter(Specs, "shard=0/3", &Error));
  EXPECT_NE(Error.find("unknown filter key 'shard'"), std::string::npos)
      << Error;
  EXPECT_EQ(Specs.size(), Before);
}

TEST(ExperimentSpec, FiltersApplyInTurnAndABadOneLeavesSpecsAlone) {
  std::vector<ExperimentSpec> Expected = defaultMatrix();
  ASSERT_TRUE(applyFilter(Expected, "workload=mcf"));
  ASSERT_TRUE(applyFilter(Expected, "prefetcher=none"));
  ASSERT_FALSE(Expected.empty());
  // Filters AND together, so their order on the command line is moot.
  for (const std::vector<std::string> &Filters :
       {std::vector<std::string>{"workload=mcf", "prefetcher=none"},
        std::vector<std::string>{"prefetcher=none", "workload=mcf"}}) {
    std::vector<ExperimentSpec> Specs = defaultMatrix();
    ASSERT_TRUE(applyFilters(Specs, Filters));
    EXPECT_EQ(Specs, Expected);
  }

  std::vector<ExperimentSpec> Specs = defaultMatrix();
  std::string Error;
  EXPECT_FALSE(
      applyFilters(Specs, {"workload=mcf", "mode=spicy", "seed=1"}, &Error));
  EXPECT_NE(Error.find("unknown mode 'spicy'"), std::string::npos) << Error;
  EXPECT_EQ(Specs, defaultMatrix());
}

//===----------------------------------------------------------------------===//
// runMatrix threads, determinism and failure isolation
//===----------------------------------------------------------------------===//

/// \p Count Original-mode vpr specs of a few iterations each.  Spec I runs
/// 10 + I iterations, so a result shows which spec it came from.
std::vector<ExperimentSpec> tinySpecs(std::size_t Count) {
  std::vector<ExperimentSpec> Specs(Count);
  for (std::size_t I = 0; I < Count; ++I) {
    Specs[I].Workload = "vpr";
    Specs[I].Mode = core::RunMode::Original;
    Specs[I].Iterations = 10 + I;
  }
  return Specs;
}

TEST(RunMatrix, RunsEverySpecWithoutACallback) {
  const std::vector<ExperimentSpec> Specs = tinySpecs(32);
  const std::vector<RunResult> Results = runMatrix(Specs, 4);
  ASSERT_EQ(Results.size(), Specs.size());
  for (std::size_t I = 0; I < Results.size(); ++I) {
    EXPECT_TRUE(Results[I].ok()) << I;
    EXPECT_EQ(Results[I].Iterations, 10 + I);
  }
}

TEST(RunMatrix, CallbackRunsSeriallyAndSeesEveryIndexOnce) {
  // Eight threads race through 24 specs.  The callback's counter and
  // vector are unsynchronized: only runMatrix's mutex orders the calls,
  // so under TSan this checks that each one holds it.
  const std::vector<ExperimentSpec> Specs = tinySpecs(24);
  std::size_t Calls = 0;
  std::vector<std::size_t> Seen;
  const std::vector<RunResult> Results =
      runMatrix(Specs, 8, [&](std::size_t Index, const RunResult &Result) {
        ++Calls;
        Seen.push_back(Index);
        EXPECT_EQ(Result.Iterations, Specs[Index].Iterations);
      });
  EXPECT_EQ(Calls, Specs.size());
  std::sort(Seen.begin(), Seen.end());
  for (std::size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], I);
  ASSERT_EQ(Results.size(), Specs.size());
  for (std::size_t I = 0; I < Results.size(); ++I) {
    EXPECT_TRUE(Results[I].ok());
    EXPECT_EQ(Results[I].Spec, Specs[I]);
    EXPECT_EQ(Results[I].Iterations, 10 + I);
  }
}

TEST(RunMatrix, ConcurrentMatricesShareNoState) {
  // Two callers run the same matrix at once, each counting in a plain
  // variable of its own; under TSan this checks that two runMatrix
  // calls touch no common mutable state.
  const std::vector<ExperimentSpec> Specs = tinySpecs(12);
  std::size_t Calls[2] = {0, 0};
  std::vector<RunResult> Results[2];
  {
    std::vector<std::jthread> Callers;
    for (std::size_t C = 0; C < 2; ++C)
      Callers.emplace_back([&, C] {
        Results[C] = runMatrix(Specs, 4, [&Calls, C](std::size_t,
                                                     const RunResult &) {
          ++Calls[C];
        });
      });
  }
  const std::string Serial = resultsToJson(runMatrix(Specs, 1));
  for (std::size_t C = 0; C < 2; ++C) {
    EXPECT_EQ(Calls[C], Specs.size());
    EXPECT_EQ(resultsToJson(Results[C]), Serial);
  }
}

TEST(RunMatrix, ResultsComeBackInSpecOrderWhateverTheCompletionOrder) {
  // The first specs are the longest, so with four threads the later,
  // shorter ones tend to finish first; the results still come back in
  // spec order.
  std::vector<ExperimentSpec> Specs = tinySpecs(12);
  for (std::size_t I = 0; I < Specs.size(); ++I)
    Specs[I].Iterations = 10 + 40 * (Specs.size() - I);
  std::vector<std::size_t> Completed;
  const std::vector<RunResult> Results =
      runMatrix(Specs, 4, [&](std::size_t Index, const RunResult &) {
        Completed.push_back(Index);
      });
  ASSERT_EQ(Completed.size(), Specs.size());
  ASSERT_EQ(Results.size(), Specs.size());
  for (std::size_t I = 0; I < Results.size(); ++I) {
    EXPECT_TRUE(Results[I].ok());
    EXPECT_EQ(Results[I].Spec, Specs[I]);
    EXPECT_EQ(Results[I].Iterations, Specs[I].Iterations);
  }
}

TEST(RunMatrix, CallbackFiresAsEachSpecFinishes) {
  // On one thread a spec finishes before the next starts, so the
  // callback sees the specs in order, each with its final result.
  const std::vector<ExperimentSpec> Specs = tinySpecs(4);
  std::vector<std::size_t> Order;
  std::vector<RunResult> Seen;
  const std::vector<RunResult> Results =
      runMatrix(Specs, 1, [&](std::size_t Index, const RunResult &Result) {
        Order.push_back(Index);
        Seen.push_back(Result);
      });
  EXPECT_EQ(Order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(resultsToJson(Seen), resultsToJson(Results));
}

TEST(RunMatrix, ZeroJobsBehavesLikeOne) {
  const std::vector<ExperimentSpec> Specs = tinySpecs(4);
  std::size_t Calls = 0;
  std::set<std::thread::id> Threads;
  const std::vector<RunResult> Results =
      runMatrix(Specs, 0, [&](std::size_t, const RunResult &) {
        ++Calls;
        Threads.insert(std::this_thread::get_id());
      });
  EXPECT_EQ(Calls, Specs.size());
  EXPECT_EQ(Threads.size(), 1u);
  EXPECT_EQ(resultsToJson(Results), resultsToJson(runMatrix(Specs, 1)));
}

TEST(RunMatrix, MoreJobsThanSpecsStartsOneThreadPerSpecAtMost) {
  const std::vector<ExperimentSpec> Specs = tinySpecs(3);
  std::set<std::thread::id> Threads;
  const std::vector<RunResult> Results =
      runMatrix(Specs, 64, [&](std::size_t, const RunResult &) {
        Threads.insert(std::this_thread::get_id());
      });
  EXPECT_LE(Threads.size(), Specs.size());
  EXPECT_EQ(resultsToJson(Results), resultsToJson(runMatrix(Specs, 1)));
}

TEST(RunMatrix, EmptySpecListStartsNothing) {
  std::size_t Calls = 0;
  EXPECT_TRUE(runMatrix({}, 4, [&](std::size_t, const RunResult &) {
                ++Calls;
              }).empty());
  EXPECT_EQ(Calls, 0u);
}

std::vector<ExperimentSpec> smallMatrix() {
  // vpr under every mode, at a fixed tiny iteration count so the whole
  // matrix stays fast even when run three times; one cell with a layout
  // seed so the seed field reaches the JSON too.
  std::vector<ExperimentSpec> Specs;
  const core::RunMode Modes[] = {
      core::RunMode::Original,         core::RunMode::ChecksOnly,
      core::RunMode::Profile,          core::RunMode::ProfileAnalyze,
      core::RunMode::MatchNoPrefetch,  core::RunMode::SequentialPrefetch,
      core::RunMode::DynamicPrefetch};
  for (core::RunMode Mode : Modes) {
    ExperimentSpec Spec;
    Spec.Workload = "vpr";
    Spec.Mode = Mode;
    Spec.Iterations = 300;
    Specs.push_back(Spec);
  }
  Specs.back().Seed = 5;
  return Specs;
}

std::string jsonForJobs(const std::vector<ExperimentSpec> &Specs,
                        unsigned Jobs) {
  return resultsToJson(runMatrix(Specs, Jobs));
}

TEST(RunMatrix, AggregateJsonIsByteIdenticalAcrossJobCounts) {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  const std::string Json1 = jsonForJobs(Specs, 1);
  const std::string Json2 = jsonForJobs(Specs, 2);
  const std::string Json8 = jsonForJobs(Specs, 8);
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json8);
}

TEST(RunMatrix, FailedShardKeepsOrderAndDoesNotPoisonNeighbours) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Good;
  Good.Workload = "vpr";
  Good.Iterations = 200;
  ExperimentSpec Bad = Good;
  Bad.Workload = "no-such-workload";
  Specs.push_back(Good);
  Specs.push_back(Bad);
  Specs.push_back(Good);

  const std::vector<RunResult> Results = runMatrix(Specs, 2);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].ok());
  EXPECT_EQ(Results[1].State, RunResult::Status::Error);
  EXPECT_FALSE(Results[1].Error.empty());
  EXPECT_EQ(Results[1].Spec.Workload, "no-such-workload");
  EXPECT_TRUE(Results[2].ok());
  // The two good cells are the same experiment: identical cycles.
  EXPECT_EQ(Results[0].Cycles, Results[2].Cycles);
}

//===----------------------------------------------------------------------===//
// JSON writer
//===----------------------------------------------------------------------===//

TEST(ResultsJson, OverheadIsRelativeToTheOriginalBaseline) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Base;
  Base.Workload = "vpr";
  Base.Mode = core::RunMode::Original;
  Base.Iterations = 300;
  ExperimentSpec Opt = Base;
  Opt.Mode = core::RunMode::DynamicPrefetch;
  Specs.push_back(Base);
  Specs.push_back(Opt);

  const std::vector<RunResult> Results = runMatrix(Specs, 1);
  const std::string Json = resultsToJson(Results);
  // The baseline's overhead over itself is exactly zero.
  EXPECT_NE(Json.find("\"overhead_pct\": 0.0000"), std::string::npos);
  EXPECT_NE(Json.find("\"schema\": \"hds-matrix-results-v1\""),
            std::string::npos);
  // Deterministic output carries no timing object unless asked for.
  EXPECT_EQ(Json.find("\"timing\""), std::string::npos);
}

TEST(ResultsJson, TimingObjectOnlyAppearsOnRequest) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Spec;
  Spec.Workload = "vpr";
  Spec.Iterations = 100;
  Specs.push_back(Spec);
  const std::vector<RunResult> Results = runMatrix(Specs, 1);

  TimingInfo Timing;
  Timing.IncludeWall = true;
  Timing.WallMillis = 1234;
  Timing.Jobs = 8;
  const std::string Json = resultsToJson(Results, Timing);
  EXPECT_NE(Json.find("\"timing\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_ms\": 1234"), std::string::npos);
  EXPECT_NE(Json.find("\"jobs\": 8"), std::string::npos);
}

TEST(ResultsJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01"
                                   "b")),
            "a\\u0001b");
}

TEST(ResultsJson, LayoutSeedChangesTheRunButNotItsShape) {
  // Seeded runs perturb the heap base; the run still completes and the
  // result echoes the seed so trajectory files can group by it.
  ExperimentSpec Seeded;
  Seeded.Workload = "vpr";
  Seeded.Iterations = 200;
  Seeded.Seed = 3;
  const RunResult Result = runExperiment(Seeded);
  ASSERT_TRUE(Result.ok());
  EXPECT_EQ(Result.Spec.Seed, 3u);
  const std::string Json = resultsToJson({Result});
  EXPECT_NE(Json.find("\"seed\": 3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Results diffing (the --diff surface)
//===----------------------------------------------------------------------===//

TEST(ResultsDiff, IdenticalDocumentsCompareClean) {
  const std::string Json = jsonForJobs(smallMatrix(), 2);
  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(Json, Json, DiffOptions(), Report, Error))
      << Error;
  EXPECT_FALSE(Report.regressed());
  EXPECT_EQ(Report.CellsCompared, smallMatrix().size());
}

TEST(ResultsDiff, CycleGrowthIsARegressionAndThresholdSilencesIt) {
  std::vector<ExperimentSpec> Specs;
  ExperimentSpec Spec;
  Spec.Workload = "vpr";
  Spec.Iterations = 200;
  Specs.push_back(Spec);
  std::vector<RunResult> Results = runMatrix(Specs, 1);
  const std::string Before = resultsToJson(Results);
  Results[0].Cycles += Results[0].Cycles / 100 + 1; // ~1% slower
  const std::string After = resultsToJson(Results);

  DiffReport Exact;
  std::string Error;
  ASSERT_TRUE(diffResults(Before, After, DiffOptions(), Exact, Error))
      << Error;
  EXPECT_TRUE(Exact.regressed());
  ASSERT_EQ(Exact.Regressions.size(), 1u);
  EXPECT_NE(Exact.Regressions[0].Detail.find("cycles"), std::string::npos);

  DiffOptions Loose;
  Loose.ThresholdPct = 50.0;
  DiffReport Tolerant;
  ASSERT_TRUE(diffResults(Before, After, Loose, Tolerant, Error)) << Error;
  EXPECT_TRUE(Tolerant.Regressions.empty());
}

TEST(ResultsDiff, StatusFlipAndMissingCellsAreReported) {
  std::vector<ExperimentSpec> Specs = smallMatrix();
  std::vector<RunResult> Results = runMatrix(Specs, 2);
  const std::string Before = resultsToJson(Results);

  Results[0].State = RunResult::Status::Error;
  Results[0].Error = "synthetic failure";
  Results.pop_back();
  const std::string After = resultsToJson(Results);

  DiffReport Report;
  std::string Error;
  ASSERT_TRUE(diffResults(Before, After, DiffOptions(), Report, Error))
      << Error;
  EXPECT_TRUE(Report.regressed());
  EXPECT_EQ(Report.StatusChanges.size(), 1u);
  EXPECT_EQ(Report.OnlyInA.size(), 1u);
  EXPECT_TRUE(Report.OnlyInB.empty());
}

TEST(ResultsDiff, RejectsForeignDocuments) {
  DiffReport Report;
  std::string Error;
  EXPECT_FALSE(diffResults("{]", "{}", DiffOptions(), Report, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(diffResults("{\"schema\": \"something-else\"}", "{}",
                           DiffOptions(), Report, Error));
}

/// A two-cell document: small enough to truncate and mutate byte by
/// byte, and it carries an Original baseline for overhead_pct.
std::string twoCellJson() {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  return jsonForJobs({Specs.front(), Specs.back()}, 1);
}

TEST(ResultsDiff, CorruptDocumentsAreRejectedWithAReason) {
  const std::string Doc = twoCellJson();
  auto Replace = [&Doc](const std::string &From, const std::string &To,
                        std::string Out = std::string()) {
    if (Out.empty())
      Out = Doc;
    const std::size_t At = Out.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    return At == std::string::npos ? Out : Out.replace(At, From.size(), To);
  };
  // The first cell's "cycles": N member, without its comma.
  const std::size_t CyclesAt = Doc.find("\"cycles\": ");
  const std::string Cycles =
      Doc.substr(CyclesAt, Doc.find(',', CyclesAt) - CyclesAt);
  struct Case {
    const char *Name;
    std::string Json;
    const char *Reason;
  };
  const std::vector<Case> Cases = {
      {"wrong schema", Replace("hds-matrix-results-v1", "hds-other-v1"),
       "not an hds-matrix-results-v1 document"},
      {"spec_count missing", Replace("\"spec_count\": 2,\n", ""),
       "missing or non-integer spec_count"},
      {"spec_count too large",
       Replace("\"spec_count\": 2", "\"spec_count\": 3"),
       "spec_count 3 does not match 2 results"},
      {"spec_count too small",
       Replace("\"spec_count\": 2", "\"spec_count\": 1"),
       "spec_count 1 does not match 2 results"},
      {"negative counter", Replace(Cycles, "\"cycles\": -5"),
       "integer '-5' is not an unsigned 64-bit value"},
      {"overflowing counter",
       Replace("\"accesses\": ", "\"accesses\": 99999999999999999999"),
       "is not an unsigned 64-bit value"},
      {"duplicate member", Replace(Cycles, "\"cycles\": 1, " + Cycles),
       "duplicate member 'cycles'"},
      {"non-object cell",
       Replace("\"results\": [", "\"results\": [1, ",
               Replace("\"spec_count\": 2", "\"spec_count\": 3")),
       "non-object cell"},
      {"not an object", "[]", "not an hds-matrix-results-v1 document"},
      {"empty input", "", "unexpected end of input"},
  };
  for (const Case &C : Cases) {
    // Rejected whichever side of the comparison it is on.
    for (const bool CorruptFirst : {false, true}) {
      DiffReport Report;
      std::string Error;
      EXPECT_FALSE(CorruptFirst
                       ? diffResults(C.Json, Doc, DiffOptions(), Report, Error)
                       : diffResults(Doc, C.Json, DiffOptions(), Report, Error))
          << C.Name;
      EXPECT_NE(Error.find(C.Reason), std::string::npos)
          << C.Name << ": " << Error;
    }
  }
}

TEST(ResultsDiff, EveryTruncatedDocumentIsRejected) {
  const std::string Doc = twoCellJson();
  ASSERT_EQ(Doc.back(), '\n');
  DiffReport Report;
  std::string Error;
  // Dropping only the trailing newline leaves the whole JSON value.
  ASSERT_TRUE(diffResults(Doc.substr(0, Doc.size() - 1), Doc, DiffOptions(),
                          Report, Error))
      << Error;
  for (std::size_t Len = 0; Len + 1 < Doc.size(); ++Len) {
    Error.clear();
    EXPECT_FALSE(
        diffResults(Doc.substr(0, Len), Doc, DiffOptions(), Report, Error))
        << "prefix of " << Len << " bytes read";
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ResultsDiff, SeededByteMutationsNeverCrashTheReader) {
  // Every accepted mutation must at least render a verdict; ASan is
  // watching the rejected ones.
  const std::string Doc = twoCellJson();
  Rng Random(0x243F6A8885A308D3ull);
  for (int Round = 0; Round < 2000; ++Round) {
    std::string Mutated = Doc;
    for (int Flip = 0; Flip < 1 + Round % 4; ++Flip)
      Mutated[Random.nextBelow(Mutated.size())] =
          static_cast<char>(Random.nextBelow(256));
    DiffReport Report;
    std::string Error;
    if (diffResults(Mutated, Doc, DiffOptions(), Report, Error))
      EXPECT_NE(Report.render("a", "b").find("verdict: "), std::string::npos);
    else
      EXPECT_FALSE(Error.empty());
  }
}

TEST(ResultsDiff, DocumentsWithoutDuelPfPairWithCurrentOnes) {
  // The dueling selector is gone: every cell carries "duel_pf": false,
  // and documents from before the field existed still pair cell for
  // cell with current ones.
  const std::string Doc = twoCellJson();
  const std::string False = "\"duel_pf\": false";
  ASSERT_NE(Doc.find(False), std::string::npos);
  DiffReport Report;
  std::string Error;

  // Drop every "duel_pf" line (the field is never a cell's last).
  std::string Absent = Doc;
  const std::string Line = False + ",\n";
  for (std::size_t At; (At = Absent.find(Line)) != std::string::npos;) {
    const std::size_t LineStart = Absent.rfind('\n', At) + 1;
    Absent.erase(LineStart, At + Line.size() - LineStart);
  }
  ASSERT_EQ(Absent.find("duel_pf"), std::string::npos);
  ASSERT_TRUE(diffResults(Absent, Doc, DiffOptions(), Report, Error)) << Error;
  EXPECT_FALSE(Report.regressed());
  EXPECT_EQ(Report.CellsCompared, 2u);

  // A cell that claims the selector is a different cell.
  std::string True = Doc;
  True.replace(True.find(False), False.size(), "\"duel_pf\": true");
  DiffReport Changed;
  ASSERT_TRUE(diffResults(Doc, True, DiffOptions(), Changed, Error)) << Error;
  EXPECT_EQ(Changed.OnlyInA.size(), 1u);
  EXPECT_EQ(Changed.OnlyInB.size(), 1u);
}

} // namespace
