//===- tests/engine_test.cpp - Parallel experiment engine tests ------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Tests for src/engine: the JobScheduler worker pool, the spec-order
// ResultSink merge, and the determinism contract of runMatrix — the
// aggregate JSON must be byte-identical for any job count and for any
// shard split merged back, failed cells must not corrupt or reorder the
// merged output, and cancellation must leave no leaked threads (this
// binary also runs under TSan in CI) — plus the results JSON reader
// behind --diff and --merge, which must reject every truncated or
// malformed document (this binary also runs under ASan).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "engine/JobScheduler.h"
#include "engine/ResultSink.h"
#include "engine/ResultsDiff.h"
#include "engine/ResultsJson.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// JobScheduler
//===----------------------------------------------------------------------===//

TEST(JobScheduler, RunsEverySubmittedJob) {
  std::atomic<int> Counter{0};
  {
    JobScheduler Pool(4);
    EXPECT_EQ(Pool.threadCount(), 4u);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Pool.executed(), 64u);
    EXPECT_EQ(Pool.dropped(), 0u);
  }
  EXPECT_EQ(Counter.load(), 64);
}

TEST(JobScheduler, ZeroThreadsClampsToOne) {
  JobScheduler Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::atomic<int> Counter{0};
  Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 1);
}

TEST(JobScheduler, WaitWithNoJobsReturnsImmediately) {
  JobScheduler Pool(2);
  Pool.wait();
  EXPECT_EQ(Pool.executed(), 0u);
}

TEST(JobScheduler, CancelDropsQueuedJobsButFinishesRunningOnes) {
  std::binary_semaphore JobStarted{0};
  std::binary_semaphore ReleaseJob{0};
  std::atomic<int> Ran{0};

  JobScheduler Pool(1);
  // First job occupies the only worker until we release it.
  Pool.submit([&] {
    JobStarted.release();
    ReleaseJob.acquire();
    Ran.fetch_add(1);
  });
  for (int I = 0; I < 9; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });

  JobStarted.acquire(); // the worker is now inside job 0
  Pool.cancel();        // drops the 9 queued jobs
  ReleaseJob.release();
  Pool.wait();

  EXPECT_EQ(Ran.load(), 1);
  EXPECT_EQ(Pool.executed(), 1u);
  EXPECT_EQ(Pool.dropped(), 9u);
}

TEST(JobScheduler, DestructorJoinsWithQueuedJobs) {
  // Destroying the pool while jobs are still queued must not leak
  // threads or deadlock (TSan/ASan in CI would flag either).
  std::atomic<int> Ran{0};
  {
    JobScheduler Pool(2);
    for (int I = 0; I < 8; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No wait(): the destructor drops what has not started and joins.
  }
  EXPECT_LE(Ran.load(), 8);
}

TEST(JobScheduler, CountersAndCancelAreSafeWhileWorkersRun) {
  // Two submitters, a canceller and a counter reader race the workers.
  // Every job is either executed or dropped, exactly once; under TSan
  // this also checks that each member access holds the pool mutex.
  constexpr std::size_t PerSubmitter = 200;
  std::atomic<std::size_t> Ran{0};
  std::atomic<bool> Done{false};
  JobScheduler Pool(4);
  std::jthread Reader([&] {
    while (!Done.load())
      (void)(Pool.executed() + Pool.dropped());
  });
  {
    std::vector<std::jthread> Threads;
    for (int S = 0; S < 2; ++S)
      Threads.emplace_back([&] {
        for (std::size_t I = 0; I < PerSubmitter; ++I)
          Pool.submit([&Ran] { Ran.fetch_add(1); });
      });
    Threads.emplace_back([&] {
      for (int I = 0; I < 100; ++I) {
        Pool.cancel();
        std::this_thread::yield();
      }
    });
  }
  Pool.wait();
  Done = true;
  Reader.join();
  EXPECT_EQ(Pool.executed(), Ran.load());
  EXPECT_EQ(Pool.executed() + Pool.dropped(), 2 * PerSubmitter);
}

//===----------------------------------------------------------------------===//
// ResultSink
//===----------------------------------------------------------------------===//

RunResult okResult(const std::string &Workload, uint64_t Cycles) {
  RunResult Result;
  Result.Spec.Workload = Workload;
  Result.State = RunResult::Status::Ok;
  Result.Cycles = Cycles;
  return Result;
}

TEST(ResultSink, MergesOutOfOrderDeliveriesInSpecOrder) {
  ResultSink Sink(3);
  Sink.deliver(2, okResult("c", 30));
  Sink.deliver(0, okResult("a", 10));
  Sink.deliver(1, okResult("b", 20));
  EXPECT_EQ(Sink.completed(), 3u);

  const std::vector<RunResult> Results = Sink.take();
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Spec.Workload, "a");
  EXPECT_EQ(Results[1].Spec.Workload, "b");
  EXPECT_EQ(Results[2].Spec.Workload, "c");
  EXPECT_EQ(Results[1].Cycles, 20u);
}

TEST(ResultSink, CallbackFiresInCompletionOrder) {
  ResultSink Sink(2);
  std::vector<std::size_t> Order;
  Sink.setCallback([&Order](std::size_t Index, const RunResult &) {
    Order.push_back(Index);
  });
  Sink.deliver(1, okResult("b", 2));
  Sink.deliver(0, okResult("a", 1));
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1u);
  EXPECT_EQ(Order[1], 0u);
}

TEST(ResultSink, UnfilledSlotsComeBackCancelled) {
  ResultSink Sink(2);
  Sink.deliver(0, okResult("a", 1));
  const std::vector<RunResult> Results = Sink.take();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].ok());
  EXPECT_EQ(Results[1].State, RunResult::Status::Cancelled);
}

TEST(ResultSink, ConcurrentDeliveriesCallbackAndPollingAreSerialized) {
  // Four workers deliver disjoint slots, half before and half after
  // another thread installs the callback, while a poller reads
  // completed() through take().  The relaxed flags only order the
  // threads in time, so every happens-before edge must come from the
  // sink's mutex: under TSan this checks that each member access holds
  // it, and the callback's plain counter relies on deliver's lock.
  constexpr std::size_t N = 64;
  constexpr std::size_t Workers = 4;
  ResultSink Sink(N);
  std::size_t Calls = 0;
  std::atomic<std::size_t> Delivered{0};
  std::atomic<bool> Installed{false};
  std::atomic<bool> Done{false};
  std::jthread Poller([&] {
    while (!Done.load())
      (void)Sink.completed();
  });
  {
    std::vector<std::jthread> Threads;
    for (std::size_t W = 0; W < Workers; ++W)
      Threads.emplace_back([&, W] {
        for (std::size_t I = W; I < N; I += Workers) {
          if (I == W + N / 2)
            while (!Installed.load(std::memory_order_relaxed))
              std::this_thread::yield();
          Sink.deliver(I, okResult("w", I));
          Delivered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    Threads.emplace_back([&] {
      while (Delivered.load(std::memory_order_relaxed) < N / 2)
        std::this_thread::yield();
      Sink.setCallback([&Calls](std::size_t, const RunResult &) { ++Calls; });
      Installed.store(true, std::memory_order_relaxed);
    });
  }
  const std::vector<RunResult> Results = Sink.take();
  Done = true;
  Poller.join();
  EXPECT_EQ(Calls, N / 2);
  ASSERT_EQ(Results.size(), N);
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_EQ(Results[I].Cycles, I);
}

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
  for (const char *Bad : {"seed=-1", "seed=+1", "seed=1x",
                          "seed=99999999999999999999", "shard=3/3",
                          "shard=0/0", "shard=1", "shard=-1/3", "shard=1/3x"}) {
    Error.clear();
    EXPECT_FALSE(applyFilter(Specs, Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
    EXPECT_EQ(Specs.size(), Before) << Bad;
  }
}

TEST(ExperimentSpec, ShardsPartitionTheFilteredListWhateverTheFlagOrder) {
  std::vector<ExperimentSpec> Dynpref = defaultMatrix();
  ASSERT_TRUE(applyFilter(Dynpref, "mode=dynpref"));
  std::vector<ExperimentSpec> Union;
  for (uint64_t I = 0; I < 3; ++I) {
    // The shard filter comes first on the command line, yet positions
    // count in the list the mode filter left.
    std::vector<ExperimentSpec> Shard = defaultMatrix();
    std::string Tag;
    ASSERT_TRUE(applyFilters(
        Shard, {"shard=" + std::to_string(I) + "/3", "mode=dynpref"}, Tag));
    EXPECT_EQ(Tag, std::to_string(I) + "/3");
    for (std::size_t K = 0; K < Shard.size(); ++K)
      EXPECT_EQ(Shard[K], Dynpref[I + 3 * K]);
    Union.insert(Union.end(), Shard.begin(), Shard.end());
  }
  EXPECT_EQ(Union.size(), Dynpref.size());

  std::vector<ExperimentSpec> Plain = defaultMatrix();
  std::string Tag = "stale";
  ASSERT_TRUE(applyFilters(Plain, {"mode=dynpref"}, Tag));
  EXPECT_EQ(Tag, "");
  EXPECT_EQ(Plain, Dynpref);

  std::vector<ExperimentSpec> Twice = defaultMatrix();
  std::string Error;
  EXPECT_FALSE(applyFilters(Twice, {"shard=0/2", "shard=1/2"}, Tag, &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Twice.size(), defaultMatrix().size());
}

//===----------------------------------------------------------------------===//
// runMatrix determinism and failure isolation
//===----------------------------------------------------------------------===//

std::vector<ExperimentSpec> smallMatrix() {
  // vpr under every mode, at a fixed tiny iteration count so the whole
  // matrix stays fast even when run three times; one cell with a layout
  // seed so the seed field round-trips through the JSON reader too.
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
  // The two good shards are the same experiment: identical cycles.
  EXPECT_EQ(Results[0].Cycles, Results[2].Cycles);
}

TEST(RunMatrix, CancellationKeepsSpecOrderAndJoinsCleanly) {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  std::atomic<bool> Cancel{false};

  // One job: deliveries happen in spec order.
  const std::vector<RunResult> Results =
      runMatrix(Specs, 1, &Cancel, [&Cancel](std::size_t, const RunResult &) {
        Cancel.store(true); // request cancellation after the first delivery
      });

  ASSERT_EQ(Results.size(), Specs.size());
  EXPECT_TRUE(Results[0].ok());
  std::size_t Cancelled = 0;
  for (std::size_t I = 0; I < Results.size(); ++I) {
    // Every slot still carries its own spec, run or not.
    EXPECT_EQ(Results[I].Spec.Workload, Specs[I].Workload);
    EXPECT_EQ(Results[I].Spec.Mode, Specs[I].Mode);
    if (Results[I].State == RunResult::Status::Cancelled)
      ++Cancelled;
  }
  EXPECT_GE(Cancelled, 1u);
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

//===----------------------------------------------------------------------===//
// Shard merge (the --merge surface)
//===----------------------------------------------------------------------===//

/// Runs the shard=Index/Count slice of \p Specs as its own matrix and
/// returns the tagged document a shard process would write.
std::string shardJson(const std::vector<ExperimentSpec> &Specs,
                      uint64_t Index, uint64_t Count) {
  std::vector<ExperimentSpec> Shard = Specs;
  std::string Tag;
  EXPECT_TRUE(applyFilters(
      Shard, {"shard=" + std::to_string(Index) + "/" + std::to_string(Count)},
      Tag));
  return resultsToJson(runMatrix(Shard, 1), TimingInfo(), Tag);
}

ResultsDocument decodeOrDie(const std::string &Json) {
  ResultsDocument Doc;
  std::string Error;
  EXPECT_TRUE(decodeResults(Json, Doc, Error)) << Error;
  return Doc;
}

TEST(ResultsMerge, ShardedRunsMergeToTheUnshardedBytes) {
  // Includes the Original baseline in shard 0 only, so the merged
  // overhead_pct figures must be recomputed, not copied; n = 8 exceeds
  // the 7 cells and leaves shard 7 empty.
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  const std::string Whole = jsonForJobs(Specs, 2);
  for (uint64_t Count : {1u, 3u, 8u}) {
    std::vector<ResultsDocument> Shards;
    // Merge order is irrelevant: hand the shards over last to first.
    for (uint64_t Index = Count; Index-- > 0;)
      Shards.push_back(decodeOrDie(shardJson(Specs, Index, Count)));
    ResultsDocument Merged;
    std::string Error;
    ASSERT_TRUE(mergeShards(Shards, Merged, Error)) << Error;
    EXPECT_EQ(resultsToJson(Merged.Results), Whole) << "n = " << Count;
  }
}

TEST(ResultsMerge, ErrorAndCancelledCellsRoundTrip) {
  std::vector<RunResult> Results = runMatrix(smallMatrix(), 2);
  Results[1].State = RunResult::Status::Error;
  Results[1].Error = "synthetic \"quoted\" failure\n";
  Results[2] = RunResult();
  Results[2].Spec = smallMatrix()[2];
  const std::string Json = resultsToJson(Results);
  EXPECT_EQ(resultsToJson(decodeOrDie(Json).Results), Json);
}

TEST(ResultsMerge, EveryTruncatedDocumentIsRejected) {
  const std::string Doc = shardJson(smallMatrix(), 2, 3);
  ASSERT_EQ(Doc.back(), '\n');
  ResultsDocument Out;
  std::string Error;
  // Dropping only the trailing newline leaves the whole JSON value.
  ASSERT_TRUE(decodeResults(Doc.substr(0, Doc.size() - 1), Out, Error))
      << Error;
  for (std::size_t Len = 0; Len + 1 < Doc.size(); ++Len) {
    Error.clear();
    EXPECT_FALSE(decodeResults(Doc.substr(0, Len), Out, Error))
        << "prefix of " << Len << " bytes decoded";
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ResultsMerge, MalformedDocumentsAreRejectedWithAReason) {
  const std::string Doc = shardJson(smallMatrix(), 0, 3);
  auto Replace = [&Doc](const std::string &From, const std::string &To) {
    std::string Out = Doc;
    const std::size_t At = Out.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    return At == std::string::npos ? Out : Out.replace(At, From.size(), To);
  };
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"wrong schema", Replace("hds-matrix-results-v1", "hds-other-v1")},
      {"bad shard tag", Replace("\"shard\": \"0/3\"", "\"shard\": \"3/3\"")},
      {"spec_count", Replace("\"spec_count\": 3", "\"spec_count\": 4")},
      {"negative counter", Replace("\"cycles\": ", "\"cycles\": -")},
      {"fractional counter",
       Replace("\"accesses\": ", "\"accesses\": 0.5")},
      {"overflowing counter",
       Replace("\"accesses\": ", "\"accesses\": 99999999999999999999")},
      {"mistyped counter",
       Replace("\"iterations\": ", "\"iterations\": \"1\"")},
      {"missing metric", Replace("\"hits\": ", "\"hitz\": ")},
      {"unknown field",
       Replace("\"status\": ", "\"colour\": 1, \"status\": ")},
      {"duplicate field", Replace("\"seed\": ", "\"seed\": 1, \"seed\": ")},
      {"unknown mode",
       Replace("\"mode\": \"original\"", "\"mode\": \"spicy\"")},
      {"mode_name mismatch",
       Replace("\"mode_name\": \"", "\"mode_name\": \"x")},
      {"unknown status", Replace("\"status\": \"ok\"", "\"status\": \"meh\"")},
      {"non-object cell", Replace("\"results\": [", "\"results\": [1, ")},
      {"not an object", "[]"},
      {"empty input", ""},
  };
  for (const auto &[Name, Json] : Cases) {
    ResultsDocument Out;
    std::string Error;
    EXPECT_FALSE(decodeResults(Json, Out, Error)) << Name;
    EXPECT_FALSE(Error.empty()) << Name;
  }
}

TEST(ResultsMerge, DuelSelectorCellsAreRejectedByName) {
  // The dueling selector is gone: every cell carries "duel_pf": false,
  // documents without the field still decode, and a true one is refused.
  const std::string Doc = shardJson(smallMatrix(), 0, 3);
  const std::string False = "\"duel_pf\": false";
  ASSERT_NE(Doc.find(False), std::string::npos);
  ResultsDocument Out;
  std::string Error;

  // Drop every "duel_pf" line (the field is never a cell's last).
  std::string Absent = Doc;
  const std::string Line = False + ",\n";
  for (std::size_t At; (At = Absent.find(Line)) != std::string::npos;) {
    const std::size_t LineStart = Absent.rfind('\n', At) + 1;
    Absent.erase(LineStart, At + Line.size() - LineStart);
  }
  ASSERT_EQ(Absent.find("duel_pf"), std::string::npos);
  ASSERT_TRUE(decodeResults(Absent, Out, Error)) << Error;
  EXPECT_EQ(resultsToJson(Out.Results, TimingInfo(), "0/3"), Doc);

  std::string True = Doc;
  True.replace(True.find(False), False.size(), "\"duel_pf\": true");
  Error.clear();
  EXPECT_FALSE(decodeResults(True, Out, Error));
  EXPECT_NE(Error.find("dueling selector was removed"), std::string::npos)
      << Error;
}

TEST(ResultsMerge, SeededByteMutationsNeverCrashTheDecoder) {
  // Every accepted mutation must at least re-render; ASan is watching
  // the rejected ones.
  const std::string Doc = shardJson(smallMatrix(), 1, 3);
  Rng Random(0x243F6A8885A308D3ull);
  for (int Round = 0; Round < 2000; ++Round) {
    std::string Mutated = Doc;
    for (int Flip = 0; Flip < 1 + Round % 4; ++Flip)
      Mutated[Random.nextBelow(Mutated.size())] =
          static_cast<char>(Random.nextBelow(256));
    ResultsDocument Out;
    std::string Error;
    if (decodeResults(Mutated, Out, Error))
      EXPECT_FALSE(resultsToJson(Out.Results).empty());
    else
      EXPECT_FALSE(Error.empty());
  }
}

TEST(ResultsMerge, InconsistentShardSetsAreRejected) {
  const std::vector<ExperimentSpec> Specs = smallMatrix();
  const ResultsDocument S0 = decodeOrDie(shardJson(Specs, 0, 3));
  const ResultsDocument S1 = decodeOrDie(shardJson(Specs, 1, 3));
  const ResultsDocument S2 = decodeOrDie(shardJson(Specs, 2, 3));
  const ResultsDocument Half = decodeOrDie(shardJson(Specs, 1, 2));
  ResultsDocument Short = S2;
  Short.Results.pop_back();

  const std::vector<std::pair<std::vector<ResultsDocument>, std::string>>
      Cases = {
          {{}, "no documents"},
          {{S0, S1, S1}, "given twice"},
          {{S0, S2}, "shard 1/3 is missing"},
          {{S0, S1, Half}, "different n"},
          {{S0, S1, Short}, "holds"},
      };
  for (const auto &[Docs, Reason] : Cases) {
    ResultsDocument Merged;
    std::string Error;
    EXPECT_FALSE(mergeShards(Docs, Merged, Error)) << Reason;
    EXPECT_NE(Error.find(Reason), std::string::npos) << Error;
  }
}

} // namespace
