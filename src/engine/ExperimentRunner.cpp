//===- engine/ExperimentRunner.cpp - Run one experiment spec --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentRunner.h"

#include "core/Runtime.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

using namespace hds;
using namespace hds::engine;

std::optional<uint64_t> hds::engine::scaledIterations(uint64_t Default,
                                                      double Scale) {
  const double Product = static_cast<double>(Default) * Scale;
  // 2^64: the first double that a uint64_t cannot hold.  The negated
  // comparison also rejects NaN.
  if (!(Product >= 0.0 && Product < 18446744073709551616.0))
    return std::nullopt;
  return std::max<uint64_t>(static_cast<uint64_t>(Product), 1);
}

namespace {

std::string iterationOverflow(const ExperimentSpec &Spec) {
  return formatString("scale %g gives workload '%s' more iterations than "
                      "fit in 64 bits",
                      Spec.Scale, Spec.Workload.c_str());
}

} // namespace

bool hds::engine::checkIterations(std::span<const ExperimentSpec> Specs,
                                  std::string *Error) {
  for (const ExperimentSpec &Spec : Specs) {
    if (Spec.Iterations != 0)
      continue;
    // An unknown workload is runExperiment's error to report.
    const std::unique_ptr<workloads::Workload> Bench =
        workloads::createWorkload(Spec.Workload);
    if (Bench && !scaledIterations(Bench->defaultIterations(), Spec.Scale)) {
      *Error = iterationOverflow(Spec);
      return false;
    }
  }
  return true;
}

RunResult hds::engine::runExperiment(const ExperimentSpec &Spec,
                                     ConfigTweak Tweak) {
  RunResult Result;
  Result.Spec = Spec;

  std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(Spec.Workload);
  if (!Bench) {
    Result.State = RunResult::Status::Error;
    Result.Error = "unknown workload '" + Spec.Workload + "'";
    return Result;
  }

  const std::optional<uint64_t> Iterations =
      Spec.Iterations != 0
          ? Spec.Iterations
          : scaledIterations(Bench->defaultIterations(), Spec.Scale);
  if (!Iterations) {
    Result.State = RunResult::Status::Error;
    Result.Error = iterationOverflow(Spec);
    return Result;
  }

  core::OptimizerConfig Config = Spec.materializeConfig();
  if (Tweak)
    Tweak(Config);

  core::Runtime Rt(Config);

  // Layout seed: shift the heap base deterministically so every
  // subsequent allocation lands on different cache blocks/sets.  The pad
  // stays below one L2 way so the working set itself is unchanged.
  if (Spec.Seed != 0) {
    Rng LayoutRng(Spec.Seed);
    Rt.padHeap(LayoutRng.nextInRange(8, 8192) & ~uint64_t{7});
  }

  Bench->setup(Rt);

  Bench->run(Rt, *Iterations);

  Result.State = RunResult::Status::Ok;
  Result.Iterations = *Iterations;
  Result.Cycles = Rt.cycles();
  Result.Stats = Rt.stats();
  Result.Memory = Rt.memory().stats();
  Result.L1 = Rt.memory().l1().stats();
  Result.L2 = Rt.memory().l2().stats();
  Result.Breakdown = Rt.cycleBreakdown();
  Result.Streams = Rt.streamPrefetchStats();
  Result.Prefetchers = Rt.prefetcherStats();
  return Result;
}

std::vector<RunResult>
hds::engine::runMatrix(std::span<const ExperimentSpec> Specs, unsigned Jobs,
                       OnResult Callback) {
  // Each spec has its own slot, so the threads never write the same
  // element and the results come back in spec order.
  std::vector<RunResult> Results(Specs.size());
  std::atomic<std::size_t> Next{0};
  std::mutex CallbackMutex;
  const auto Work = [&] {
    for (;;) {
      const std::size_t Index = Next.fetch_add(1);
      if (Index >= Specs.size())
        return;
      Results[Index] = runExperiment(Specs[Index]);
      if (Callback) {
        std::lock_guard<std::mutex> Lock(CallbackMutex);
        Callback(Index, Results[Index]);
      }
    }
  };
  const std::size_t Threads =
      std::min<std::size_t>(std::max(Jobs, 1u), Specs.size());
  {
    std::vector<std::jthread> Workers;
    for (std::size_t T = 0; T < Threads; ++T)
      Workers.emplace_back(Work);
  } // joined here
  return Results;
}
