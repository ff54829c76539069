//===- bench/BenchHarness.h - Shared figure-bench plumbing -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the benches that are not hds_matrix views, a thin
/// adapter over the experiment engine (src/engine): one benchmark under
/// one RunMode is one ExperimentSpec, run through engine::runExperiment.
/// "% overhead" follows the paper's Figures 11/12: normalized to the
/// execution time of the original unoptimized program; positive values
/// indicate performance degradation and negative values indicate
/// speedup.  The views (tools/MatrixViews.cpp) use overheadPercent too.
///
/// All benches accept an optional scale factor as argv[1] (default 1.0)
/// multiplying each benchmark's iteration count — useful for quick local
/// runs (e.g. `ablation_markov 0.25`).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_BENCH_BENCHHARNESS_H
#define HDS_BENCH_BENCHHARNESS_H

#include "core/Runtime.h"
#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "workloads/Workload.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace hds {
namespace bench {

/// Outcome of one benchmark run (the engine's result record; benches use
/// the Cycles/Stats/Memory/L1/L2 fields).
using RunResult = engine::RunResult;

/// Runs \p WorkloadName under \p Mode for its default iteration count
/// scaled by \p Scale.  \p Tweak (optional) may adjust the configuration
/// before the runtime is constructed.
inline RunResult
runWorkload(const std::string &WorkloadName, core::RunMode Mode,
            double Scale = 1.0,
            void (*Tweak)(core::OptimizerConfig &) = nullptr) {
  engine::ExperimentSpec Spec;
  Spec.Workload = WorkloadName;
  Spec.Mode = Mode;
  Spec.Scale = Scale;
  RunResult Result = engine::runExperiment(Spec, Tweak);
  assert(Result.ok() && "unknown workload");
  return Result;
}

/// % overhead of \p Cycles relative to \p BaselineCycles (negative =
/// speedup), as plotted in Figures 11 and 12.
inline double overheadPercent(uint64_t Cycles, uint64_t BaselineCycles) {
  return 100.0 * (static_cast<double>(Cycles) -
                  static_cast<double>(BaselineCycles)) /
         static_cast<double>(BaselineCycles);
}

/// Parses the optional argv[1] scale factor.  Rejects anything that is
/// not a finite number > 0 — a garbled scale would silently run every
/// benchmark at nonsense iteration counts.
inline double parseScale(int Argc, char **Argv) {
  if (Argc < 2)
    return 1.0;
  char *End = nullptr;
  const double Scale = std::strtod(Argv[1], &End);
  if (End == Argv[1] || *End != '\0' || !std::isfinite(Scale) ||
      Scale <= 0.0) {
    std::fprintf(stderr,
                 "%s: invalid scale '%s' (expected a finite number > 0)\n",
                 Argv[0], Argv[1]);
    std::exit(1);
  }
  return Scale;
}

} // namespace bench
} // namespace hds

#endif // HDS_BENCH_BENCHHARNESS_H
