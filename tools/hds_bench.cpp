//===- tools/hds_bench.cpp - Wall-clock benchmark harness ------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
//
// Measures how fast the simulator itself runs: wall-clock accesses/sec
// for every cell of the matrix (by default the 42 workload × mode cells
// and the 18 stride, Markov and pair cells), recorded alongside the
// simulated cycle counts in one hds-matrix-results-v1 document with
// per-result "timing" objects (the BENCH_matrix.json shape).  The
// simulated metrics in that document stay byte-deterministic; only the
// timing gauges vary run to run, and `hds_matrix --diff` ignores them
// unless asked to gate with --wall-threshold.  See docs/benchmarks.md.
//
// Cells run sequentially in one thread — this harness measures the
// per-access hot path, and concurrent cells would contend for cache and
// memory bandwidth and poison each other's readings.  Each cell runs
// --repeat times and keeps the fastest wall time (the run least
// disturbed by the machine; the simulated results of every repeat are
// identical by construction).
//
//   hds_bench [options]
//     --scale F             iteration scale factor (default 1.0)
//     --repeat N            timed runs per cell, fastest kept (default 3)
//     --filter key=value    narrow the matrix (workload=, mode=, seed=,
//                           prefetcher=)
//     --out FILE            write results JSON here ('-' = stdout)
//     --quiet               suppress the summary table
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"
#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "engine/ResultsJson.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace hds;

namespace {

struct Options {
  double Scale = 1.0;
  unsigned Repeat = 3;
  std::vector<std::string> Filters;
  std::string OutPath;
  bool Quiet = false;
};

[[noreturn]] void usage(const char *Binary) {
  std::fprintf(stderr,
               "usage: %s [--scale F] [--repeat N] [--filter key=value]...\n"
               "          [--out FILE] [--quiet]\n"
               "%s",
               Binary, engine::filterHelp().c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  const char *Binary = Argv[0];
  cli::OptionSet Set([Binary] { usage(Binary); });
  Set.positiveDouble("--scale", Opts.Scale)
      .unsAtLeastOne("--repeat", Opts.Repeat)
      .strList("--filter", Opts.Filters)
      .str("--out", Opts.OutPath)
      .flag("--quiet", Opts.Quiet);
  Set.parse(Argc, Argv);
  return Opts;
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs one cell --repeat times, keeping the result of the fastest run
/// with its wall time stamped into RunResult::Timing.
engine::RunResult benchCell(const engine::ExperimentSpec &Spec,
                            unsigned Repeat) {
  engine::RunResult Best;
  uint64_t BestNanos = 0;
  for (unsigned Run = 0; Run < Repeat; ++Run) {
    const uint64_t Start = nowNanos();
    engine::RunResult Result = engine::runExperiment(Spec);
    const uint64_t Elapsed = nowNanos() - Start;
    if (Run == 0 || Elapsed < BestNanos) {
      BestNanos = Elapsed;
      Best = std::move(Result);
    }
  }
  if (Best.ok() && BestNanos > 0) {
    Best.Timing.WallNanos = BestNanos;
    const double Rate = static_cast<double>(Best.Stats.TotalAccesses) *
                        1.0e9 / static_cast<double>(BestNanos);
    Best.Timing.AccessesPerSec = static_cast<uint64_t>(Rate + 0.5);
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);

  std::vector<engine::ExperimentSpec> Specs =
      engine::defaultMatrix(Opts.Scale);
  std::string Error;
  if (!engine::applyFilters(Specs, Opts.Filters, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "error: filters matched no cells\n");
    return 2;
  }
  if (!engine::checkIterations(Specs, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  const uint64_t SuiteStart = nowNanos();
  std::vector<engine::RunResult> Results;
  Results.reserve(Specs.size());
  for (const engine::ExperimentSpec &Spec : Specs)
    Results.push_back(benchCell(Spec, Opts.Repeat));
  const uint64_t SuiteNanos = nowNanos() - SuiteStart;

  if (!Opts.Quiet) {
    Table Summary;
    Summary.row()
        .cell("experiment")
        .cell("status")
        .cell("cycles")
        .cell("accesses")
        .cell("wall ms")
        .cell("Macc/s");
    for (const engine::RunResult &Result : Results) {
      auto Row = Summary.row();
      Row.cell(Result.Spec.label());
      if (!Result.ok()) {
        Row.cell("error");
        continue;
      }
      Row.cell("ok")
          .cell(Result.Cycles)
          .cell(Result.Stats.TotalAccesses)
          .cell(static_cast<double>(Result.Timing.WallNanos) / 1.0e6, "%.2f")
          .cell(static_cast<double>(Result.Timing.AccessesPerSec) / 1.0e6,
                "%.1f");
    }
    Summary.print();
  }

  if (!Opts.OutPath.empty()) {
    engine::TimingInfo Timing;
    Timing.IncludeWall = true;
    Timing.WallMillis = SuiteNanos / 1000000u;
    Timing.Jobs = 1;
    Timing.IncludePerResult = true;
    const std::string Json = engine::resultsToJson(Results, Timing);
    if (Opts.OutPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
    } else {
      std::ofstream Out(Opts.OutPath, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     Opts.OutPath.c_str());
        return 1;
      }
      Out.write(Json.data(), static_cast<std::streamsize>(Json.size()));
    }
  }

  for (const engine::RunResult &Result : Results)
    if (!Result.ok())
      return 1;
  return 0;
}
