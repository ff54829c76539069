//===- tools/hds_matrix.cpp - Experiment-matrix driver --------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Runs a list of experiment cells — the (workload × RunMode × prefetcher
// × seed) matrix, or one of the paper's figures as a named view — and
// emits machine-readable results.  By default the cells run in parallel
// through engine::runMatrix, and the output is byte-identical for any
// --jobs value, so trajectory files can be diffed across machines and
// thread counts (see docs/engine.md for the determinism contract and the
// JSON schema).  --repeat instead times the simulator itself: cells run
// one at a time in one thread, because concurrent cells would contend
// for cache and memory bandwidth, and each keeps its fastest wall time
// (the BENCH_matrix.json shape; see docs/benchmarks.md).
//
// Usage:
//   hds_matrix [options]
//     --jobs N              worker threads (default: hardware concurrency,
//                           N <= 256)
//     --repeat N            time each cell N times, one cell at a time,
//                           and write the fastest wall time per cell
//                           (cannot be combined with --jobs)
//     --scale F             iteration scale factor (default 1.0)
//     --seeds N             add layout-seed variants 1..N of every cell
//                           (N <= 1000)
//     --filter key=value    narrow the matrix (workload=mcf, mode=dynpref,
//                           seed=3); repeatable, filters AND together
//     --view NAME           run the cells of one paper figure or ablation
//                           (fig11, fig12, table2, stride, static,
//                           adaptive) and print its table instead of the
//                           summary; takes no --filter or --seeds
//     --out FILE            write the results JSON to FILE ("-" = stdout)
//     --list                print the selected specs and exit
//     --quiet               suppress the progress lines on stderr
//
//   Result comparison:
//     --diff A.json B.json  compare two results files cell-by-cell;
//                           exits 1 when B regressed against A
//     --threshold PCT       relative change a metric must exceed to
//                           count as a difference (default 0 = exact)
//     --wall-threshold PCT  also gate timing.accesses_per_sec: a drop
//                           beyond PCT is a regression (default: all
//                           timing.* paths are ignored as machine noise)
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"
#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "engine/ResultsDiff.h"
#include "engine/ResultsJson.h"
#include "support/Table.h"
#include "tools/MatrixViews.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace hds;

namespace {

/// Most layout-seed variants --seeds may add: 60 cells x 1001 layouts is
/// already far past any sweep worth running, and the bound keeps a typo
/// from allocating specs until memory runs out.
constexpr uint64_t MaxSeeds = 1000;

/// Most worker threads --jobs may ask for.  runMatrix never starts more
/// threads than there are specs, but the bound rejects a typo while
/// parsing, before any thread exists.
constexpr unsigned MaxJobs = 256;

/// --jobs was not given; no parsed value can equal it.
constexpr unsigned JobsUnset = MaxJobs + 1;

struct Options {
  unsigned Jobs = JobsUnset; // 0 = hardware concurrency
  unsigned Repeat = 0;       // 0 = run in parallel, untimed
  double Scale = 1.0;
  uint64_t Seeds = 0;
  std::vector<std::string> Filters;
  std::string ViewName;
  const views::View *View = nullptr; ///< resolved from ViewName
  std::string OutPath;
  bool List = false;
  bool Quiet = false;

  // Diff mode.
  std::string DiffA, DiffB;
  double ThresholdPct = 0.0;
  double WallThresholdPct = -1.0; ///< < 0 ignores timing.* (the default)
};

[[noreturn]] void usage(const char *Binary) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N | --repeat N] [--scale F] [--seeds N]\n"
      "          [--filter key=value]... [--out FILE] [--list] [--quiet]\n"
      "       %s --view NAME [--jobs N | --repeat N] [--scale F] "
      "[--out FILE]\n"
      "          [--list] [--quiet]\n"
      "       %s --diff A.json B.json [--threshold PCT] "
      "[--wall-threshold PCT]\n"
      "views: %s\n"
      "%s",
      Binary, Binary, Binary, views::viewNames().c_str(),
      engine::filterHelp().c_str());
  std::exit(2);
}

[[noreturn]] void conflict(const char *Message) {
  std::fprintf(stderr, "error: %s\n", Message);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  const char *Binary = Argv[0];
  cli::OptionSet Set([Binary] { usage(Binary); });
  Set.uns("--jobs", Opts.Jobs, MaxJobs)
      .unsAtLeastOne("--repeat", Opts.Repeat)
      .positiveDouble("--scale", Opts.Scale)
      .u64("--seeds", Opts.Seeds)
      .strList("--filter", Opts.Filters)
      .str("--view", Opts.ViewName)
      .str("--out", Opts.OutPath)
      .flag("--list", Opts.List)
      .flag("--quiet", Opts.Quiet)
      .strPair("--diff", Opts.DiffA, Opts.DiffB)
      .nonNegativeDouble("--threshold", Opts.ThresholdPct)
      .nonNegativeDouble("--wall-threshold", Opts.WallThresholdPct);
  Set.parse(Argc, Argv);
  if (Opts.Seeds > MaxSeeds) {
    std::fprintf(stderr, "error: --seeds %llu exceeds the limit of %llu\n",
                 static_cast<unsigned long long>(Opts.Seeds),
                 static_cast<unsigned long long>(MaxSeeds));
    std::exit(2);
  }
  if (Opts.Repeat != 0 && Opts.Jobs != JobsUnset)
    conflict("--repeat times one cell at a time; it cannot be combined "
             "with --jobs");
  if (!Opts.ViewName.empty()) {
    // A view prints every cell of its table; a narrowed or widened cell
    // list would leave holes in it.
    if (!Opts.Filters.empty())
      conflict("--view cannot be combined with --filter");
    if (Opts.Seeds != 0)
      conflict("--view cannot be combined with --seeds");
    if (!Opts.DiffA.empty())
      conflict("--view cannot be combined with --diff");
    Opts.View = views::findView(Opts.ViewName);
    if (!Opts.View) {
      std::fprintf(stderr, "error: unknown view '%s' (expected %s)\n",
                   Opts.ViewName.c_str(), views::viewNames().c_str());
      std::exit(2);
    }
  }
  return Opts;
}

std::string readWholeFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Ok = false;
    return std::string();
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Ok = true;
  return Buf.str();
}

void printSummary(const std::vector<engine::RunResult> &Results,
                  bool Timed) {
  Table Out;
  {
    auto Titles = Out.row();
    Titles.cell("experiment")
        .cell("status")
        .cell("cycles")
        .cell("L1 miss")
        .cell("prefetches")
        .cell("useful");
    if (Timed)
      Titles.cell("wall ms").cell("Macc/s");
  }
  for (const engine::RunResult &Result : Results) {
    auto Row = Out.row();
    Row.cell(Result.Spec.label());
    if (!Result.ok()) {
      Row.cell("ERROR");
      continue;
    }
    Row.cell("ok")
        .cell(Result.Cycles)
        .cell(100.0 * Result.L1.missRate(), "%.1f%%")
        .cell(Result.Memory.PrefetchesIssued)
        .cell(Result.L1.UsefulPrefetches + Result.L2.UsefulPrefetches);
    if (Timed)
      Row.cell(static_cast<double>(Result.Timing.WallNanos) / 1.0e6, "%.2f")
          .cell(static_cast<double>(Result.Timing.AccessesPerSec) / 1.0e6,
                "%.1f");
  }
  Out.print();
}

int runDiffMode(const Options &Opts) {
  bool OkA = false, OkB = false;
  const std::string JsonA = readWholeFile(Opts.DiffA, OkA);
  const std::string JsonB = readWholeFile(Opts.DiffB, OkB);
  if (!OkA || !OkB) {
    std::fprintf(stderr, "error: cannot read '%s'\n",
                 (!OkA ? Opts.DiffA : Opts.DiffB).c_str());
    return 2;
  }
  engine::DiffOptions Diff;
  Diff.ThresholdPct = Opts.ThresholdPct;
  Diff.WallThresholdPct = Opts.WallThresholdPct;
  engine::DiffReport Report;
  std::string Error;
  if (!engine::diffResults(JsonA, JsonB, Diff, Report, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  const std::string Text = Report.render(Opts.DiffA, Opts.DiffB);
  std::fwrite(Text.data(), 1, Text.size(), stdout);
  return Report.regressed() ? 1 : 0;
}

/// The cells the options select: a view's, or the default matrix with
/// its seed variants, narrowed by the filters.  Exits 2 on a bad
/// selection.
std::vector<engine::ExperimentSpec> selectSpecs(const Options &Opts) {
  std::vector<engine::ExperimentSpec> Specs;
  std::string Error;
  if (Opts.View) {
    Specs = views::viewSpecs(*Opts.View, Opts.Scale);
  } else {
    Specs = engine::defaultMatrix(Opts.Scale);
    if (Opts.Seeds > 0) {
      const std::vector<engine::ExperimentSpec> Base = Specs;
      for (uint64_t Seed = 1; Seed <= Opts.Seeds; ++Seed)
        for (const engine::ExperimentSpec &Spec : Base) {
          engine::ExperimentSpec Variant = Spec;
          Variant.Seed = Seed;
          Specs.push_back(Variant);
        }
    }
    if (!engine::applyFilters(Specs, Opts.Filters, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      std::exit(2);
    }
    if (Specs.empty()) {
      std::fprintf(stderr, "error: filters selected no experiments\n");
      std::exit(2);
    }
  }
  if (!engine::checkIterations(Specs, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(2);
  }
  return Specs;
}

uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// Runs one cell \p Repeat times, keeping the result of the fastest run
/// with its wall time stamped into RunResult::Timing.  The simulated
/// results of every repeat are identical by construction.
engine::RunResult timeCell(const engine::ExperimentSpec &Spec,
                           unsigned Repeat) {
  engine::RunResult Best;
  uint64_t BestNanos = 0;
  for (unsigned Run = 0; Run < Repeat; ++Run) {
    const auto Start = std::chrono::steady_clock::now();
    engine::RunResult Result = engine::runExperiment(Spec);
    const uint64_t Elapsed = nanosSince(Start);
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

/// Prints the view's table or the summary, and writes the JSON to --out;
/// exits 1 when any cell errored.
int writeResults(const Options &Opts,
                 const std::vector<engine::RunResult> &Results,
                 const engine::TimingInfo &Timing) {
  bool AnyError = false;
  for (const engine::RunResult &Result : Results)
    if (!Result.ok())
      AnyError = true;

  // With --out - the JSON owns stdout; keep the human text off it.  A
  // view with a failed cell has no table to print; the summary names
  // the failure.
  if (Opts.OutPath != "-") {
    if (Opts.View && !AnyError)
      views::renderView(*Opts.View, Results);
    else
      printSummary(Results, Timing.IncludePerResult);
  }

  if (!Opts.OutPath.empty()) {
    const std::string Json = engine::resultsToJson(Results, Timing);
    if (Opts.OutPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
    } else {
      std::FILE *Out = std::fopen(Opts.OutPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     Opts.OutPath.c_str());
        return 2;
      }
      std::fwrite(Json.data(), 1, Json.size(), Out);
      std::fclose(Out);
      if (!Opts.Quiet)
        std::fprintf(stderr, "results: %zu experiments -> %s\n",
                     Results.size(), Opts.OutPath.c_str());
    }
  }

  return AnyError ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);

  if (!Opts.DiffA.empty())
    return runDiffMode(Opts);

  const std::vector<engine::ExperimentSpec> Specs = selectSpecs(Opts);
  if (Opts.List) {
    for (const engine::ExperimentSpec &Spec : Specs)
      std::printf("%s\n", Spec.label().c_str());
    return 0;
  }

  engine::OnResult Progress;
  const size_t Total = Specs.size();
  if (!Opts.Quiet)
    // Mutable counter; runMatrix serializes the callback.
    Progress = [Total, Done = size_t{0}](size_t,
                                         const engine::RunResult &R) mutable {
      std::fprintf(stderr, "[%zu/%zu] %s: %s\n", ++Done, Total,
                   R.Spec.label().c_str(), R.ok() ? "ok" : R.Error.c_str());
    };

  engine::TimingInfo Timing;
  std::vector<engine::RunResult> Results;
  if (Opts.Repeat == 0) {
    // runMatrix runs at least one thread, so a hardware_concurrency()
    // of 0 (unknown) is fine.
    const unsigned Jobs = Opts.Jobs != 0 && Opts.Jobs != JobsUnset
                              ? Opts.Jobs
                              : std::thread::hardware_concurrency();
    Results = engine::runMatrix(Specs, Jobs, std::move(Progress));
  } else {
    const auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Specs.size(); ++I) {
      Results.push_back(timeCell(Specs[I], Opts.Repeat));
      if (Progress)
        Progress(I, Results.back());
    }
    Timing.IncludeWall = true;
    Timing.WallMillis = nanosSince(Start) / 1000000u;
    Timing.Jobs = 1;
    Timing.IncludePerResult = true;
  }

  return writeResults(Opts, Results, Timing);
}
