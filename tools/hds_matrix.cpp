//===- tools/hds_matrix.cpp - Experiment-matrix driver --------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Runs the (workload × RunMode × seed × scale) experiment matrix through
// engine::runMatrix and emits machine-readable results.  The output is
// byte-identical for any --jobs value, so trajectory files can be
// diffed across machines and thread counts (see docs/engine.md for the
// determinism contract and the JSON schema).
//
// Usage:
//   hds_matrix [options]
//     --jobs N              worker threads (default: hardware concurrency,
//                           N <= 256)
//     --scale F             iteration scale factor (default 1.0)
//     --seeds N             add layout-seed variants 1..N of every cell
//                           (N <= 1000)
//     --filter key=value    narrow the matrix (workload=mcf, mode=dynpref,
//                           seed=3); repeatable, filters AND together
//     --out FILE            write the results JSON to FILE ("-" = stdout)
//     --timing              include wall-clock timing in the JSON (makes
//                           the output non-deterministic by design)
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

/// Most layout-seed variants --seeds may add: 84 cells x 1001 layouts is
/// already far past any sweep worth running, and the bound keeps a typo
/// from allocating specs until memory runs out.
constexpr uint64_t MaxSeeds = 1000;

/// Most worker threads --jobs may ask for.  runMatrix never starts more
/// threads than there are specs, but the bound rejects a typo while
/// parsing, before any thread exists.
constexpr unsigned MaxJobs = 256;

struct Options {
  unsigned Jobs = 0; // 0 = hardware concurrency
  double Scale = 1.0;
  uint64_t Seeds = 0;
  std::vector<std::string> Filters;
  std::string OutPath;
  bool Timing = false;
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
      "usage: %s [--jobs N] [--scale F] [--seeds N] [--filter key=value]...\n"
      "          [--out FILE] [--timing] [--list] [--quiet]\n"
      "       %s --diff A.json B.json [--threshold PCT] "
      "[--wall-threshold PCT]\n"
      "%s",
      Binary, Binary, engine::filterHelp().c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  const char *Binary = Argv[0];
  cli::OptionSet Set([Binary] { usage(Binary); });
  Set.uns("--jobs", Opts.Jobs, MaxJobs)
      .positiveDouble("--scale", Opts.Scale)
      .u64("--seeds", Opts.Seeds)
      .strList("--filter", Opts.Filters)
      .str("--out", Opts.OutPath)
      .flag("--timing", Opts.Timing)
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

void printSummary(const std::vector<engine::RunResult> &Results) {
  Table Out;
  Out.row()
      .cell("experiment")
      .cell("status")
      .cell("cycles")
      .cell("L1 miss")
      .cell("prefetches")
      .cell("useful");
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

/// Prints the summary table and writes the JSON to --out; exits 1 when
/// any cell errored.
int writeResults(const Options &Opts,
                 const std::vector<engine::RunResult> &Results,
                 const engine::TimingInfo &Timing) {
  // With --out - the JSON owns stdout; keep the human table off it.
  if (Opts.OutPath != "-")
    printSummary(Results);

  bool AnyError = false;
  for (const engine::RunResult &Result : Results)
    if (!Result.ok())
      AnyError = true;

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

  std::vector<engine::ExperimentSpec> Specs =
      engine::defaultMatrix(Opts.Scale);
  if (Opts.Seeds > 0) {
    const std::vector<engine::ExperimentSpec> Base = Specs;
    for (uint64_t Seed = 1; Seed <= Opts.Seeds; ++Seed)
      for (const engine::ExperimentSpec &Spec : Base) {
        engine::ExperimentSpec Variant = Spec;
        Variant.Seed = Seed;
        Specs.push_back(Variant);
      }
  }
  std::string Error;
  if (!engine::applyFilters(Specs, Opts.Filters, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "error: filters selected no experiments\n");
    return 2;
  }

  if (Opts.List) {
    for (const engine::ExperimentSpec &Spec : Specs)
      std::printf("%s\n", Spec.label().c_str());
    return 0;
  }

  engine::TimingInfo Timing;
  unsigned Jobs = Opts.Jobs != 0 ? Opts.Jobs
                                 : std::thread::hardware_concurrency();
  if (Jobs == 0)
    Jobs = 1;

  engine::OnResult Progress;
  const size_t Total = Specs.size();
  if (!Opts.Quiet)
    // Mutable counter; runMatrix serializes the callback.
    Progress = [Total, Done = size_t{0}](size_t,
                                         const engine::RunResult &R) mutable {
      std::fprintf(stderr, "[%zu/%zu] %s: %s\n", ++Done, Total,
                   R.Spec.label().c_str(), R.ok() ? "ok" : R.Error.c_str());
    };

  const auto Start = std::chrono::steady_clock::now();
  const std::vector<engine::RunResult> Results =
      engine::runMatrix(Specs, Jobs, std::move(Progress));
  const auto End = std::chrono::steady_clock::now();

  if (Opts.Timing) {
    Timing.IncludeWall = true;
    Timing.WallMillis = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(End - Start)
            .count());
    Timing.Jobs = Jobs;
  }

  return writeResults(Opts, Results, Timing);
}
