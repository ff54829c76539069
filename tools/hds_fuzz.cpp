//===- tools/hds_fuzz.cpp - Seeded differential trace fuzzer ---------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Generates adversarial reference traces (hot loops, phase shifts, noise
// floods, regex-shaped recurrences, cache-thrash sweeps — see
// src/testing/TraceGen.h) and runs
// the full differential oracle suite over each: Sequitur invariants +
// exact decompression, fast-vs-precise analyzer cross-checks, and
// DFSM-vs-reference-matcher equivalence.  Every trace is a pure function
// of its seed, so any reported failure reproduces with
//
//   hds_fuzz --start <seed> --seeds 1 --verbose
//
// Usage:
//   hds_fuzz [options]
//     --start <n>     first seed (default 1)
//     --seeds <n>     number of consecutive seeds to run (default 50)
//     --headlen <n>   DFSM prefix match length, at least 1 (default 2)
//     --minlen <n>    analysis minLen (default 2)
//     --maxlen <n>    analysis maxLen (default 100)
//     --heat <n>      analysis heat threshold H (default 8)
//     --verbose       per-seed progress to stderr
//
// Numbers are strict (cli::OptionSet): a malformed, negative or
// overflowing operand, --headlen 0, --minlen above --maxlen, or a seed
// range past 2^64 - 1 exits 2 with an "error:" line that names it.
//
// Exit status: 0 when every seed passes all oracles, 1 otherwise.  The
// last line also reports on how many seeds the grammar hot-subpath
// detector and the exact detector found the same stream set; that
// comparison never fails the run.
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"
#include "replay/Oracles.h"
#include "testing/TraceGen.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

struct Options {
  uint64_t Start = 1;
  uint64_t Seeds = 50;
  uint32_t HeadLength = 2;
  hds::analysis::AnalysisConfig Analysis;
  bool Verbose = false;
};

[[noreturn]] void usage(const char *Binary) {
  std::fprintf(stderr,
               "usage: %s [--start N] [--seeds N] [--headlen N]\n"
               "          [--minlen N] [--maxlen N] [--heat N] [--verbose]\n",
               Binary);
  std::exit(1);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  const char *Binary = Argv[0];
  hds::cli::OptionSet Set([Binary] { usage(Binary); });
  Set.u64("--start", Opts.Start)
      .u64("--seeds", Opts.Seeds)
      .unsAtLeastOne("--headlen", Opts.HeadLength)
      .u64("--minlen", Opts.Analysis.MinLength)
      .u64("--maxlen", Opts.Analysis.MaxLength)
      .u64("--heat", Opts.Analysis.HeatThreshold)
      .flag("--verbose", Opts.Verbose);
  Set.parse(Argc, Argv);
  if (Opts.Analysis.MinLength > Opts.Analysis.MaxLength) {
    std::fprintf(stderr, "error: --minlen %llu is greater than --maxlen %llu\n",
                 (unsigned long long)Opts.Analysis.MinLength,
                 (unsigned long long)Opts.Analysis.MaxLength);
    std::exit(2);
  }
  if (Opts.Seeds > UINT64_MAX - Opts.Start) {
    std::fprintf(stderr,
                 "error: --start %llu plus --seeds %llu passes the last "
                 "seed, 2^64 - 1\n",
                 (unsigned long long)Opts.Start,
                 (unsigned long long)Opts.Seeds);
    std::exit(2);
  }
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);

  uint64_t Failures = 0;
  uint64_t TotalSymbols = 0;
  uint64_t AnalyzersAgree = 0;
  for (uint64_t Seed = Opts.Start; Seed < Opts.Start + Opts.Seeds; ++Seed) {
    const std::vector<uint32_t> Trace = hds::testing::generateTrace(Seed);
    TotalSymbols += Trace.size();
    const char *Shape =
        hds::testing::shapeName(hds::testing::shapeForSeed(Seed));
    if (Opts.Verbose)
      std::fprintf(stderr, "seed %llu (%s): %zu symbols\n",
                   (unsigned long long)Seed, Shape, Trace.size());

    const hds::replay::OracleReport Report =
        hds::replay::runOracleSuite(Trace, Opts.Analysis, Opts.HeadLength);
    if (!Report.Passed) {
      ++Failures;
      std::fprintf(stderr,
                   "FAIL seed %llu (%s, %zu symbols): %s\n"
                   "  reproduce: hds_fuzz --start %llu --seeds 1 --verbose\n",
                   (unsigned long long)Seed, Shape, Trace.size(),
                   Report.Failure.c_str(), (unsigned long long)Seed);
    }

    const hds::replay::AnalyzerAgreement Agreement =
        hds::replay::compareSubpathWithPrecise(Trace, Opts.Analysis);
    AnalyzersAgree += Agreement.equal();
    if (Opts.Verbose)
      std::fprintf(stderr,
                   "  subpath vs precise: %llu subpath-only, %llu "
                   "precise-only streams\n",
                   (unsigned long long)Agreement.SubpathOnly,
                   (unsigned long long)Agreement.PreciseOnly);
  }

  std::printf("%llu seeds [%llu, %llu): %llu failed, %llu symbols fuzzed\n",
              (unsigned long long)Opts.Seeds,
              (unsigned long long)Opts.Start,
              (unsigned long long)(Opts.Start + Opts.Seeds),
              (unsigned long long)Failures,
              (unsigned long long)TotalSymbols);
  // Report-only: a disagreement does not fail the sweep.
  std::printf("subpath vs precise: equal stream sets on %llu of %llu "
              "seeds\n",
              (unsigned long long)AnalyzersAgree,
              (unsigned long long)Opts.Seeds);
  return Failures == 0 ? 0 : 1;
}
