//===- tools/hds_analyze.cpp - Offline trace analysis tool -----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Runs the hot data stream pipeline over a trace file: each whitespace-
// separated token is one data reference (tokens are interned, so any
// strings work — symbolic names, addresses, "pc:addr" pairs...).  Prints
// the Sequitur compression summary, the detected hot data streams, and
// optionally the exact-detector comparison and the prefix-match DFSM.
//
// This is the offline workflow of the paper's §1 prior work (collect a
// trace, compress with Sequitur, extract hot data streams) as a reusable
// command.
//
// Usage:
//   hds_analyze [options] [tracefile]     (stdin when no file)
//     --heat <h>       heat threshold (default: 1% of the trace)
//     --minlen <n>     minimum stream length (default 4)
//     --maxlen <n>     maximum stream length (default 100)
//     --top <n>        print at most n streams (default 20)
//     --precise        also run the exact detector and compare
//     --subpath        also run the grammar hot-subpath detector
//     --dfsm           build the prefix DFSM and print its size
//
//   Numbers are plain decimal digits, and --minlen must not exceed
//   --maxlen; anything else exits 2 with an "error:" line.
//
//===----------------------------------------------------------------------===//

#include "analysis/Coverage.h"
#include "analysis/FastAnalyzer.h"
#include "analysis/PreciseAnalyzer.h"
#include "analysis/SubpathAnalyzer.h"
#include "cli/Options.h"
#include "dfsm/PrefixDfsm.h"
#include "sequitur/Grammar.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace hds;

namespace {

struct Options {
  uint64_t Heat = 0; // 0 = 1% of the trace
  uint64_t MinLen = 4;
  uint64_t MaxLen = 100;
  uint64_t Top = 20;
  bool Precise = false;
  bool Subpath = false;
  bool Dfsm = false;
  std::string File;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hds_analyze [--heat H] [--minlen N] [--maxlen N] "
               "[--top N] [--precise] [--subpath] [--dfsm] [tracefile]\n");
  std::exit(1);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  cli::OptionSet Set(usage);
  Set.u64("--heat", Opts.Heat)
      .u64("--minlen", Opts.MinLen)
      .u64("--maxlen", Opts.MaxLen)
      .u64("--top", Opts.Top)
      .flag("--precise", Opts.Precise)
      .flag("--subpath", Opts.Subpath)
      .flag("--dfsm", Opts.Dfsm)
      .operand(Opts.File);
  Set.parse(Argc, Argv);
  if (Opts.MinLen > Opts.MaxLen) {
    std::fprintf(stderr, "error: --minlen %llu is greater than --maxlen %llu\n",
                 (unsigned long long)Opts.MinLen,
                 (unsigned long long)Opts.MaxLen);
    std::exit(2);
  }
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);

  // Read and intern the trace.
  std::istream *In = &std::cin;
  std::ifstream File;
  if (!Opts.File.empty()) {
    File.open(Opts.File);
    if (!File) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
      return 1;
    }
    In = &File;
  }

  std::unordered_map<std::string, uint32_t> Intern;
  std::vector<std::string> Names;
  std::vector<uint32_t> Trace;
  std::string Token;
  while (*In >> Token) {
    auto [It, Inserted] =
        Intern.try_emplace(Token, static_cast<uint32_t>(Names.size()));
    if (Inserted)
      Names.push_back(Token);
    Trace.push_back(It->second);
  }
  if (Trace.empty()) {
    std::fprintf(stderr, "error: empty trace\n");
    return 1;
  }

  analysis::AnalysisConfig Config;
  Config.MinLength = Opts.MinLen;
  Config.MaxLength = Opts.MaxLen;
  Config.HeatThreshold =
      Opts.Heat != 0 ? Opts.Heat : std::max<uint64_t>(1, Trace.size() / 100);

  std::printf("trace: %zu references, %zu distinct (H=%llu, len %llu..%llu)"
              "\n\n",
              Trace.size(), Names.size(),
              (unsigned long long)Config.HeatThreshold,
              (unsigned long long)Config.MinLength,
              (unsigned long long)Config.MaxLength);

  // Sequitur + fast analysis.
  const auto Start = std::chrono::steady_clock::now();
  sequitur::Grammar Grammar;
  for (uint32_t T : Trace)
    Grammar.append(T);
  const analysis::FastAnalysisResult Result =
      analysis::analyzeHotStreams(Grammar.snapshot(), Config);
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();

  std::printf("sequitur: %zu rules, %zu RHS symbols (%.1fx compression), "
              "%.1f ms including analysis\n",
              Grammar.ruleCount(), Grammar.totalRhsSymbols(),
              static_cast<double>(Trace.size()) /
                  static_cast<double>(Grammar.totalRhsSymbols()),
              Ms);
  std::printf("hot data streams: %zu, covering %.1f%% of the trace\n\n",
              Result.Streams.size(),
              100.0 * analysis::traceCoverage(Trace, Result.Streams));

  // Hottest first.
  std::vector<analysis::HotDataStream> Streams = Result.Streams;
  std::sort(Streams.begin(), Streams.end(),
            [](const analysis::HotDataStream &A,
               const analysis::HotDataStream &B) { return A.Heat > B.Heat; });

  Table Out;
  Out.row().cell("heat").cell("freq").cell("len").cell("stream");
  for (size_t I = 0; I < Streams.size() && I < Opts.Top; ++I) {
    std::string Word;
    for (size_t J = 0; J < Streams[I].Symbols.size(); ++J) {
      if (J)
        Word += ' ';
      if (Word.size() > 60) {
        Word += "...";
        break;
      }
      Word += Names[Streams[I].Symbols[J]];
    }
    Out.row()
        .cell(uint64_t{Streams[I].Heat})
        .cell(uint64_t{Streams[I].Frequency})
        .cell(uint64_t{Streams[I].length()})
        .cell(Word);
  }
  Out.print();

  if (Opts.Subpath) {
    const auto SStart = std::chrono::steady_clock::now();
    const analysis::SubpathAnalysisResult Subpath =
        analysis::analyzeHotSubpaths(Grammar.snapshot(), Config);
    const double SMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - SStart)
                           .count();
    std::printf("\ngrammar subpaths (Larus-style): %zu streams, %.1f%% "
                "coverage, %.1f ms\n",
                Subpath.Streams.size(),
                100.0 * analysis::traceCoverage(Trace, Subpath.Streams),
                SMs);
  }

  if (Opts.Precise) {
    const auto PStart = std::chrono::steady_clock::now();
    const analysis::PreciseAnalysisResult Precise =
        analysis::analyzeHotStreamsPrecisely(Trace, Config);
    const double PMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - PStart)
                           .count();
    std::printf("\nprecise detector: %zu streams, %.1f%% coverage, %.1f ms "
                "(%.1fx slower)\n",
                Precise.Streams.size(),
                100.0 * analysis::traceCoverage(Trace, Precise.Streams), PMs,
                PMs / Ms);
  }

  if (Opts.Dfsm && !Streams.empty()) {
    std::vector<std::vector<uint32_t>> StreamSymbols;
    for (const analysis::HotDataStream &S : Streams)
      StreamSymbols.push_back(S.Symbols);
    dfsm::DfsmConfig MachineConfig;
    dfsm::PrefixDfsm Machine(StreamSymbols, MachineConfig);
    std::printf("\nprefix DFSM (headLen=%u): %zu states, %zu transitions "
                "(headLen*n+1 = %zu)\n",
                MachineConfig.HeadLength, Machine.stateCount(),
                Machine.transitionCount(),
                size_t{MachineConfig.HeadLength} * StreamSymbols.size() + 1);
  }
  return 0;
}
