//===- tools/hds_run.cpp - Command-line benchmark driver -------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// Runs one benchmark under one configuration and prints a full report:
// simulated cycles, cache behaviour, prefetching activity, and the
// per-optimization-cycle characterization.  Everything the figure benches
// measure, exposed as a single configurable command.
//
// Usage:
//   hds_run [options]
//     --workload <vpr|mcf|twolf|parser|vortex|boxsim|twophase>  (default vpr)
//     --mode <original|base|prof|hds|nopref|seqpref|dynpref>    (default dynpref)
//     --iterations <n>      override the workload's default
//     --scale <f>           scale the default iteration count
//     --headlen <n>         prefix match length, at least 1 (default 2)
//     --stride              enable the hardware stride prefetcher
//     --markov              enable the Markov correlation prefetcher
//     --pair                enable the bounded temporal pair-table prefetcher
//     --pin                 static-scheme model (pin first optimization)
//     --verbose             per-cycle stream reports to stderr
//     --compare             also run the original program and report %
//     --report              overhead breakdown (Fig 11) and per-stream
//                           prefetch effectiveness (Fig 10) tables
//     --trace-events <file> write the awake/analysis/hibernation phase
//                           timeline as Chrome trace-event JSON
//                           (chrome://tracing, Perfetto)
//     --dump-trace <file>   write every reference as "pc:addr" tokens
//                           (feed the file to hds_analyze)
//     --record <file>       capture the run as a binary replay trace
//                           (not in the same run as --dump-trace)
//     --replay <file>       re-execute a recorded trace and verify the
//                           replay reproduces the recorded cycle/miss
//                           counts exactly (exit 1 on divergence)
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"
#include "core/Runtime.h"
#include "engine/ExperimentRunner.h"
#include "obs/CycleAccount.h"
#include "prefetch/Prefetcher.h"
#include "obs/PrefetchStats.h"
#include "obs/Timeline.h"
#include "replay/TraceFormat.h"
#include "replay/TraceRecorder.h"
#include "replay/TraceReplayer.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <memory>
#include <optional>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace hds;
using namespace hds::core;

namespace {

struct Options {
  std::string Workload = "vpr";
  RunMode Mode = RunMode::DynamicPrefetch;
  uint64_t Iterations = 0; // 0 = workload default * Scale
  double Scale = 1.0;
  uint32_t HeadLength = 2;
  prefetch::PrefetcherSelection Prefetchers;
  bool Pin = false;
  bool Verbose = false;
  bool Compare = false;
  bool Report = false;
  std::string TraceEvents;
  std::string DumpTrace;
  std::string RecordTo;
  std::string ReplayFrom;
};

[[noreturn]] void usage(const char *Binary) {
  const std::string Modes = runModeTokenList();
  const std::string Workloads = [] {
    std::string Out;
    for (const std::string &Name : workloads::allWorkloadNames()) {
      if (!Out.empty())
        Out += ' ';
      Out += Name;
    }
    return Out;
  }();
  std::fprintf(
      stderr,
      "usage: %s [--workload NAME] [--mode MODE] [--iterations N]\n"
      "          [--scale F] [--headlen N]%s\n"
      "          [--pin] [--verbose] [--compare] [--report]\n"
      "          [--trace-events FILE]\n"
      "          [--dump-trace FILE] [--record FILE] [--replay FILE]\n"
      "modes: %s\n"
      "workloads: %s\n",
      Binary, cli::prefetcherFlagsUsage().c_str(), Modes.c_str(),
      Workloads.c_str());
  std::exit(1);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  const char *Binary = Argv[0];
  cli::OptionSet Set([Binary] { usage(Binary); });
  Set.str("--workload", Opts.Workload)
      .runMode("--mode", Opts.Mode)
      .u64("--iterations", Opts.Iterations)
      .positiveDouble("--scale", Opts.Scale)
      .unsAtLeastOne("--headlen", Opts.HeadLength)
      .flag("--pin", Opts.Pin)
      .flag("--verbose", Opts.Verbose)
      .flag("--report", Opts.Report)
      .flag("--compare", Opts.Compare)
      .str("--trace-events", Opts.TraceEvents)
      .str("--dump-trace", Opts.DumpTrace)
      .str("--record", Opts.RecordTo)
      .str("--replay", Opts.ReplayFrom);
  cli::addPrefetcherFlags(Set, Opts.Prefetchers);
  Set.parse(Argc, Argv);
  if (!Opts.DumpTrace.empty() && !Opts.RecordTo.empty()) {
    // The run is deterministic: two runs give the same reference stream.
    std::fprintf(stderr, "error: --dump-trace and --record cannot be "
                         "combined; run twice, once with each\n");
    std::exit(2);
  }
  return Opts;
}

/// " +stride +markov ... +pinned" — the report's mode-line suffix for
/// the enabled features (legacy spelling and order).
std::string featureSuffix(const prefetch::PrefetcherSelection &Selection,
                          bool Pin) {
  std::string Out;
  for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I) {
    const auto K = static_cast<prefetch::Prefetcher::Kind>(I);
    if (Selection.has(K)) {
      Out += " +";
      Out += prefetch::Prefetcher::kindToken(K);
    }
  }
  if (Pin)
    Out += " +pinned";
  return Out;
}

/// RuntimeObserver that prints the reference stream as "pc:addr" tokens —
/// the hds_analyze input format.  Replaces the removed per-access
/// callback: trace dumping now rides the single observer mechanism.
class TraceDumpObserver : public RuntimeObserver {
public:
  explicit TraceDumpObserver(std::FILE *File) : Out(File) {}

  void onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                bool /*IsStore*/) override {
    std::fprintf(Out, "%llu:%llx\n", (unsigned long long)Site,
                 (unsigned long long)Addr);
  }

private:
  std::FILE *Out;
};

/// Writes the phase timeline as Chrome trace-event JSON ("X" complete
/// events; ts/dur are simulated cycles presented in the microsecond
/// field).  The final open span is closed at \p EndCycle.
void writeTraceEvents(const std::string &Path, const obs::Timeline &Timeline,
                      uint64_t EndCycle) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::fprintf(Out, "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [");
  bool First = true;
  for (const obs::PhaseSpan &Span : Timeline.spans()) {
    const uint64_t End = Span.Open ? EndCycle : Span.EndCycle;
    if (End <= Span.BeginCycle)
      continue;
    std::fprintf(Out,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %llu, \"dur\": %llu}",
                 First ? "" : ",", Span.Name.c_str(),
                 (unsigned long long)Span.BeginCycle,
                 (unsigned long long)(End - Span.BeginCycle));
    First = false;
  }
  std::fprintf(Out, "\n]}\n");
  std::fclose(Out);
  std::printf("trace-events: %zu spans -> %s\n", Timeline.spans().size(),
              Path.c_str());
}

/// The Figure-11-style overhead breakdown: every attributed phase, then
/// the paper's four reporting groups, which sum to the total by
/// construction (CyclePhase is a partition).
void printOverheadBreakdown(const obs::CycleBreakdown &B) {
  const uint64_t Total = B.total();
  const auto Pct = [Total](uint64_t Cycles) {
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(Cycles) /
                            static_cast<double>(Total);
  };

  std::printf("\noverhead breakdown (all simulated cycles, by phase):\n");
  Table Phases;
  Phases.row().cell("phase").cell("cycles").cell("% of run");
  const struct {
    const char *Name;
    uint64_t Cycles;
  } Rows[] = {
      {"pure_compute", B.PureCompute},
      {"demand_stall", B.DemandStall},
      {"partial_hit_stall", B.PartialHitStall},
      {"dynamic_check", B.DynamicCheck},
      {"profiling", B.Profiling},
      {"prefix_match", B.PrefixMatch},
      {"prefetch_issue", B.PrefetchIssue},
      {"analysis", B.Analysis},
  };
  for (const auto &Row : Rows)
    Phases.row().cell(Row.Name).cell(Row.Cycles).cell(Pct(Row.Cycles),
                                                      "%.2f");
  Phases.print();

  const uint64_t Base = B.PureCompute + B.DemandStall + B.PartialHitStall;
  const uint64_t Checking = B.DynamicCheck + B.PrefixMatch + B.PrefetchIssue;
  std::printf("\ngroups: base %llu (%.2f%%), checking %llu (%.2f%%), "
              "profiling %llu (%.2f%%), analysis %llu (%.2f%%), "
              "total %llu\n",
              (unsigned long long)Base, Pct(Base),
              (unsigned long long)Checking, Pct(Checking),
              (unsigned long long)B.Profiling, Pct(B.Profiling),
              (unsigned long long)B.Analysis, Pct(B.Analysis),
              (unsigned long long)Total);
}

/// The Figure-10-style per-stream effectiveness table.  Per-stream
/// coverage is the stream's share of coverable misses (useful_s /
/// (all useful + remaining demand misses)), so the rows sum to the
/// run-level coverage.
void printStreamEffectiveness(
    const std::vector<obs::StreamPrefetchStats> &Streams,
    uint64_t RemainingDemandMisses) {
  if (Streams.empty())
    return;

  uint64_t TotalUseful = 0, TotalLate = 0, TotalIssued = 0;
  for (const obs::StreamPrefetchStats &S : Streams) {
    TotalUseful += S.Useful;
    TotalLate += S.Late;
    TotalIssued += S.Issued;
  }
  const double CoverageDenom =
      static_cast<double>(TotalUseful + RemainingDemandMisses);

  std::printf("\nprefetch effectiveness per stream:\n");
  Table Out;
  Out.row()
      .cell("stream")
      .cell("installed")
      .cell("len")
      .cell("issued")
      .cell("useful")
      .cell("late")
      .cell("redundant")
      .cell("dropped")
      .cell("evicted")
      .cell("accuracy")
      .cell("coverage")
      .cell("timeliness");
  for (const obs::StreamPrefetchStats &S : Streams) {
    const double Coverage =
        CoverageDenom == 0.0 ? 0.0
                             : static_cast<double>(S.Useful) / CoverageDenom;
    Out.row()
        .cell(S.StreamTag)
        .cell(S.InstallCycle)
        .cell(S.Length)
        .cell(S.Issued)
        .cell(S.Useful)
        .cell(S.Late)
        .cell(S.Redundant)
        .cell(S.DroppedQueueFull)
        .cell(S.UnusedEvicted)
        .cell(100.0 * S.accuracy(), "%.1f")
        .cell(100.0 * Coverage, "%.1f")
        .cell(100.0 * S.timeliness(), "%.1f");
  }
  Out.print();

  const double RunAccuracy =
      TotalIssued == 0 ? 0.0
                       : static_cast<double>(TotalUseful) /
                             static_cast<double>(TotalIssued);
  const double RunCoverage =
      CoverageDenom == 0.0
          ? 0.0
          : static_cast<double>(TotalUseful) / CoverageDenom;
  const double RunTimeliness =
      TotalUseful + TotalLate == 0
          ? 0.0
          : static_cast<double>(TotalUseful) /
                static_cast<double>(TotalUseful + TotalLate);
  std::printf("run totals: accuracy %.1f%%, coverage %.1f%%, "
              "timeliness %.1f%%\n",
              100.0 * RunAccuracy, 100.0 * RunCoverage,
              100.0 * RunTimeliness);
}

uint64_t runConfigured(const Options &Opts, RunMode Mode, bool Report) {
  OptimizerConfig Config;
  Config.Mode = Mode;
  Config.Dfsm.HeadLength = Opts.HeadLength;
  Config.Prefetchers.Enabled = Opts.Prefetchers;
  Config.PinFirstOptimization = Opts.Pin;
  Config.VerboseAnalysis = Opts.Verbose;

  auto Bench = workloads::createWorkload(Opts.Workload);
  if (!Bench) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    std::exit(1);
  }

  const std::optional<uint64_t> Scaled =
      engine::scaledIterations(Bench->defaultIterations(), Opts.Scale);
  if (Opts.Iterations == 0 && !Scaled) {
    std::fprintf(stderr,
                 "error: --scale %g gives workload '%s' more iterations "
                 "than fit in 64 bits\n",
                 Opts.Scale, Opts.Workload.c_str());
    std::exit(2);
  }
  const uint64_t Iterations =
      Opts.Iterations != 0 ? Opts.Iterations : *Scaled;

  Runtime Rt(Config);

  // All observation rides the one RuntimeObserver slot, so a run takes
  // --dump-trace or --record, never both (parseOptions).
  std::FILE *TraceFile = nullptr;
  std::unique_ptr<TraceDumpObserver> Dumper;
  if (Report && !Opts.DumpTrace.empty()) {
    TraceFile = std::fopen(Opts.DumpTrace.c_str(), "w");
    if (!TraceFile) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.DumpTrace.c_str());
      std::exit(1);
    }
    Dumper = std::make_unique<TraceDumpObserver>(TraceFile);
  }

  std::unique_ptr<replay::TraceRecorder> Recorder;
  if (Report && !Opts.RecordTo.empty())
    Recorder = std::make_unique<replay::TraceRecorder>(
        replay::metaFromConfig(Config, Opts.Workload, Iterations));

  if (Dumper)
    Rt.setObserver(Dumper.get());
  else if (Recorder)
    Rt.setObserver(Recorder.get());

  Bench->setup(Rt);
  if (Recorder)
    Recorder->markSetupDone();
  Bench->run(Rt, Iterations);
  Rt.setObserver(nullptr);
  if (TraceFile)
    std::fclose(TraceFile);

  if (Recorder) {
    Recorder->finish(Rt);
    std::string Error;
    if (!replay::writeTraceFile(Recorder->trace(), Opts.RecordTo, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      std::exit(1);
    }
    std::printf("recorded:   %zu events -> %s\n",
                Recorder->trace().Events.size(), Opts.RecordTo.c_str());
  }

  if (!Report)
    return Rt.cycles();

  const RunStats &Stats = Rt.stats();
  const memsim::CacheStats &L1 = Rt.memory().l1().stats();
  const memsim::CacheStats &L2 = Rt.memory().l2().stats();
  const memsim::HierarchyStats &Mem = Rt.memory().stats();

  std::printf("workload:   %s (%llu iterations)\n", Opts.Workload.c_str(),
              (unsigned long long)Iterations);
  std::printf("mode:       %s%s\n", runModeName(Mode),
              featureSuffix(Opts.Prefetchers, Opts.Pin).c_str());
  std::printf("cycles:     %llu\n", (unsigned long long)Rt.cycles());
  std::printf("accesses:   %llu (%.2f cycles/access)\n",
              (unsigned long long)Stats.TotalAccesses,
              static_cast<double>(Rt.cycles()) /
                  static_cast<double>(Stats.TotalAccesses));
  std::printf("L1:         %.1f%% miss (%llu hits, %llu misses)\n",
              100.0 * L1.missRate(), (unsigned long long)L1.Hits,
              (unsigned long long)L1.Misses);
  std::printf("L2:         %.1f%% miss (%llu hits, %llu misses)\n",
              100.0 * L2.missRate(), (unsigned long long)L2.Hits,
              (unsigned long long)L2.Misses);
  std::printf("stalls:     %llu cycles (%.1f%% of run)\n",
              (unsigned long long)Mem.StallCycles,
              100.0 * static_cast<double>(Mem.StallCycles) /
                  static_cast<double>(Rt.cycles()));
  std::printf("checks:     %llu executed, %llu refs traced\n",
              (unsigned long long)Stats.ChecksExecuted,
              (unsigned long long)Stats.TracedRefs);
  std::printf("matching:   %llu complete matches, %llu clauses scanned\n",
              (unsigned long long)Stats.CompleteMatches,
              (unsigned long long)Stats.MatchClausesScanned);
  std::printf("prefetches: %llu issued, %llu useful, %llu wasted, "
              "%llu redundant, %llu partial hits\n",
              (unsigned long long)Mem.PrefetchesIssued,
              (unsigned long long)(L1.UsefulPrefetches + L2.UsefulPrefetches),
              (unsigned long long)(L1.WastedPrefetches + L2.WastedPrefetches),
              (unsigned long long)Mem.PrefetchesRedundant,
              (unsigned long long)Mem.PartialHits);
  for (const obs::PrefetcherStats &Pf : Rt.prefetcherStats())
    std::printf("%-12s%llu prefetches (%llu useful, %llu late), "
                "%llu trains\n",
                prefetch::Prefetcher::kindToken(
                    static_cast<prefetch::Prefetcher::Kind>(
                        static_cast<uint8_t>(Pf.Kind))),
                (unsigned long long)Pf.Issued, (unsigned long long)Pf.Useful,
                (unsigned long long)Pf.Late, (unsigned long long)Pf.Trains);

  if (!Stats.Cycles.empty()) {
    std::printf("\noptimization cycles:\n");
    Table Out;
    Out.row()
        .cell("cycle")
        .cell("traced")
        .cell("detected")
        .cell("installed")
        .cell("DFSM states")
        .cell("clauses")
        .cell("procs");
    for (size_t C = 0; C < Stats.Cycles.size(); ++C) {
      const CycleStats &Cycle = Stats.Cycles[C];
      Out.row()
          .cell(uint64_t{C})
          .cell(uint64_t{Cycle.TracedRefs})
          .cell(uint64_t{Cycle.HotStreamsDetected})
          .cell(uint64_t{Cycle.StreamsInstalled})
          .cell(uint64_t{Cycle.DfsmStates})
          .cell(uint64_t{Cycle.CheckClausesInjected})
          .cell(uint64_t{Cycle.ProceduresModified});
    }
    Out.print();
  }

  if (Opts.Report) {
    printOverheadBreakdown(Rt.cycleBreakdown());
    // Remaining demand misses = L1 demand misses not hidden by a
    // prefetch (useful hits never reached the miss path).
    printStreamEffectiveness(Rt.streamPrefetchStats(), L1.Misses);
  }
  if (!Opts.TraceEvents.empty())
    writeTraceEvents(Opts.TraceEvents, Rt.timeline(), Rt.cycles());

  return Rt.cycles();
}

} // namespace

/// Replays a recorded trace and verifies the run reproduced the recorded
/// outcome exactly.  Returns the process exit code.
int replayRecordedTrace(const std::string &Path) {
  replay::Trace T;
  std::string Error;
  if (!replay::readTraceFile(Path, T, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  const replay::ReplayResult Result = replay::replayTrace(T);
  std::printf("workload:   %s (%llu iterations, recorded)\n",
              T.Meta.Workload.c_str(), (unsigned long long)T.Meta.Iterations);
  std::printf("mode:       %s%s\n", runModeName(T.Meta.Mode),
              featureSuffix(T.Meta.Prefetchers, T.Meta.Pin).c_str());
  std::printf("events:     %zu replayed\n", T.Events.size());
  std::printf("cycles:     %llu recorded, %llu replayed\n",
              (unsigned long long)T.Summary.Cycles,
              (unsigned long long)Result.Replayed.Cycles);
  std::printf("L1 misses:  %llu recorded, %llu replayed\n",
              (unsigned long long)T.Summary.L1Misses,
              (unsigned long long)Result.Replayed.L1Misses);
  std::printf("L2 misses:  %llu recorded, %llu replayed\n",
              (unsigned long long)T.Summary.L2Misses,
              (unsigned long long)Result.Replayed.L2Misses);
  if (!Result.SummaryMatches) {
    std::fprintf(stderr, "replay:     DIVERGED (%s)\n",
                 Result.Divergence.c_str());
    return 1;
  }
  std::printf("replay:     identical\n");
  return 0;
}

int main(int Argc, char **Argv) {
  const Options Opts = parseOptions(Argc, Argv);
  if (!Opts.ReplayFrom.empty())
    return replayRecordedTrace(Opts.ReplayFrom);
  const uint64_t Cycles = runConfigured(Opts, Opts.Mode, /*Report=*/true);

  if (Opts.Compare && Opts.Mode != RunMode::Original) {
    const uint64_t Original =
        runConfigured(Opts, RunMode::Original, /*Report=*/false);
    std::printf("\nvs original: %+.2f%% (%llu -> %llu cycles)\n",
                100.0 * (static_cast<double>(Cycles) -
                         static_cast<double>(Original)) /
                    static_cast<double>(Original),
                (unsigned long long)Original, (unsigned long long)Cycles);
  }
  return 0;
}
