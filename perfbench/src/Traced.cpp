//===- perfbench/src/Traced.cpp - Traced per-layer benchmark run ----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run behind the per-layer metrics.  It never times single
/// calls: one simulated access costs about as much as one timer read, so
/// every host-time figure is a whole pass over recorded work, timed from
/// this file around a layer's public entry point.  Host times are scaled
/// to reference-host seconds by host probe runs taken just before each
/// group of passes (HostProbe.h), so runs at different host speeds compare.
///
///  1. One unobserved pass over the cells gives each layer's call counts
///     (accesses, checks, traced references, optimization cycles, check
///     site hits) and the CPU time they have to explain.
///  2. A slice of every cell (a hundredth of its full-length run) is
///     recorded with replay::TraceRecorder and replayed into the layers:
///     replay::ReplayWorkload, a bare memsim::MemoryHierarchy, the same
///     hierarchy plus the cell's prefetch::PrefetcherStack, and
///     profiling::BurstyTracer::check.
///  3. For Dyn-pref cells, the first optimization cycle that installs
///     code is captured from a live run (grammar, reference table, check
///     code) and its work is redone in isolation: Grammar::append,
///     analyzeHotStreams, PrefixDfsm + generateCheckCode, and
///     PrefetchEngine::onAccess over the slice (a memsim pass with the
///     captured check code installed, minus the bare memsim pass).
///
/// Self-checks tie the isolated passes to the live run: the memsim pass
/// over an Original slice must reproduce the live slice's cycles and L1/L2
/// counts exactly, the replay must reproduce the live slice's cycles, and
/// the isolated grammar/analysis/DFSM rebuild must reproduce the live
/// cycle's grammar rules, hot streams, DFSM states and check clauses.
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "HostProbe.h"

#include "analysis/FastAnalyzer.h"
#include "dfsm/CheckCodeGen.h"
#include "dfsm/PrefixDfsm.h"
#include "engine/ResultsJson.h"
#include "prefetch/PrefetcherStack.h"
#include "replay/TraceRecorder.h"
#include "replay/TraceReplayer.h"
#include "sequitur/Grammar.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace perfbench;

namespace {

/// Timed passes are repeated and their median kept.
constexpr int PassRepeats = 5;

template <typename Fn> double medianSeconds(int Repeats, Fn &&Pass) {
  std::vector<double> Samples;
  for (int I = 0; I < Repeats; ++I) {
    const double Start = threadCpuSeconds();
    Pass();
    Samples.push_back(threadCpuSeconds() - Start);
  }
  return median(Samples);
}

/// The simulated state a slice ends in, as far as memsim determines it.
struct MemState {
  uint64_t Cycles = 0, L1Hits = 0, L1Misses = 0, L2Hits = 0, L2Misses = 0;
  bool operator==(const MemState &Other) const = default;
};

MemState memState(const memsim::MemoryHierarchy &H) {
  return {H.now(), H.l1().stats().Hits, H.l1().stats().Misses,
          H.l2().stats().Hits, H.l2().stats().Misses};
}

/// One recorded event the memsim pass consumes, extracted from the trace
/// before timing so the timed loop is the layer's work, not trace decoding.
struct MemOp {
  bool IsAccess;
  vulcan::SiteId Site;
  uint64_t Value; ///< address for an access, cycles for compute
};

/// A recorded slice of one cell plus its live timings.
struct Slice {
  replay::Trace Trace;
  std::vector<MemOp> Ops;
  uint64_t Accesses = 0;
  uint64_t Checks = 0;    ///< procedure entries + loop back edges
  double LiveSeconds = 0; ///< Workload::run of the slice, no observer
  double RecordedSeconds = 0;
  uint64_t LiveCycles = 0;
};

uint64_t sliceIterations(const Cell &C) {
  return std::max<uint64_t>(
      1, workloads::createWorkload(C.Spec.Workload)->defaultIterations() / 100);
}

/// Live run of the first \p Iterations of \p C under \p Config.
MemState liveSlice(const Cell &C, const core::OptimizerConfig &Config,
                   uint64_t Iterations, double *Seconds) {
  std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(C.Spec.Workload);
  core::Runtime Rt(Config);
  Bench->setup(Rt);
  const double Start = threadCpuSeconds();
  Bench->run(Rt, Iterations);
  if (Seconds)
    *Seconds = threadCpuSeconds() - Start;
  return memState(Rt.memory());
}

Slice recordSlice(const Cell &C, uint64_t Iterations) {
  const core::OptimizerConfig Config = C.Spec.materializeConfig();
  Slice S;
  std::vector<double> Live, Recorded;
  for (int I = 0; I < PassRepeats; ++I) {
    double Seconds = 0;
    S.LiveCycles = liveSlice(C, Config, Iterations, &Seconds).Cycles;
    Live.push_back(Seconds);

    replay::TraceRecorder Rec(
        replay::metaFromConfig(Config, C.Spec.Workload, Iterations));
    std::unique_ptr<workloads::Workload> Bench =
        workloads::createWorkload(C.Spec.Workload);
    core::Runtime Rt(Config);
    Rt.setObserver(&Rec);
    Bench->setup(Rt);
    Rec.markSetupDone();
    const double Start = threadCpuSeconds();
    Bench->run(Rt, Iterations);
    Rt.setObserver(nullptr);
    Recorded.push_back(threadCpuSeconds() - Start);
    Rec.finish(Rt);
    if (I + 1 == PassRepeats)
      S.Trace = Rec.takeTrace();
  }
  S.LiveSeconds = median(Live);
  S.RecordedSeconds = median(Recorded);

  bool Running = false;
  for (const replay::TraceEvent &E : S.Trace.Events) {
    using K = replay::TraceEvent::Kind;
    if (E.K == K::SetupDone)
      Running = true;
    if (!Running)
      continue;
    if (E.K == K::Load || E.K == K::Store) {
      S.Ops.push_back({true, static_cast<vulcan::SiteId>(E.A), E.B});
      ++S.Accesses;
    } else if (E.K == K::Compute) {
      S.Ops.push_back({false, 0, E.A});
    } else if (E.K == K::EnterProcedure || E.K == K::LoopBackEdge) {
      ++S.Checks;
    }
  }
  return S;
}

/// The recorded stream fed to a bare hierarchy (and, when \p Stack is
/// given, to the prefetcher stack exactly as core::Runtime feeds it).
MemState memsimPass(const Slice &S, const core::OptimizerConfig &Config,
                    bool WithStack, double *Seconds) {
  memsim::MemoryHierarchy H(Config.L1, Config.L2, Config.Latency);
  std::unique_ptr<prefetch::PrefetcherStack> Stack;
  if (WithStack) {
    Stack = std::make_unique<prefetch::PrefetcherStack>(Config.Prefetchers);
    H.setListener(Stack.get());
  }
  const unsigned L1Hit = Config.Latency.L1HitCycles;
  const double Start = threadCpuSeconds();
  if (Stack) {
    for (const MemOp &Op : S.Ops) {
      if (!Op.IsAccess) {
        H.tick(Op.Value);
        continue;
      }
      const uint64_t Latency = H.access(Op.Value);
      Stack->onAccess(Op.Site, Op.Value, Latency, Latency > L1Hit, H);
    }
  } else {
    for (const MemOp &Op : S.Ops) {
      if (Op.IsAccess)
        H.access(Op.Value);
      else
        H.tick(Op.Value);
    }
  }
  *Seconds = threadCpuSeconds() - Start;
  return memState(H);
}

/// The first optimization cycle of a live Dyn-pref run that installed
/// check code, captured while it is installed (the profiler keeps that
/// cycle's grammar until the hibernation ends).
struct CapturedCycle {
  bool Captured = false;
  core::CycleStats Cycle;
  std::vector<uint64_t> Terminals; ///< the cycle's traced reference ids
  sequitur::GrammarSnapshot Snapshot;
  analysis::DataRefTable Refs;
  dfsm::CheckCode Code;
  std::vector<core::PrefetchEngine::InstalledStream> Streams;
  size_t SiteCount = 0;
};

class CycleCapture : public core::RuntimeObserver {
public:
  CycleCapture(core::Runtime &Runtime, CapturedCycle &Into)
      : Rt(Runtime), Out(Into) {}

  void onAccessBatch(const AccessEvent *, size_t) override {}
  void onEnterProcedure(vulcan::ProcId) override { poll(); }
  void onLoopBackEdge() override { poll(); }

private:
  void poll() {
    if (Out.Captured || !Rt.engine().installed())
      return;
    Out.Captured = true;
    Out.Cycle = Rt.stats().Cycles.back();
    const sequitur::Grammar &G = Rt.optimizer().profiler().grammar();
    Out.Terminals = G.expandRule(*G.start());
    Out.Snapshot = G.snapshot();
    Out.Refs = Rt.optimizer().profiler().refTable();
    Out.Code = Rt.engine().installedCode();
    Out.Streams = Rt.engine().installedStreams();
    Out.SiteCount = Rt.image().siteCount();
  }

  core::Runtime &Rt;
  CapturedCycle &Out;
};

/// The installed streams' full symbol lists, recovered from the hot
/// streams the analysis reports: an installed stream is a suffix of one
/// hot stream whose last tail-length references have the installed
/// prefetch addresses.
std::vector<std::vector<uint32_t>>
recoverStreamSymbols(const CapturedCycle &Cap,
                     const analysis::FastAnalysisResult &Hot,
                     uint32_t HeadLength) {
  std::vector<std::vector<uint32_t>> Out;
  for (const core::PrefetchEngine::InstalledStream &Installed : Cap.Streams) {
    const size_t Tail = Installed.TailAddrs.size();
    for (const analysis::HotDataStream &Stream : Hot.Streams) {
      const size_t Len = Stream.Symbols.size();
      if (Len < Tail + HeadLength)
        continue;
      const size_t HeadPos = Len - Tail - HeadLength;
      bool Same = true;
      for (size_t I = 0; I < Tail && Same; ++I)
        Same = Cap.Refs.refOf(Stream.Symbols[HeadPos + HeadLength + I])
                   .Addr == Installed.TailAddrs[I];
      if (!Same)
        continue;
      Out.emplace_back(Stream.Symbols.begin() + static_cast<ptrdiff_t>(HeadPos),
                       Stream.Symbols.end());
      break;
    }
  }
  return Out;
}

/// Per-workload accumulators: summed pass times and the call counts they
/// cover, turned into unit costs at the end.
struct LayerTotals {
  double LiveSeconds = 0, RecordedSeconds = 0, ReplaySeconds = 0;
  uint64_t SliceAccesses = 0;
  double MemsimSeconds = 0;
  std::map<std::string, double> EngineSeconds;  ///< pair/markov: stack pass
  std::map<std::string, double> EngineBaseline; ///< ... minus bare pass
  std::map<std::string, uint64_t> EngineAccesses;
  double CheckSeconds = 0;
  uint64_t CheckCalls = 0;
  double AppendSeconds = 0;
  uint64_t AppendCalls = 0;
  double AnalyzeSeconds = 0, DfsmSeconds = 0;
  uint64_t CapturedCycles = 0;
  double ScanSeconds = 0;
  uint64_t ScanCalls = 0;
};

double perCall(double Seconds, uint64_t Calls, double Scale) {
  return Calls == 0 ? 0.0 : Seconds * Scale / static_cast<double>(Calls);
}

const char *engineName(const engine::ExperimentSpec &Spec) {
  using prefetch::Prefetcher;
  if (Spec.Prefetchers.has(Prefetcher::Kind::PairTable))
    return "pair";
  if (Spec.Prefetchers.has(Prefetcher::Kind::Markov))
    return "markov";
  return nullptr;
}

} // namespace

std::string perfbench::runTraced(const std::string &Workload,
                                 const std::vector<Cell> &Cells) {
  std::vector<std::string> Failures;
  auto Fail = [&Failures](const Cell &C, const std::string &What) {
    Failures.push_back(C.Spec.label() + ": " + What);
  };

  // 1. One unobserved pass: results, layer call counts, CPU time.  Dyn-pref
  //    cells are followed by their Original counterpart, timed back to
  //    back, for the host overhead ratio.
  std::vector<engine::RunResult> Results;
  double TimedSeconds = 0.0, RawSeconds = 0.0, LogOverheadSum = 0.0;
  unsigned OverheadPairs = 0;
  HostProbe Probe;
  std::vector<double> ProbeSeconds;
  // Host-time scale factor for the passes that follow (HostProbe.h).
  auto HostScaleNow = [&Probe] {
    return HostProbe::scale(Probe.run(), Probe.run());
  };
  {
    PreparedCell Warm = prepareCell(Cells.front());
    Warm.Bench->run(*Warm.Rt, Cells.front().Iterations / 20 + 1);
  }
  for (const Cell &C : Cells) {
    PreparedCell P = prepareCell(C);
    const double ProbeBefore = Probe.run();
    double Start = threadCpuSeconds();
    P.Bench->run(*P.Rt, C.Iterations);
    const double CellSeconds = threadCpuSeconds() - Start;
    const double ProbeAfter = Probe.run();
    ProbeSeconds.insert(ProbeSeconds.end(), {ProbeBefore, ProbeAfter});
    RawSeconds += CellSeconds;
    TimedSeconds += CellSeconds * HostProbe::scale(ProbeBefore, ProbeAfter);
    Results.push_back(captureResult(C, *P.Rt));

    if (C.Spec.Mode == core::RunMode::DynamicPrefetch) {
      Cell Original = C;
      Original.Spec.Mode = core::RunMode::Original;
      PreparedCell O = prepareCell(Original);
      Start = threadCpuSeconds();
      O.Bench->run(*O.Rt, Original.Iterations);
      LogOverheadSum += std::log(CellSeconds / (threadCpuSeconds() - Start));
      ++OverheadPairs;
    }
  }

  // Workload set-up alone (the Runtime is constructed untimed).
  double SetupSeconds = 0.0;
  for (const Cell &C : Cells) {
    const double Scale = HostScaleNow();
    std::vector<double> Samples;
    for (int I = 0; I < 21; ++I) {
      std::unique_ptr<workloads::Workload> Bench =
          workloads::createWorkload(C.Spec.Workload);
      core::Runtime Rt(C.Spec.materializeConfig());
      const double Start = threadCpuSeconds();
      Bench->setup(Rt);
      Samples.push_back(threadCpuSeconds() - Start);
    }
    SetupSeconds += median(Samples) * Scale;
  }

  const double JsonSeconds =
      HostScaleNow() *
      medianSeconds(5, [&Results] { (void)engine::resultsToJson(Results); });

  // 2 + 3. Recorded slices replayed into each layer.
  LayerTotals L;
  for (const Cell &C : Cells) {
    const core::OptimizerConfig Config = C.Spec.materializeConfig();
    const uint64_t Iterations = sliceIterations(C);
    double Scale = HostScaleNow();
    const Slice S = recordSlice(C, Iterations);
    L.LiveSeconds += S.LiveSeconds * Scale;
    L.RecordedSeconds += S.RecordedSeconds * Scale;
    L.SliceAccesses += S.Accesses;

    uint64_t ReplayCycles = 0;
    L.ReplaySeconds += Scale * medianSeconds(PassRepeats, [&] {
      core::Runtime Rt(Config);
      replay::ReplayWorkload Replay(S.Trace);
      Replay.setup(Rt);
      Replay.run(Rt, 1);
      ReplayCycles = Rt.cycles();
    });
    if (ReplayCycles != S.LiveCycles)
      Fail(C, "replayed slice cycles differ from the live slice");

    // Memsim alone, checked against a live Original slice (the cell's own
    // slice when the cell runs in Original mode).
    core::OptimizerConfig OriginalConfig = Config;
    OriginalConfig.Mode = core::RunMode::Original;
    const bool HasEngine = Config.Prefetchers.any();
    std::vector<double> Bare, Stacked;
    MemState BareState, StackState;
    for (int I = 0; I < PassRepeats; ++I) {
      double Seconds = 0;
      BareState = memsimPass(S, OriginalConfig, false, &Seconds);
      Bare.push_back(Seconds);
      if (HasEngine) {
        StackState = memsimPass(S, OriginalConfig, true, &Seconds);
        Stacked.push_back(Seconds);
      }
    }
    const double BareSeconds = median(Bare) * Scale;
    L.MemsimSeconds += BareSeconds;
    const MemState LiveOriginal =
        liveSlice(C, OriginalConfig, Iterations, nullptr);
    if (!HasEngine && !(LiveOriginal == BareState))
      Fail(C, "memsim pass differs from the live Original slice");
    if (HasEngine) {
      if (!(LiveOriginal == StackState))
        Fail(C, "memsim + prefetcher pass differs from the live slice");
      const std::string Name = engineName(C.Spec);
      L.EngineSeconds[Name] += median(Stacked) * Scale;
      L.EngineBaseline[Name] += BareSeconds;
      L.EngineAccesses[Name] += S.Accesses;
    }

    if (C.Spec.Mode != core::RunMode::DynamicPrefetch)
      continue;

    // Bursty tracer: one check per recorded entry/back edge.
    L.CheckSeconds += Scale * medianSeconds(PassRepeats, [&] {
      profiling::BurstyTracer Tracer(Config.Tracing);
      for (uint64_t I = 0; I < S.Checks; ++I)
        (void)Tracer.check();
    });
    L.CheckCalls += S.Checks;

    // Capture the first installing cycle of a live run.
    CapturedCycle Cap;
    {
      PreparedCell P = prepareCell(C);
      CycleCapture Capture(*P.Rt, Cap);
      P.Rt->setObserver(&Capture);
      P.Bench->run(*P.Rt, C.Iterations);
      P.Rt->setObserver(nullptr);
    }
    if (!Cap.Captured) {
      Fail(C, "no optimization cycle installed check code");
      continue;
    }
    ++L.CapturedCycles;
    Scale = HostScaleNow(); // the capture run took a full cell's time

    size_t Rules = 0;
    L.AppendSeconds += Scale * medianSeconds(PassRepeats, [&] {
      sequitur::Grammar G;
      for (uint64_t T : Cap.Terminals)
        G.append(T);
      Rules = G.ruleCount();
    });
    L.AppendCalls += Cap.Terminals.size();
    if (Rules != Cap.Cycle.GrammarRules)
      Fail(C, "isolated grammar rule count differs from the live cycle");

    analysis::AnalysisConfig AC = Config.Analysis;
    AC.HeatThreshold = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(Cap.Cycle.TracedRefs) *
                                 Config.HeatTraceFraction));
    analysis::FastAnalysisResult Hot;
    L.AnalyzeSeconds += Scale * medianSeconds(PassRepeats, [&] {
      Hot = analysis::analyzeHotStreams(Cap.Snapshot, AC);
    });
    if (Hot.Streams.size() != Cap.Cycle.HotStreamsDetected)
      Fail(C, "isolated analysis hot stream count differs from the live cycle");

    const std::vector<std::vector<uint32_t>> Symbols =
        recoverStreamSymbols(Cap, Hot, Config.Dfsm.HeadLength);
    size_t States = 0, Clauses = 0;
    L.DfsmSeconds += Scale * medianSeconds(PassRepeats, [&] {
      dfsm::PrefixDfsm Machine(Symbols, Config.Dfsm);
      const dfsm::CheckCode Code = dfsm::generateCheckCode(Machine, Cap.Refs);
      States = Machine.stateCount();
      Clauses = Code.totalClauses();
    });
    if (States != Cap.Cycle.DfsmStates || Clauses != Cap.Cycle.CheckClausesInjected)
      Fail(C, "isolated DFSM build differs from the live cycle's dfsm_states "
              "or check clauses");

    // Prefix matching: the slice through memsim with the captured check
    // code installed, minus the bare memsim pass.
    uint64_t SiteHits = 0;
    const double Scan = medianSeconds(PassRepeats, [&] {
      core::PrefetchEngine Engine;
      Engine.install(Cap.Code, Cap.Streams, Cap.SiteCount);
      memsim::MemoryHierarchy H(Config.L1, Config.L2, Config.Latency);
      core::RunStats Stats;
      for (const MemOp &Op : S.Ops) {
        if (!Op.IsAccess) {
          H.tick(Op.Value);
          continue;
        }
        H.access(Op.Value);
        if (Engine.siteInstrumented(Op.Site))
          Engine.onAccess(Op.Site, Op.Value, Config, H, Stats);
      }
      SiteHits = Stats.InstrumentedSiteHits;
    });
    L.ScanSeconds += Scan * Scale - BareSeconds;
    L.ScanCalls += SiteHits;
  }

  // Counts from the unobserved pass.
  uint64_t Accesses = 0, Checks = 0, Traced = 0, OptCycles = 0, SiteHits = 0;
  uint64_t L1Hits = 0, L1Misses = 0, L2Hits = 0, L2Misses = 0;
  uint64_t Rules = 0, HotStreams = 0, States = 0, Clauses = 0;
  uint64_t Scanned = 0, Requested = 0;
  memsim::HierarchyStats Mem;
  std::vector<std::pair<std::string, uint64_t>> Phases;
  obs::visitCycleBreakdownMetrics(
      obs::CycleBreakdown(), [&Phases](const obs::MetricDef &Def, uint64_t) {
        Phases.emplace_back(std::string("obs.") + Def.Id + "_cycles", 0);
      });
  std::map<std::string, uint64_t> EngineIssued, EngineUseful, EngineCellAccesses;
  for (const engine::RunResult &R : Results) {
    Accesses += R.Stats.TotalAccesses;
    Checks += R.Stats.ChecksExecuted;
    Traced += R.Stats.TracedRefs;
    OptCycles += R.Stats.Cycles.size();
    SiteHits += R.Stats.InstrumentedSiteHits;
    Scanned += R.Stats.MatchClausesScanned;
    Requested += R.Stats.PrefetchesRequested;
    for (const core::CycleStats &Cy : R.Stats.Cycles) {
      Rules += Cy.GrammarRules;
      HotStreams += Cy.HotStreamsDetected;
      States += Cy.DfsmStates;
      Clauses += Cy.CheckClausesInjected;
    }
    L1Hits += R.L1.Hits;
    L1Misses += R.L1.Misses;
    L2Hits += R.L2.Hits;
    L2Misses += R.L2.Misses;
    Mem.PrefetchesIssued += R.Memory.PrefetchesIssued;
    Mem.PrefetchesUseful += R.Memory.PrefetchesUseful;
    Mem.PartialHits += R.Memory.PartialHits;
    Mem.PrefetchesRedundant += R.Memory.PrefetchesRedundant;
    size_t Phase = 0;
    obs::visitCycleBreakdownMetrics(
        R.Breakdown, [&](const obs::MetricDef &, uint64_t Value) {
          Phases[Phase++].second += Value;
        });
    for (const obs::PrefetcherStats &P : R.Prefetchers) {
      const char *Name =
          P.Kind == prefetch::Prefetcher::Kind::PairTable ? "pair"
          : P.Kind == prefetch::Prefetcher::Kind::Markov  ? "markov"
                                                          : nullptr;
      if (!Name)
        continue;
      EngineIssued[Name] += P.Issued;
      EngineUseful[Name] += P.Useful;
    }
    if (const char *Name = engineName(R.Spec))
      EngineCellAccesses[Name] += R.Stats.TotalAccesses;
  }

  // Unit costs (ns per call unless named otherwise).
  const double Ns = 1e9;
  const double MemsimNs = perCall(L.MemsimSeconds, L.SliceAccesses, Ns);
  const double ReplayNs = perCall(L.ReplaySeconds, L.SliceAccesses, Ns);
  const double DriveNs =
      perCall(L.LiveSeconds - L.ReplaySeconds, L.SliceAccesses, Ns);
  const double CheckNs = perCall(L.CheckSeconds, L.CheckCalls, Ns);
  const double AppendNs = perCall(L.AppendSeconds, L.AppendCalls, Ns);
  const double AnalyzeUs = perCall(L.AnalyzeSeconds, L.CapturedCycles, 1e6);
  const double DfsmUs = perCall(L.DfsmSeconds, L.CapturedCycles, 1e6);
  const double ScanNs = perCall(L.ScanSeconds, L.ScanCalls, Ns);
  std::map<std::string, double> EngineNs;
  for (const char *Name : {"pair", "markov"})
    EngineNs[Name] = perCall(L.EngineSeconds[Name] - L.EngineBaseline[Name],
                             L.EngineAccesses[Name], Ns);

  // Each layer's share of the unobserved pass: unit cost x call count.
  // Their sum is how much of that pass the unit costs account for.
  const std::vector<std::pair<std::string, double>> Terms = {
      {"memsim", static_cast<double>(Accesses) * MemsimNs},
      {"workloads.drive", static_cast<double>(Accesses) * DriveNs},
      {"profiling", static_cast<double>(Checks) * CheckNs},
      {"sequitur", static_cast<double>(Traced) * AppendNs},
      {"analysis", static_cast<double>(OptCycles) * AnalyzeUs * 1e3},
      {"dfsm", static_cast<double>(OptCycles) * DfsmUs * 1e3},
      {"core.scan", static_cast<double>(SiteHits) * ScanNs},
      {"prefetch.pair",
       static_cast<double>(EngineCellAccesses["pair"]) * EngineNs["pair"]},
      {"prefetch.markov",
       static_cast<double>(EngineCellAccesses["markov"]) * EngineNs["markov"]},
  };
  double Explained = 0.0;
  JsonObject Shares;
  for (const auto &[Layer, Nanos] : Terms) {
    Explained += Nanos / Ns / TimedSeconds;
    Shares.num(Layer, Nanos / Ns / TimedSeconds);
  }

  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den == 0 ? 0.0
                    : static_cast<double>(Num) / static_cast<double>(Den);
  };
  JsonObject M;
  auto Put = [&M](const std::string &Name, double Value, const char *Unit) {
    M.raw(Name, JsonObject().num("value", Value).str("unit", Unit).text());
  };
  auto PutCount = [&Put](const std::string &Name, uint64_t Value,
                         const char *Unit) {
    Put(Name, static_cast<double>(Value), Unit);
  };
  Put("host.probe_ns_per_access", HostProbe::nsPerAccess(median(ProbeSeconds)),
      "ns");
  Put("host.raw_accesses_per_s", static_cast<double>(Accesses) / RawSeconds,
      "accesses/s");
  Put("workloads.setup_us", SetupSeconds * 1e6, "us");
  Put("workloads.drive_ns_per_access", DriveNs, "ns");
  Put("replay.ns_per_access", ReplayNs, "ns");
  Put("memsim.access_ns", MemsimNs, "ns");
  Put("memsim.l1_miss_rate", Ratio(L1Misses, L1Hits + L1Misses), "fraction");
  Put("memsim.l2_miss_rate", Ratio(L2Misses, L2Hits + L2Misses), "fraction");
  PutCount("memsim.prefetch_issued", Mem.PrefetchesIssued, "count");
  PutCount("memsim.prefetch_useful", Mem.PrefetchesUseful, "count");
  PutCount("memsim.prefetch_late", Mem.PartialHits, "count");
  PutCount("memsim.prefetch_redundant", Mem.PrefetchesRedundant, "count");
  Put("memsim.prefetch_accuracy",
      Ratio(Mem.PrefetchesUseful, Mem.PrefetchesIssued), "fraction");
  for (const auto &[Name, Cycles] : Phases)
    PutCount(Name, Cycles, "cycles");
  for (const char *Name : {"pair", "markov"}) {
    const std::string Prefix = std::string("prefetch.") + Name;
    Put(Prefix + ".ns_per_access", EngineNs[Name], "ns");
    PutCount(Prefix + ".issued", EngineIssued[Name], "count");
    Put(Prefix + ".accuracy", Ratio(EngineUseful[Name], EngineIssued[Name]),
        "fraction");
  }
  Put("profiling.check_ns", CheckNs, "ns");
  PutCount("profiling.checks_executed", Checks, "count");
  PutCount("profiling.traced_refs", Traced, "count");
  Put("sequitur.append_ns", AppendNs, "ns");
  PutCount("sequitur.grammar_rules", Rules, "count");
  Put("analysis.analyze_us", AnalyzeUs, "us");
  PutCount("analysis.hot_streams", HotStreams, "count");
  Put("dfsm.build_us", DfsmUs, "us");
  PutCount("dfsm.states", States, "count");
  PutCount("dfsm.check_clauses", Clauses, "count");
  Put("core.scan_ns", ScanNs, "ns");
  PutCount("core.match_clauses_scanned", Scanned, "count");
  PutCount("core.prefetches_requested", Requested, "count");
  PutCount("core.opt_cycles", OptCycles, "count");
  Put("core.host_overhead_x",
      OverheadPairs == 0 ? 0.0
                         : std::exp(LogOverheadSum / OverheadPairs),
      "x");
  Put("engine.results_json_ms", JsonSeconds * 1e3, "ms");
  Put("trace.explained_frac", Explained, "fraction");
  Put("trace.recorder_overhead_frac",
      (L.RecordedSeconds - L.LiveSeconds) / L.LiveSeconds, "fraction");

  if (!Probe.ok())
    Failures.push_back("host probe: runs gave different results");
  std::vector<std::string> CellsJson, FailuresJson;
  for (const engine::RunResult &R : Results)
    CellsJson.push_back(cellJson(R));
  for (const std::string &F : Failures)
    FailuresJson.push_back("\"" + engine::jsonEscape(F) + "\"");
  JsonObject Out;
  Out.str("workload", Workload)
      .raw("cells", jsonArray(CellsJson))
      .raw("self_check_failures", jsonArray(FailuresJson))
      .num("timed_cpu_s", TimedSeconds)
      .raw("layer_shares", Shares.text())
      .raw("metrics", M.text());
  return Out.text();
}
