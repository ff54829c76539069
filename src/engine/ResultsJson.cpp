//===- engine/ResultsJson.cpp - Machine-readable results ------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ResultsJson.h"

#include "obs/CycleAccount.h"
#include "obs/PrefetchStats.h"
#include "prefetch/Prefetcher.h"

#include <cstdio>

using namespace hds;
using namespace hds::engine;

namespace {

std::string formatDouble(double Value, const char *Format) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, Value);
  return Buf;
}

const char *statusName(RunResult::Status State) {
  switch (State) {
  case RunResult::Status::Ok:
    return "ok";
  case RunResult::Status::Error:
    return "error";
  }
  return "unknown";
}

/// The Original-mode baseline a result's overhead is normalized to, or
/// nullptr when the result set has none: same workload/scale/seed and
/// iteration override, no hardware prefetchers, completed successfully.
const RunResult *findBaseline(const std::vector<RunResult> &Results,
                              const ExperimentSpec &Spec) {
  for (const RunResult &Candidate : Results) {
    const ExperimentSpec &C = Candidate.Spec;
    if (Candidate.ok() && C.Mode == core::RunMode::Original &&
        C.Prefetchers.none() && C.Workload == Spec.Workload &&
        C.Scale == Spec.Scale && C.Seed == Spec.Seed &&
        C.Iterations == Spec.Iterations)
      return &Candidate;
  }
  return nullptr;
}

/// Tiny append-only JSON builder: tracks indent and comma placement so
/// the emitting code reads like the schema.
class JsonBuilder {
public:
  /// The finished document with its closing newline, in a buffer no
  /// larger than the text (callers may keep one document per cell).
  std::string take() {
    Out += '\n';
    Out.shrink_to_fit();
    return std::move(Out);
  }

  void openObject(const char *Key = nullptr) { open(Key, '{'); }
  void openArray(const char *Key = nullptr) { open(Key, '['); }

  void close(char Bracket) {
    --Depth;
    Out += '\n';
    indent();
    Out += Bracket;
    NeedComma = true;
  }

  void field(const char *Key, const std::string &RawValue) {
    comma();
    indent();
    Out += '"';
    Out += Key;
    Out += "\": ";
    Out += RawValue;
    NeedComma = true;
  }

  void field(const char *Key, uint64_t Value) {
    field(Key, std::to_string(Value));
  }

  void fieldString(const char *Key, const std::string &Value) {
    std::string Quoted(1, '"');
    Quoted += jsonEscape(Value);
    Quoted += '"';
    field(Key, Quoted);
  }

  void fieldBool(const char *Key, bool Value) {
    field(Key, Value ? "true" : "false");
  }

private:
  void open(const char *Key, char Bracket) {
    comma();
    indent();
    if (Key) {
      Out += '"';
      Out += Key;
      Out += "\": ";
    }
    Out += Bracket;
    ++Depth;
    NeedComma = false;
  }

  void comma() {
    if (NeedComma)
      Out += ',';
    Out += '\n';
  }

  void indent() { Out.append(static_cast<size_t>(Depth) * 2, ' '); }

  std::string Out = "{";
  int Depth = 1;
  bool NeedComma = false;
};

/// Emits every counter of a visit*Metrics enumeration as "id": value.
/// The metric ids double as the JSON keys, so the schema follows the
/// append-only metric contract (obs/Metrics.h) automatically.
struct MetricFieldEmitter {
  JsonBuilder &Json;
  template <typename FieldT>
  void operator()(const obs::MetricDef &Def, const FieldT &Field) const {
    Json.field(Def.Id, static_cast<uint64_t>(Field));
  }
};

void emitCacheStats(JsonBuilder &Json, const char *Key,
                    const memsim::CacheStats &Stats) {
  Json.openObject(Key);
  memsim::visitCacheStatsMetrics(Stats, MetricFieldEmitter{Json});
  Json.close('}');
}

void emitResult(JsonBuilder &Json, const RunResult &Result,
                const RunResult *Baseline, bool IncludeTiming) {
  const ExperimentSpec &Spec = Result.Spec;
  Json.openObject();
  Json.fieldString("workload", Spec.Workload);
  Json.fieldString("mode", core::runModeToken(Spec.Mode));
  Json.fieldString("mode_name", core::runModeName(Spec.Mode));
  Json.field("scale", formatDouble(Spec.Scale, "%.6g"));
  Json.field("seed", Spec.Seed);
  Json.field("head_length", uint64_t{Spec.HeadLength});
  // Legacy per-kind identity fields, derived from the selection so old
  // documents keep diffing byte-identical.
  Json.fieldBool("stride", Spec.Prefetchers.has(prefetch::Prefetcher::Stride));
  Json.fieldBool("markov", Spec.Prefetchers.has(prefetch::Prefetcher::Markov));
  Json.fieldBool("pin", Spec.Pin);
  Json.fieldBool("adaptive", Spec.Adaptive);
  // The stream engine, the dueling selector and the tuner are gone, but
  // perfbench/run.py still selects its reference cells by "stream_pf",
  // "duel_pf" and "tuned" all false, so every cell keeps the three.
  Json.fieldBool("stream_pf", false);
  Json.fieldBool("pair_pf",
                 Spec.Prefetchers.has(prefetch::Prefetcher::PairTable));
  Json.fieldBool("duel_pf", false);
  Json.fieldBool("tuned", false);
  Json.fieldString("status", statusName(Result.State));
  if (!Result.Error.empty())
    Json.fieldString("error", Result.Error);
  if (!Result.ok()) {
    Json.close('}');
    return;
  }

  Json.field("iterations", Result.Iterations);
  Json.field("cycles", Result.Cycles);
  if (Baseline && Baseline->Cycles > 0)
    Json.field("overhead_pct",
               formatDouble(100.0 *
                                (static_cast<double>(Result.Cycles) -
                                 static_cast<double>(Baseline->Cycles)) /
                                static_cast<double>(Baseline->Cycles),
                            "%.4f"));

  core::visitRunStatsMetrics(Result.Stats, MetricFieldEmitter{Json});

  Json.openObject("memory");
  memsim::visitHierarchyStatsMetrics(Result.Memory, MetricFieldEmitter{Json});
  Json.close('}');

  emitCacheStats(Json, "l1", Result.L1);
  emitCacheStats(Json, "l2", Result.L2);

  Json.openArray("phases");
  for (const core::CycleStats &Phase : Result.Stats.Cycles) {
    Json.openObject();
    core::visitCycleStatsMetrics(Phase, MetricFieldEmitter{Json});
    Json.close('}');
  }
  Json.close(']');

  Json.openObject("cycle_breakdown");
  obs::visitCycleBreakdownMetrics(Result.Breakdown, MetricFieldEmitter{Json});
  Json.close('}');

  Json.openArray("streams");
  for (const obs::StreamPrefetchStats &Stream : Result.Streams) {
    Json.openObject();
    obs::visitStreamPrefetchStatsMetrics(Stream, MetricFieldEmitter{Json});
    Json.close('}');
  }
  Json.close(']');

  Json.openArray("prefetchers");
  for (const obs::PrefetcherStats &Pf : Result.Prefetchers) {
    Json.openObject();
    // "kind_name" because the locked numeric metric below already owns
    // the "kind" key (mode/mode_name follow the same split).
    Json.fieldString("kind_name", prefetch::Prefetcher::kindToken(
                                      static_cast<prefetch::Prefetcher::Kind>(
                                          static_cast<uint8_t>(Pf.Kind))));
    obs::visitPrefetcherStatsMetrics(Pf, MetricFieldEmitter{Json});
    Json.close('}');
  }
  Json.close(']');

  if (IncludeTiming) {
    Json.openObject("timing");
    engine::visitResultTimingMetrics(Result.Timing, MetricFieldEmitter{Json});
    Json.close('}');
  }

  Json.close('}');
}

} // namespace

std::string hds::engine::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string hds::engine::resultsToJson(const std::vector<RunResult> &Results,
                                       const TimingInfo &Timing) {
  JsonBuilder Json;
  Json.fieldString("schema", "hds-matrix-results-v1");
  Json.field("spec_count", uint64_t{Results.size()});

  Json.openArray("results");
  for (const RunResult &Result : Results)
    emitResult(Json, Result, findBaseline(Results, Result.Spec),
               Timing.IncludePerResult);
  Json.close(']');

  if (Timing.IncludeWall) {
    Json.openObject("timing");
    Json.field("wall_ms", Timing.WallMillis);
    Json.field("jobs", uint64_t{Timing.Jobs});
    Json.close('}');
  }

  Json.close('}');
  return Json.take();
}
