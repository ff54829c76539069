//===- perfbench/src/Cells.cpp - Benchmark cells and shared helpers -------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "Cells.h"

#include "engine/ResultsJson.h"
#include "prefetch/Prefetcher.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

using namespace perfbench;

namespace {

Cell makeCell(const std::string &Workload, core::RunMode Mode, double Scale,
              prefetch::Prefetcher::Kind Kind, bool WithPrefetcher) {
  Cell C;
  C.Spec.Workload = Workload;
  C.Spec.Mode = Mode;
  C.Spec.Scale = Scale;
  if (WithPrefetcher)
    C.Spec.Prefetchers.set(Kind, true);
  // Resolve the iteration count exactly as engine::runExperiment does.
  const std::unique_ptr<workloads::Workload> Bench =
      workloads::createWorkload(Workload);
  C.Iterations = static_cast<uint64_t>(
      static_cast<double>(Bench->defaultIterations()) * Scale);
  if (C.Iterations == 0)
    C.Iterations = 1;
  return C;
}

} // namespace

bool perfbench::workloadCells(const std::string &Name,
                              std::vector<Cell> &Cells) {
  using prefetch::Prefetcher;
  Cells.clear();
  for (const std::string &W : workloads::allWorkloadNames()) {
    if (Name == "paper_dynpref") {
      Cells.push_back(makeCell(W, core::RunMode::DynamicPrefetch, 1.0,
                               Prefetcher::Kind::PairTable, false));
    } else if (Name == "original_demand") {
      Cells.push_back(makeCell(W, core::RunMode::Original, 1.0,
                               Prefetcher::Kind::PairTable, false));
    } else if (Name == "hw_zoo") {
      Cells.push_back(makeCell(W, core::RunMode::Original, 0.05,
                               Prefetcher::Kind::PairTable, true));
      Cells.push_back(makeCell(W, core::RunMode::Original, 0.05,
                               Prefetcher::Kind::Markov, true));
    } else {
      return false;
    }
  }
  return true;
}

void perfbench::shuffleCells(std::vector<Cell> &Cells, uint64_t Seed) {
  uint64_t State = Seed;
  auto Next = [&State] { // splitmix64
    State += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  };
  for (size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[static_cast<size_t>(Next() % I)]);
}

PreparedCell perfbench::prepareCell(const Cell &C) {
  PreparedCell P;
  P.Bench = workloads::createWorkload(C.Spec.Workload);
  P.Rt = std::make_unique<core::Runtime>(C.Spec.materializeConfig());
  P.Bench->setup(*P.Rt);
  return P;
}

engine::RunResult perfbench::captureResult(const Cell &C,
                                           const core::Runtime &Rt) {
  engine::RunResult R;
  R.Spec = C.Spec;
  R.State = engine::RunResult::Status::Ok;
  R.Iterations = C.Iterations;
  R.Cycles = Rt.cycles();
  R.Stats = Rt.stats();
  R.Memory = Rt.memory().stats();
  R.L1 = Rt.memory().l1().stats();
  R.L2 = Rt.memory().l2().stats();
  R.Breakdown = Rt.cycleBreakdown();
  R.Streams = Rt.streamPrefetchStats();
  R.Prefetchers = Rt.prefetcherStats();
  return R;
}

std::string perfbench::resultFingerprint(const engine::RunResult &R) {
  return engine::resultsToJson({R});
}

double perfbench::threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double perfbench::wallSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double perfbench::peakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // would report the launching Python process's peak when that is larger.
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), Status))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(Status);
  return KiB / 1024.0;
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t Mid = Values.size() / 2;
  if (Values.size() % 2 == 1)
    return Values[Mid];
  return (Values[Mid - 1] + Values[Mid]) / 2.0;
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += "\"" + engine::jsonEscape(Key) + "\": ";
}

JsonObject &JsonObject::num(const std::string &Key, double Value) {
  key(Key);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Body += Buf;
  return *this;
}

JsonObject &JsonObject::count(const std::string &Key, uint64_t Value) {
  key(Key);
  Body += std::to_string(Value);
  return *this;
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += "\"" + engine::jsonEscape(Value) + "\"";
  return *this;
}

JsonObject &JsonObject::raw(const std::string &Key, const std::string &Json) {
  key(Key);
  Body += Json;
  return *this;
}

std::string perfbench::cellJson(const engine::RunResult &R) {
  using prefetch::Prefetcher;
  const engine::ExperimentSpec &S = R.Spec;
  JsonObject O;
  O.str("label", S.label())
      .str("workload", S.Workload)
      .str("mode", core::runModeToken(S.Mode))
      .num("scale", S.Scale)
      .count("seed", S.Seed)
      .count("pair_pf", S.Prefetchers.has(Prefetcher::Kind::PairTable))
      .count("markov", S.Prefetchers.has(Prefetcher::Kind::Markov))
      .count("cycles", R.Cycles)
      .count("accesses", R.Stats.TotalAccesses)
      .count("l1_hits", R.L1.Hits)
      .count("l1_misses", R.L1.Misses)
      .count("l2_hits", R.L2.Hits)
      .count("l2_misses", R.L2.Misses);
  return O.text();
}

std::string perfbench::jsonArray(const std::vector<std::string> &Elements) {
  std::string Out = "[";
  for (size_t I = 0; I < Elements.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Elements[I];
  }
  return Out + "]";
}
