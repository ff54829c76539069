//===- perfbench/src/Cells.h - Benchmark cells and shared helpers -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads as fixed lists of matrix cells, built from
/// the public engine/workloads/core API, plus the clocks, statistics and
/// JSON helpers both run modes share.  Timed runs (Timed.cpp) and traced
/// runs (Traced.cpp) drive the same cells.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CELLS_H
#define PERFBENCH_CELLS_H

#include "core/Runtime.h"
#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace hds;

/// One matrix cell: its spec and the iteration count it resolves to.
struct Cell {
  engine::ExperimentSpec Spec;
  uint64_t Iterations = 0;
};

/// The cells of workload \p Name, in figure order.  Returns false for an
/// unknown name.  Every spec has layout seed 0, the layout the committed
/// references were produced with.
bool workloadCells(const std::string &Name, std::vector<Cell> &Cells);

/// Deterministic permutation of \p Cells by \p Seed (the benchmark's only
/// seeded input: simulated results do not depend on cell order, host
/// state such as allocator and cache warmth does).
void shuffleCells(std::vector<Cell> &Cells, uint64_t Seed);

/// A cell after createWorkload + Runtime construction + Workload::setup,
/// ready for Workload::run.
struct PreparedCell {
  std::unique_ptr<workloads::Workload> Bench;
  std::unique_ptr<core::Runtime> Rt;
};
PreparedCell prepareCell(const Cell &C);

/// The result of a finished run, captured the way engine::runExperiment
/// captures it.
engine::RunResult captureResult(const Cell &C, const core::Runtime &Rt);

/// The result as its canonical results-JSON text (every simulated field);
/// two runs of one cell agree exactly when these strings are equal.
std::string resultFingerprint(const engine::RunResult &R);

/// CPU seconds consumed by the calling thread.  Unlike wall time this
/// excludes descheduling and hypervisor steal.
double threadCpuSeconds();
/// Monotonic wall-clock seconds (run-length control only, never reported).
double wallSeconds();
/// Peak resident set size of this process, MiB.
double peakRssMiB();

double median(std::vector<double> Values);

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with full precision.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double Value);
  JsonObject &count(const std::string &Key, uint64_t Value);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &raw(const std::string &Key, const std::string &Json);
  std::string text() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

/// Identity and reference-checked counts of one cell, as JSON.
std::string cellJson(const engine::RunResult &R);

/// JSON array of already rendered elements.
std::string jsonArray(const std::vector<std::string> &Elements);

} // namespace perfbench

#endif // PERFBENCH_CELLS_H
