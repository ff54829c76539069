//===- perfbench/src/Modes.h - The benchmark's two run modes ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MODES_H
#define PERFBENCH_MODES_H

#include "Cells.h"

#include <string>
#include <vector>

namespace perfbench {

/// Timed run: set-up time, then whole passes over \p Cells for about
/// \p Seconds with no observer installed.  Returns the result JSON
/// (cells, end-to-end metrics, repeat mismatches).
std::string runTimed(const std::vector<Cell> &Cells, double Seconds);

/// Traced run: one timed pass for counts and layer call counts, then a
/// recorded slice of every cell replayed into each layer's public entry
/// point.  Returns the result JSON (cells, per-layer metrics, self-check
/// failures, each layer's share of the unobserved pass).
std::string runTraced(const std::string &Workload,
                      const std::vector<Cell> &Cells);

} // namespace perfbench

#endif // PERFBENCH_MODES_H
