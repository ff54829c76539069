//===- perfbench/src/main.cpp - Simulator benchmark driver ----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hds_perfbench --run timed|traced --workload NAME --seed N --seconds S
///
/// Runs one benchmark workload single-threaded and prints one JSON object
/// on stdout.  perfbench/run.py builds this binary, checks its cell
/// results against the committed references and prints the final
/// benchmark line; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  std::string Run = "timed", Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  if (Argc % 2 == 0) {
    std::fprintf(stderr, "hds_perfbench: flags take one value each\n");
    return 2;
  }
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--run")
      Run = Value;
    else if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else {
      std::fprintf(stderr, "hds_perfbench: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }

  std::vector<Cell> Cells;
  if (!workloadCells(Workload, Cells)) {
    std::fprintf(stderr, "hds_perfbench: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  shuffleCells(Cells, Seed);

  std::string Json;
  if (Run == "timed")
    Json = runTimed(Cells, Seconds);
  else if (Run == "traced")
    Json = runTraced(Workload, Cells);
  else {
    std::fprintf(stderr, "hds_perfbench: --run must be timed or traced\n");
    return 2;
  }
  std::printf("%s\n", Json.c_str());
  return 0;
}
