//===- perfbench/src/Timed.cpp - Timed benchmark run ----------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed run behind the end-to-end metrics.  Host time is read on the
/// benchmark thread's CPU clock around Workload::run only; no observer is
/// installed.  A cell's set-up time is the median of many constructions
/// (createWorkload + Runtime + Workload::setup), because one construction
/// (~0.25 ms) is too short for one timer sample to be steady.  Every time
/// is scaled to the reference host by the host probe run just before and
/// just after the cell (HostProbe.h).
///
//===----------------------------------------------------------------------===//

#include "Modes.h"

#include "HostProbe.h"

using namespace perfbench;

namespace {

/// Set-up samples taken before every timed run of a cell.
constexpr int SetupSamplesPerRun = 8;

struct CellRecord {
  engine::RunResult First;
  std::string Fingerprint;
  std::vector<double> RunSeconds;   ///< reference-host seconds
  std::vector<double> SetupSeconds; ///< reference-host seconds
  uint64_t Mismatches = 0; ///< repeats whose result differs from the first
};

} // namespace

std::string perfbench::runTimed(const std::vector<Cell> &Cells,
                                double Seconds) {
  { // Untimed warm-up: a twentieth of the first cell.
    PreparedCell P = prepareCell(Cells.front());
    P.Bench->run(*P.Rt, Cells.front().Iterations / 20 + 1);
  }

  // Passes over the cells until the time is up.  The first pass always
  // completes, so every cell has a sample; later ones stop at the deadline.
  std::vector<CellRecord> Records(Cells.size());
  HostProbe Probe;
  uint64_t TimedCells = 0;
  const double Deadline = wallSeconds() + Seconds;
  bool Done = false;
  for (unsigned Pass = 0; !Done; ++Pass) {
    for (size_t I = 0; I < Cells.size(); ++I) {
      CellRecord &Rec = Records[I];
      const double ProbeBefore = Probe.run();
      // Set-up samples are spread over the whole run, so their median
      // sees the same host as the run times do.
      std::vector<double> Setups;
      for (int S = 0; S < SetupSamplesPerRun; ++S) {
        const double Start = threadCpuSeconds();
        PreparedCell P = prepareCell(Cells[I]);
        Setups.push_back(threadCpuSeconds() - Start);
      }

      PreparedCell P = prepareCell(Cells[I]);
      const double Start = threadCpuSeconds();
      P.Bench->run(*P.Rt, Cells[I].Iterations);
      const double Elapsed = threadCpuSeconds() - Start;
      ++TimedCells;

      const double Scale = HostProbe::scale(ProbeBefore, Probe.run());
      Rec.RunSeconds.push_back(Elapsed * Scale);
      for (double Setup : Setups)
        Rec.SetupSeconds.push_back(Setup * Scale);
      engine::RunResult Result = captureResult(Cells[I], *P.Rt);
      std::string Print = resultFingerprint(Result);
      if (Pass == 0) {
        Rec.First = std::move(Result);
        Rec.Fingerprint = std::move(Print);
      } else if (Print != Rec.Fingerprint) {
        ++Rec.Mismatches;
      }
      if (Pass > 0 && wallSeconds() >= Deadline) {
        Done = true;
        break;
      }
    }
    if (wallSeconds() >= Deadline)
      Done = true;
  }

  // Throughput over all cells: each cell contributes its accesses and its
  // median (scaled) run time, so a partial last pass does not skew the mix.
  uint64_t Accesses = 0, SimCycles = 0;
  double CellSeconds = 0.0, SetupSeconds = 0.0;
  std::vector<std::string> CellsJson, MismatchJson;
  for (const CellRecord &Rec : Records) {
    MismatchJson.push_back(std::to_string(Rec.Mismatches));
    Accesses += Rec.First.Stats.TotalAccesses;
    SimCycles += Rec.First.Cycles;
    CellSeconds += median(Rec.RunSeconds);
    SetupSeconds += median(Rec.SetupSeconds);
    CellsJson.push_back(cellJson(Rec.First));
  }

  auto Metric = [](double Value, const char *Unit) {
    return JsonObject().num("value", Value).str("unit", Unit).text();
  };
  JsonObject Metrics;
  Metrics.raw("accesses_per_s",
              Metric(static_cast<double>(Accesses) / CellSeconds, "accesses/s"))
      .raw("setup_s", Metric(SetupSeconds, "s"))
      .raw("peak_rss_mib", Metric(peakRssMiB(), "MiB"))
      .raw("sim_cycles", Metric(static_cast<double>(SimCycles), "cycles"));

  std::vector<std::string> Failures;
  if (!Probe.ok())
    Failures.push_back("\"host probe: runs gave different results\"");
  JsonObject Out;
  Out.raw("cells", jsonArray(CellsJson))
      .raw("self_check_failures", jsonArray(Failures))
      .count("timed_cells", TimedCells)
      .raw("repeat_mismatches", jsonArray(MismatchJson))
      .raw("metrics", Metrics.text());
  return Out.text();
}
