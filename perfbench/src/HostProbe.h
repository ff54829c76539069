//===- perfbench/src/HostProbe.h - Frozen host-speed probe ------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of work whose CPU time tracks how fast the host runs the
/// simulator right now.  The host this benchmark was built on speeds up
/// and slows down by up to ±40% for seconds to minutes at a time, and all
/// simulator cells move together.  A compute-only probe follows that
/// poorly.  This probe is a small two-level LRU cache model fed by a
/// pointer-chase plus strided stream, the same kind of work as the
/// simulator's demand path, and its time tracks a cell's time to within a
/// few percent (perfbench/README.md, "Noise").
///
/// The probe lives in the benchmark and never calls into ../src, so no
/// change to the simulator can change it.  Timed runs scale every CPU
/// time by ReferenceNsPerAccess / (the probe's ns per access measured
/// around it), which reports host times as they would read on a host that
/// runs the probe at the reference speed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTPROBE_H
#define PERFBENCH_HOSTPROBE_H

#include <cstdint>

namespace perfbench {

class HostProbe {
public:
  /// Probe speed on the reference host (the median seen while the
  /// benchmark was calibrated, 4-vCPU 2.1 GHz x86-64 VM).
  static constexpr double ReferenceNsPerAccess = 7.5;

  /// Runs the probe once and returns its CPU time in seconds.  Every run
  /// does identical work; a result that differs from the first run's
  /// marks the probe broken (checked by ok()).
  double run();

  /// Probe speed of one run that took \p ProbeSeconds.
  static double nsPerAccess(double ProbeSeconds);

  /// Host-time scale factor for the time between two probe runs.
  static double scale(double ProbeSecondsBefore, double ProbeSecondsAfter) {
    return ReferenceNsPerAccess /
           nsPerAccess((ProbeSecondsBefore + ProbeSecondsAfter) / 2.0);
  }

  bool ok() const { return Consistent; }

private:
  uint64_t FirstResult = 0;
  bool HaveResult = false;
  bool Consistent = true;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTPROBE_H
