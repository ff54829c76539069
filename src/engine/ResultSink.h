//===- engine/ResultSink.h - Deterministic result collection ---*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-safe collection point for per-job results, merged in *spec
/// order* rather than completion order.  This is the piece that makes
/// the engine's aggregate output byte-identical regardless of thread
/// count: workers deliver into a slot addressed by the job's matrix
/// index, and take() hands the slots back in index order once every one
/// is filled.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_RESULTSINK_H
#define HDS_ENGINE_RESULTSINK_H

#include "engine/ExperimentRunner.h"

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace hds {
namespace engine {

/// Index-addressed, mutex-protected result store for one matrix run.
class ResultSink {
public:
  explicit ResultSink(std::size_t SpecCount);

  /// Stores \p Result into slot \p Index (each slot exactly once) and
  /// invokes the progress callback, if any, under the sink lock — so
  /// callbacks are serialized even though they fire in completion order.
  void deliver(std::size_t Index, RunResult Result);

  /// Progress callback invoked by deliver (completion order, serialized).
  void setCallback(
      std::function<void(std::size_t, const RunResult &)> Callback);

  /// Number of slots filled so far.
  std::size_t completed() const;

  /// Moves out the merged results in spec order.  Unfilled slots (jobs
  /// dropped by cancellation) remain default-constructed with
  /// RunResult::Status::Cancelled.
  std::vector<RunResult> take();

private:
  mutable std::mutex Mutex;
  std::vector<RunResult> Results;  // guarded by Mutex
  std::vector<bool> Filled;        // guarded by Mutex
  std::size_t Completed = 0;       // guarded by Mutex
  std::function<void(std::size_t, const RunResult &)> Callback; // guarded by Mutex
};

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_RESULTSINK_H
