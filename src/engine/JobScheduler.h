//===- engine/JobScheduler.h - Fixed-size worker pool ----------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool sharding independent jobs across cores: the
/// first genuinely concurrent code in the tree.  Design constraints, in
/// order:
///
///   * Determinism of *results* is the caller's job (jobs must be
///     independent and deliver into an index-addressed sink); the
///     scheduler itself promises only that every submitted job either
///     runs exactly once or is counted as dropped by cancel().
///   * No ambient nondeterminism: no clocks, no randomness, no
///     load-dependent decisions — just a FIFO queue and a condition
///     variable (D1 holds in src/ even for concurrent code).
///   * Cancellation-safe: cancel() drops not-yet-started jobs, running
///     jobs finish, and the destructor joins every worker
///     unconditionally (std::jthread), so no thread can outlive the
///     pool.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_JOBSCHEDULER_H
#define HDS_ENGINE_JOBSCHEDULER_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hds {
namespace engine {

/// Fixed-size FIFO worker pool.
class JobScheduler {
public:
  /// Spawns \p ThreadCount workers (clamped to at least one).
  explicit JobScheduler(unsigned ThreadCount);

  /// Drops any still-queued jobs, wakes all workers, and joins them.
  /// Jobs already running complete before the destructor returns.
  ~JobScheduler();

  JobScheduler(const JobScheduler &) = delete;
  JobScheduler &operator=(const JobScheduler &) = delete;

  /// Enqueues \p Job.  Jobs run in submission order (FIFO) across the
  /// worker pool.  Submitting after shutdown began counts the job as
  /// dropped instead of running it.
  void submit(std::function<void()> Job);

  /// Blocks until every submitted job has finished or been dropped.
  void wait();

  /// Drops all not-yet-started jobs.  Jobs already running on a worker
  /// complete normally.  Safe to call from any thread, including from
  /// inside a running job.
  void cancel();

  /// Number of jobs that ran to completion.
  std::size_t executed() const;

  /// Number of jobs dropped by cancel() or shutdown before starting.
  std::size_t dropped() const;

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

private:
  void workerLoop();

  mutable std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable AllDone;
  std::deque<std::function<void()>> Queue; // guarded by Mutex
  std::size_t Pending = 0;  // guarded by Mutex; queued + running
  std::size_t Executed = 0; // guarded by Mutex
  std::size_t Dropped = 0;  // guarded by Mutex
  bool ShuttingDown = false; // guarded by Mutex
  /// Declared last: destroyed (and therefore joined) first, while the
  /// mutex and condition variables above are still alive.
  std::vector<std::jthread> Workers;
};

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_JOBSCHEDULER_H
