//===- core/Runtime.h - The mediated execution environment ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution environment benchmarks run against — the public API of
/// the whole system.
///
/// A workload declares its static structure once (procedures and data
/// access sites, i.e. pc's) and then executes by calling enterProcedure /
/// leaveProcedure / loopBackEdge (the dynamic check points of Figure 2),
/// load / store (data references), compute (pure computation cycles), and
/// allocate (heap objects).  The runtime drives, per the configured
/// RunMode:
///
///   * the memory hierarchy simulator (every access, every mode),
///   * the bursty tracing counters at every dynamic check,
///   * the temporal profiler while in instrumented code during awake
///     phases,
///   * the dynamic optimizer at phase boundaries, and
///   * the injected prefix-match/prefetch code at instrumented pc's
///     during hibernation.
///
/// This mediation layer is the substitution for Vulcan's binary editing
/// (DESIGN.md §1): the set of operations is exactly what the paper's
/// edited binaries perform, with costs charged in simulated cycles.
///
/// Example (see examples/quickstart.cpp for a complete program):
/// \code
///   hds::core::OptimizerConfig Config;
///   hds::core::Runtime Rt(Config);
///   auto Proc = Rt.declareProcedure("walk");
///   auto Site = Rt.declareSite(Proc, "node->next");
///   auto Node = Rt.allocate(32);
///   {
///     hds::core::Runtime::ProcedureScope Scope(Rt, Proc);
///     Rt.load(Site, Node);
///     Rt.compute(4);
///   }
///   uint64_t Cycles = Rt.cycles();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CORE_RUNTIME_H
#define HDS_CORE_RUNTIME_H

#include "core/DynamicOptimizer.h"
#include "core/OptimizerConfig.h"
#include "core/PrefetchEngine.h"
#include "core/RunStats.h"
#include "memsim/MemoryHierarchy.h"
#include "prefetch/PrefetcherStack.h"
#include "obs/CycleAccount.h"
#include "obs/PrefetchStats.h"
#include "obs/Timeline.h"
#include "profiling/BurstyTracer.h"
#include "vulcan/Image.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hds {
namespace core {

/// Observer of every Runtime API event, in program order — the single
/// observation mechanism of the runtime.  The trace record/replay
/// subsystem (src/replay) implements this to capture a run as a
/// re-executable event stream, and tooling (hds_run --dump-trace)
/// subclasses it to print the reference stream; the callbacks cover
/// exactly the public Runtime surface, so replaying them through a fresh
/// Runtime reproduces the original simulation state transition for
/// transition.  Costs one branch per event when no observer is installed.
///
/// Data accesses are delivered in batches: the runtime buffers them and
/// hands over a contiguous block via onAccessBatch, flushing before any
/// other callback so observers still see the unfiltered stream in exact
/// program order.  Observers that only care about per-event semantics
/// override onAccess and inherit the fan-out; throughput-sensitive ones
/// (the trace recorder) override onAccessBatch and consume whole blocks,
/// amortizing the virtual dispatch over runs of consecutive accesses.
class RuntimeObserver {
public:
  /// One buffered data reference, exactly the onAccess argument tuple.
  struct AccessEvent {
    vulcan::SiteId Site;
    memsim::Addr Addr;
    bool IsStore;
  };

  virtual ~RuntimeObserver();

  virtual void onDeclareProcedure(vulcan::ProcId Proc,
                                  const std::string &Name);
  virtual void onDeclareSite(vulcan::SiteId Site, vulcan::ProcId Proc,
                             const std::string &Label);
  virtual void onAllocate(memsim::Addr Result, uint64_t Bytes,
                          uint64_t Align);
  virtual void onPadHeap(uint64_t Bytes);
  virtual void onEnterProcedure(vulcan::ProcId Proc);
  virtual void onLeaveProcedure();
  virtual void onLoopBackEdge();
  virtual void onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                        bool IsStore);
  /// A contiguous block of buffered accesses, oldest first.  The default
  /// implementation fans out to onAccess per event.
  virtual void onAccessBatch(const AccessEvent *Events, size_t Count);
  virtual void onCompute(uint64_t Cycles);
};

/// The mediated execution environment.
class Runtime {
public:
  explicit Runtime(const OptimizerConfig &Config);

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// \name Static program structure (done once, before execution).
  /// @{
  vulcan::ProcId declareProcedure(std::string Name);
  vulcan::SiteId declareSite(vulcan::ProcId Proc,
                             std::string Label = std::string());
  /// @}

  /// \name Simulated heap.
  /// @{

  /// Where the bump allocator starts.
  static constexpr memsim::Addr HeapBase = 1 << 20;

  /// Bump-allocates \p Bytes (aligned to \p Align) and returns the
  /// address.  Allocation order controls data layout, which is how the
  /// workloads model sequentially vs. non-sequentially allocated hot data
  /// streams (Section 4.3's parser discussion).
  memsim::Addr allocate(uint64_t Bytes, uint64_t Align = 8);

  /// Skips \p Bytes of address space, scattering subsequent allocations
  /// onto different cache blocks/sets.
  void padHeap(uint64_t Bytes);
  /// @}

  /// \name Execution events.
  /// @{

  /// Procedure entry: pushes an activation record (snapshotting the
  /// procedure's code version for stale-frame semantics, Section 3.2) and
  /// executes a dynamic check.
  void enterProcedure(vulcan::ProcId Proc);

  /// Procedure exit: pops the activation record.
  void leaveProcedure();

  /// Loop back-edge: executes a dynamic check (Figure 2).
  void loopBackEdge();

  /// Data references.  Loads and stores are modelled alike (a data
  /// reference is "a load or store of a particular address", §2.1).
  void load(vulcan::SiteId Site, memsim::Addr Addr) {
    access(Site, Addr, /*IsStore=*/false);
  }
  void store(vulcan::SiteId Site, memsim::Addr Addr) {
    access(Site, Addr, /*IsStore=*/true);
  }

  /// Pure computation taking \p Cycles cycles.
  void compute(uint64_t Cycles) {
    Hierarchy.tick(Cycles);
    if (Observer) {
      flushObserver();
      Observer->onCompute(Cycles);
    }
  }
  /// @}

  /// \name Results and component access.
  /// @{
  uint64_t cycles() const { return Hierarchy.now(); }
  const RunStats &stats() const { return Stats; }

  /// Snapshot of the attributed cycle account: every simulated cycle by
  /// phase (pure compute, demand stall, checks, profiling, matching,
  /// prefetch issue, analysis).  total() always equals cycles().
  obs::CycleBreakdown cycleBreakdown() const {
    return Hierarchy.account().snapshot();
  }

  /// Per-hot-data-stream prefetch effectiveness: one row per stream ever
  /// installed (identity from the prefetch engine, classification counts
  /// from the memory hierarchy).
  std::vector<obs::StreamPrefetchStats> streamPrefetchStats() const;

  /// Phase timeline (awake / analysis / hibernation spans) recorded by
  /// the optimizer; rendered by `hds_run --trace-events`.
  const obs::Timeline &timeline() const { return Timeline; }

  const OptimizerConfig &config() const { return Config; }
  memsim::MemoryHierarchy &memory() { return Hierarchy; }
  const memsim::MemoryHierarchy &memory() const { return Hierarchy; }
  vulcan::Image &image() { return TheImage; }
  const vulcan::Image &image() const { return TheImage; }
  const profiling::BurstyTracer &tracer() const { return Tracer; }
  const PrefetchEngine &engine() const { return Engine; }
  DynamicOptimizer &optimizer() { return Optimizer; }
  /// The hardware prefetcher stack, or nullptr when no prefetcher is
  /// enabled.
  prefetch::PrefetcherStack *prefetcherStack() const {
    return Prefetchers.get();
  }
  /// Per-prefetcher effectiveness rows (identity + training counts from
  /// the prefetchers, classification counts joined from the memory
  /// hierarchy's per-tag buckets).  Empty when no prefetcher is enabled.
  std::vector<obs::PrefetcherStats> prefetcherStats() const;
  /// @}

  /// Installs (or, with nullptr, removes) the full-event observer.  Not
  /// owned; must outlive its installation.  Observers see the
  /// *unfiltered* event stream — the same thing the paper's instrumented
  /// code version sees.  Any buffered accesses are flushed to the
  /// outgoing observer first, so detaching (the last step of every
  /// recording) always leaves the observer with the complete stream.
  void setObserver(RuntimeObserver *NewObserver) {
    flushObserver();
    Observer = NewObserver;
  }

  /// Delivers buffered access events to the observer now.  Called
  /// automatically before every non-access observer callback and on
  /// setObserver; observers that sample mid-run can call it directly to
  /// synchronize.
  void flushObserver() {
    if (PendingAccesses == 0)
      return;
    const size_t Count = PendingAccesses;
    PendingAccesses = 0;
    if (Observer)
      Observer->onAccessBatch(Pending.data(), Count);
  }

  /// RAII procedure activation.
  class ProcedureScope {
  public:
    ProcedureScope(Runtime &R, vulcan::ProcId Proc) : Rt(R) {
      Rt.enterProcedure(Proc);
    }
    ~ProcedureScope() { Rt.leaveProcedure(); }
    ProcedureScope(const ProcedureScope &) = delete;
    ProcedureScope &operator=(const ProcedureScope &) = delete;

  private:
    Runtime &Rt;
  };

private:
  struct Frame {
    vulcan::ProcId Proc;
    uint32_t CodeVersionAtEntry;
  };

  /// Shared load/store path.  Lives in the header so the demand path of
  /// the hierarchy inlines into it: MemoryHierarchy::access,
  /// Cache::access and Cache::fillMiss are forced inline, because static
  /// libraries without LTO get no cross-TU inlining and, left to itself,
  /// the compiler kept the hierarchy out of line.  This dispatcher is
  /// left to the compiler, which emits it out of line in most workload
  /// translation units; forcing it into every workload loop measured
  /// slower (docs/benchmarks.md, "Demand path").  The instrumented-mode
  /// tail — tracing cost, Sequitur feed, prefix matching — stays out of
  /// line; Original mode never reaches it.
  void access(vulcan::SiteId Site, memsim::Addr Addr, bool IsStore) {
    if (Observer)
      bufferAccess(Site, Addr, IsStore);
    ++Stats.TotalAccesses;
    const uint64_t Latency = Hierarchy.access(Addr);

    // Hardware prefetchers observe every demand access regardless of mode.
    if (Prefetchers)
      Prefetchers->onAccess(Site, Addr, Latency,
                            Latency > Config.Latency.L1HitCycles, Hierarchy);

    if (Config.Mode == RunMode::Original)
      return;
    accessInstrumented(Site, Addr);
  }

  /// The instrumented-code-version part of access(): tracing cost,
  /// profiler feed, and the injected prefix-match/prefetch code.
  void accessInstrumented(vulcan::SiteId Site, memsim::Addr Addr);

  /// Queues one access for the observer, handing off a full block when
  /// the buffer fills.
  void bufferAccess(vulcan::SiteId Site, memsim::Addr Addr, bool IsStore) {
    Pending[PendingAccesses++] = {Site, Addr, IsStore};
    if (PendingAccesses == Pending.size())
      flushObserver();
  }

  /// One dynamic check (procedure entry or loop back-edge).
  void dynamicCheck();

  /// Whether the innermost activation record runs current (patched) code.
  bool currentFrameIsFresh() const;

  static profiling::BurstyTracingConfig
  effectiveTracingConfig(const OptimizerConfig &Config);

  OptimizerConfig Config;
  vulcan::Image TheImage;
  memsim::MemoryHierarchy Hierarchy;
  profiling::BurstyTracer Tracer;
  PrefetchEngine Engine;
  RunStats Stats;
  obs::Timeline Timeline;
  DynamicOptimizer Optimizer;
  std::unique_ptr<prefetch::PrefetcherStack> Prefetchers;
  RuntimeObserver *Observer = nullptr;
  /// Access-event staging buffer (see RuntimeObserver::onAccessBatch).
  /// 256 events keeps the buffer inside L1 while leaving the per-access
  /// observer cost at one store plus a capacity check.
  std::array<RuntimeObserver::AccessEvent, 256> Pending;
  size_t PendingAccesses = 0;
  std::vector<Frame> CallStack;
  memsim::Addr HeapBreak;
};

} // namespace core
} // namespace hds

#endif // HDS_CORE_RUNTIME_H
