//===- core/Runtime.cpp - The mediated execution environment --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include <cassert>

using namespace hds;
using namespace hds::core;

RuntimeObserver::~RuntimeObserver() = default;
void RuntimeObserver::onDeclareProcedure(vulcan::ProcId, const std::string &) {
}
void RuntimeObserver::onDeclareSite(vulcan::SiteId, vulcan::ProcId,
                                    const std::string &) {}
void RuntimeObserver::onAllocate(memsim::Addr, uint64_t, uint64_t) {}
void RuntimeObserver::onPadHeap(uint64_t) {}
void RuntimeObserver::onEnterProcedure(vulcan::ProcId) {}
void RuntimeObserver::onLeaveProcedure() {}
void RuntimeObserver::onLoopBackEdge() {}
void RuntimeObserver::onAccess(vulcan::SiteId, memsim::Addr, bool) {}
void RuntimeObserver::onAccessBatch(const AccessEvent *Events, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    onAccess(Events[I].Site, Events[I].Addr, Events[I].IsStore);
}
void RuntimeObserver::onCompute(uint64_t) {}

profiling::BurstyTracingConfig
Runtime::effectiveTracingConfig(const OptimizerConfig &Config) {
  profiling::BurstyTracingConfig Tracing = Config.Tracing;
  if (Config.Mode == RunMode::ChecksOnly) {
    // Figure 11 "Base": "setting nCheck to an extremely large value and
    // nInstr to 1" — checks run, (virtually) nothing is profiled.
    Tracing.NCheck0 = uint64_t{1} << 62;
    Tracing.NInstr0 = 1;
    Tracing.HibernationEnabled = false;
  }
  return Tracing;
}

Runtime::Runtime(const OptimizerConfig &Cfg)
    : Config(Cfg), Hierarchy(Cfg.L1, Cfg.L2, Cfg.Latency),
      Tracer(effectiveTracingConfig(Cfg)),
      Optimizer(this->Config, TheImage, Hierarchy, Engine, Tracer, Stats,
                Timeline),
      HeapBreak(HeapBase) {
  TheImage.instrumentForBurstyTracing();
  if (Config.Prefetchers.any()) {
    Prefetchers = std::make_unique<prefetch::PrefetcherStack>(
        Config.Prefetchers);
    // Prefetcher fill/useful/late/eviction feedback flows back through
    // the hierarchy's listener; hot-stream tags start above the
    // prefetcher tag range so the per-tag buckets never collide.
    Hierarchy.setListener(Prefetchers.get());
    Engine.setStreamTagBase(Prefetchers->tagCount());
  }
  // The run opens in the profiler's awake phase; the optimizer records
  // every later phase boundary.
  if (tracingEnabled(Config.Mode))
    Timeline.begin("awake", 0);
}

std::vector<obs::PrefetcherStats> Runtime::prefetcherStats() const {
  if (!Prefetchers)
    return {};
  return Prefetchers->snapshotStats(Hierarchy);
}

std::vector<obs::StreamPrefetchStats> Runtime::streamPrefetchStats() const {
  std::vector<obs::StreamPrefetchStats> Rows = Engine.streamHistory();
  const std::vector<obs::PrefetchClassCounts> &Classes =
      Hierarchy.streamClasses();
  for (obs::StreamPrefetchStats &Row : Rows) {
    if (Row.StreamTag >= Classes.size())
      continue; // stream never produced a classification event
    const obs::PrefetchClassCounts &Counts =
        Classes[static_cast<size_t>(Row.StreamTag)];
    Row.Issued = Counts.Issued;
    Row.Useful = Counts.Useful;
    Row.Late = Counts.Late;
    Row.Redundant = Counts.Redundant;
    Row.DroppedQueueFull = Counts.DroppedQueueFull;
    Row.UnusedEvicted = Counts.UnusedEvicted;
  }
  return Rows;
}

vulcan::ProcId Runtime::declareProcedure(std::string Name) {
  const vulcan::ProcId Proc = TheImage.createProcedure(Name);
  if (Observer) {
    flushObserver();
    Observer->onDeclareProcedure(Proc, Name);
  }
  return Proc;
}

vulcan::SiteId Runtime::declareSite(vulcan::ProcId Proc, std::string Label) {
  const vulcan::SiteId Site = TheImage.createSite(Proc, Label);
  if (Observer) {
    flushObserver();
    Observer->onDeclareSite(Site, Proc, Label);
  }
  return Site;
}

memsim::Addr Runtime::allocate(uint64_t Bytes, uint64_t Align) {
  assert(Align > 0 && (Align & (Align - 1)) == 0 && "non power-of-two align");
  HeapBreak = (HeapBreak + Align - 1) & ~(Align - 1);
  const memsim::Addr Result = HeapBreak;
  HeapBreak += Bytes;
  assert(Result < memsim::AddressSpaceBytes &&
         Bytes <= memsim::AddressSpaceBytes - Result &&
         "heap outside the 32-bit address space");
  if (Observer) {
    flushObserver();
    Observer->onAllocate(Result, Bytes, Align);
  }
  return Result;
}

void Runtime::padHeap(uint64_t Bytes) {
  assert(Bytes <= memsim::AddressSpaceBytes - HeapBreak &&
         "heap outside the 32-bit address space");
  HeapBreak += Bytes;
  if (Observer) {
    flushObserver();
    Observer->onPadHeap(Bytes);
  }
}

bool Runtime::currentFrameIsFresh() const {
  if (CallStack.empty())
    return true; // top-level code is never stale
  const Frame &Top = CallStack.back();
  return Top.CodeVersionAtEntry == TheImage.codeVersion(Top.Proc);
}

void Runtime::dynamicCheck() {
  if (!checksEnabled(Config.Mode))
    return;
  if (Optimizer.pinned())
    return; // static-scheme model: no bursty-tracing framework left
  Hierarchy.tick(Config.Costs.CheckCycles, obs::CyclePhase::DynamicCheck);
  ++Stats.ChecksExecuted;
  const profiling::CheckEvent Event = Tracer.check();
  if (Event != profiling::CheckEvent::None)
    Optimizer.onCheckEvent(Event);
}

void Runtime::enterProcedure(vulcan::ProcId Proc) {
  if (Observer) {
    flushObserver();
    Observer->onEnterProcedure(Proc);
  }
  CallStack.push_back({Proc, TheImage.codeVersion(Proc)});
  dynamicCheck();
}

void Runtime::leaveProcedure() {
  assert(!CallStack.empty() && "leaveProcedure without enterProcedure");
  if (Observer) {
    flushObserver();
    Observer->onLeaveProcedure();
  }
  CallStack.pop_back();
}

void Runtime::loopBackEdge() {
  if (Observer) {
    flushObserver();
    Observer->onLoopBackEdge();
  }
  dynamicCheck();
}

void Runtime::accessInstrumented(vulcan::SiteId Site, memsim::Addr Addr) {
  // Instrumented-code version: every data reference pays the tracing cost
  // (even the discarded hibernation-burst references, §2.2); only awake
  // references reach Sequitur (§2.4: hibernation refs are ignored to
  // avoid trace contamination).  Once a static-scheme run is pinned the
  // profiling framework is gone entirely.
  if (Tracer.inInstrumentedCode() && !Optimizer.pinned()) {
    Hierarchy.tick(Config.Costs.TraceRefCycles, obs::CyclePhase::Profiling);
    if (tracingEnabled(Config.Mode) &&
        Tracer.phase() == profiling::TracerPhase::Awake)
      Optimizer.recordRef(analysis::DataRef{Site, Addr});
  }

  // Injected prefix-match / prefetch code.
  if (Engine.siteInstrumented(Site)) {
    if (currentFrameIsFresh())
      Engine.onAccess(Site, Addr, Config, Hierarchy, Stats);
    else
      ++Stats.StaleFrameAccesses; // still running pre-patch code (§3.2)
  }
}
