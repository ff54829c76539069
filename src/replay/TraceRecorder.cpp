//===- replay/TraceRecorder.cpp - Runtime event capture -------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "replay/TraceRecorder.h"

using namespace hds;
using namespace hds::replay;

TraceMeta hds::replay::metaFromConfig(const core::OptimizerConfig &Config,
                                      std::string Workload,
                                      uint64_t Iterations) {
  TraceMeta Meta;
  Meta.Workload = std::move(Workload);
  Meta.Iterations = Iterations;
  Meta.Mode = Config.Mode;
  Meta.HeadLength = Config.Dfsm.HeadLength;
  Meta.Prefetchers = Config.Prefetchers.Enabled;
  Meta.Pin = Config.PinFirstOptimization;
  return Meta;
}

TraceSummary hds::replay::summarizeRun(const core::Runtime &Rt) {
  TraceSummary Summary;
  Summary.Cycles = Rt.cycles();
  Summary.TotalAccesses = Rt.stats().TotalAccesses;
  Summary.ChecksExecuted = Rt.stats().ChecksExecuted;
  Summary.TracedRefs = Rt.stats().TracedRefs;
  Summary.L1Misses = Rt.memory().l1().stats().Misses;
  Summary.L2Misses = Rt.memory().l2().stats().Misses;
  Summary.PrefetchesIssued = Rt.memory().stats().PrefetchesIssued;
  Summary.CompleteMatches = Rt.stats().CompleteMatches;
  return Summary;
}

TraceRecorder::TraceRecorder(TraceMeta Meta) { T.Meta = std::move(Meta); }

void TraceRecorder::markSetupDone() {
  T.Events.push_back({TraceEvent::Kind::SetupDone, 0, 0, 0, {}});
}

void TraceRecorder::finish(const core::Runtime &Rt) {
  T.Summary = summarizeRun(Rt);
}

void TraceRecorder::onDeclareProcedure(vulcan::ProcId Proc,
                                       const std::string &Name) {
  T.Events.push_back({TraceEvent::Kind::DeclareProcedure, Proc, 0, 0, Name});
}

void TraceRecorder::onDeclareSite(vulcan::SiteId Site, vulcan::ProcId Proc,
                                  const std::string &Label) {
  T.Events.push_back({TraceEvent::Kind::DeclareSite, Site, Proc, 0, Label});
}

void TraceRecorder::onAllocate(memsim::Addr Result, uint64_t Bytes,
                               uint64_t Align) {
  T.Events.push_back({TraceEvent::Kind::Allocate, Bytes, Align, Result, {}});
}

void TraceRecorder::onPadHeap(uint64_t Bytes) {
  T.Events.push_back({TraceEvent::Kind::PadHeap, Bytes, 0, 0, {}});
}

void TraceRecorder::onEnterProcedure(vulcan::ProcId Proc) {
  T.Events.push_back({TraceEvent::Kind::EnterProcedure, Proc, 0, 0, {}});
}

void TraceRecorder::onLeaveProcedure() {
  T.Events.push_back({TraceEvent::Kind::LeaveProcedure, 0, 0, 0, {}});
}

void TraceRecorder::onLoopBackEdge() {
  T.Events.push_back({TraceEvent::Kind::LoopBackEdge, 0, 0, 0, {}});
}

void TraceRecorder::onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                             bool IsStore) {
  T.Events.push_back({IsStore ? TraceEvent::Kind::Store
                              : TraceEvent::Kind::Load,
                      Site, Addr, 0, {}});
}

void TraceRecorder::onAccessBatch(const AccessEvent *Events, size_t Count) {
  // One virtual dispatch per block; the append loop is the whole body.
  // No reserve: an exact one would defeat the vector's geometric growth
  // and copy every recorded event again whenever a batch overflows.
  for (size_t I = 0; I < Count; ++I)
    T.Events.push_back({Events[I].IsStore ? TraceEvent::Kind::Store
                                          : TraceEvent::Kind::Load,
                        Events[I].Site, Events[I].Addr, 0, {}});
}

void TraceRecorder::onCompute(uint64_t Cycles) {
  T.Events.push_back({TraceEvent::Kind::Compute, Cycles, 0, 0, {}});
}
