//===- replay/TraceFormat.h - Versioned binary trace format ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic record/replay trace format.
///
/// A trace is a complete capture of one benchmark run at the Runtime API
/// level: every declaration, allocation, check point, and data reference,
/// in program order.  Because the Runtime is deterministic (the paper's
/// Section 2.2 property this project preserves everywhere), re-executing
/// the event stream through a fresh Runtime built from the same
/// configuration reproduces the original run bit for bit — cycles, cache
/// behaviour, optimization cycles, everything.  The recorded summary
/// footer lets the replayer prove it did.
///
/// On disk the format is versioned and self-contained:
///
///   magic "HDSTRACE" | version u32 | meta (workload, iterations, mode,
///   headLen, feature flags) | event count | events (opcode + LEB128
///   operands) | summary footer | end magic "HDSE"
///
/// All integers are unsigned LEB128 varints except the fixed-width magic
/// and version words, so traces are compact (a load event is typically
/// 3-6 bytes) and the format is endian-independent.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_REPLAY_TRACEFORMAT_H
#define HDS_REPLAY_TRACEFORMAT_H

#include "core/OptimizerConfig.h"
#include "prefetch/Selection.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace replay {

/// One recorded Runtime API event.  Operand meaning depends on the kind:
///
///   DeclareProcedure  A=assigned ProcId                Text=name
///   DeclareSite       A=assigned SiteId  B=ProcId      Text=label
///   Allocate          A=bytes  B=align   C=returned address
///   PadHeap           A=bytes
///   EnterProcedure    A=ProcId
///   LeaveProcedure    -
///   LoopBackEdge      -
///   Load / Store      A=SiteId  B=address
///   Compute           A=cycles
///   SetupDone         -  (marks the Workload::setup / run boundary)
struct TraceEvent {
  enum class Kind : uint8_t {
    DeclareProcedure = 0,
    DeclareSite = 1,
    Allocate = 2,
    PadHeap = 3,
    EnterProcedure = 4,
    LeaveProcedure = 5,
    LoopBackEdge = 6,
    Load = 7,
    Store = 8,
    Compute = 9,
    SetupDone = 10,
  };

  Kind K = Kind::LeaveProcedure;
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
  std::string Text;

  friend bool operator==(const TraceEvent &X, const TraceEvent &Y) {
    return X.K == Y.K && X.A == Y.A && X.B == Y.B && X.C == Y.C &&
           X.Text == Y.Text;
  }
};

/// The recorded run configuration — everything hds_run needs to rebuild
/// the exact OptimizerConfig the original run used.
struct TraceMeta {
  std::string Workload;
  uint64_t Iterations = 0;
  core::RunMode Mode = core::RunMode::DynamicPrefetch;
  uint32_t HeadLength = 2;
  /// Enabled hardware prefetchers.  The serialized flags byte keeps the
  /// original per-kind bit layout, so existing traces read back
  /// unchanged.
  prefetch::PrefetcherSelection Prefetchers;
  bool Pin = false;

  friend bool operator==(const TraceMeta &X, const TraceMeta &Y) {
    return X.Workload == Y.Workload && X.Iterations == Y.Iterations &&
           X.Mode == Y.Mode && X.HeadLength == Y.HeadLength &&
           X.Prefetchers == Y.Prefetchers && X.Pin == Y.Pin;
  }
};

/// The summary footer: the run's observable outcome.  A replay that
/// reproduces the event stream must land on these exact values.
struct TraceSummary {
  uint64_t Cycles = 0;
  uint64_t TotalAccesses = 0;
  uint64_t ChecksExecuted = 0;
  uint64_t TracedRefs = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t PrefetchesIssued = 0;
  uint64_t CompleteMatches = 0;

  friend bool operator==(const TraceSummary &X, const TraceSummary &Y) {
    return X.Cycles == Y.Cycles && X.TotalAccesses == Y.TotalAccesses &&
           X.ChecksExecuted == Y.ChecksExecuted &&
           X.TracedRefs == Y.TracedRefs && X.L1Misses == Y.L1Misses &&
           X.L2Misses == Y.L2Misses &&
           X.PrefetchesIssued == Y.PrefetchesIssued &&
           X.CompleteMatches == Y.CompleteMatches;
  }
};

/// Describes field-by-field how \p Replayed diverges from \p Recorded;
/// empty when they agree.
std::string describeSummaryDivergence(const TraceSummary &Recorded,
                                      const TraceSummary &Replayed);

/// A complete in-memory trace.
struct Trace {
  /// Bump on any change to the serialized layout; readers reject other
  /// versions (no silent misinterpretation of old traces).
  static constexpr uint32_t CurrentVersion = 1;

  TraceMeta Meta;
  std::vector<TraceEvent> Events;
  TraceSummary Summary;
};

/// \name Serialization.
/// @{
std::string serializeTrace(const Trace &T);

/// Parses \p Bytes; returns false (with \p Error set when non-null) on a
/// bad magic, unsupported version, unknown opcode, truncation, or an
/// access, allocation or heap padding that reaches past the 32-bit
/// simulated address space (memsim::AddressSpaceBytes).
bool deserializeTrace(const std::string &Bytes, Trace &Out,
                      std::string *Error = nullptr);

bool writeTraceFile(const Trace &T, const std::string &Path,
                    std::string *Error = nullptr);
bool readTraceFile(const std::string &Path, Trace &Out,
                   std::string *Error = nullptr);
/// @}

} // namespace replay
} // namespace hds

#endif // HDS_REPLAY_TRACEFORMAT_H
