//===- core/PrefetchEngine.h - Injected-code interpreter -------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the injected detection and prefetching code (Section 3.1).
///
/// After each optimization step the engine holds the generated per-pc
/// check tables (dfsm::CheckCode) and the prefetch targets of every
/// installed hot data stream.  A data access at an instrumented pc scans
/// that pc's clauses: a clause whose address and source state both match
/// drives the DFSM state forward and, on a complete prefix match, issues
/// prefetches — the stream's remaining addresses for Dyn-pref, or the
/// sequentially following cache blocks for the Seq-pref straw man, or
/// nothing for No-pref (Section 4.3).  A failed match resets the state to
/// the start state, mirroring the "else v.seen = 0" arms of Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CORE_PREFETCHENGINE_H
#define HDS_CORE_PREFETCHENGINE_H

#include "core/OptimizerConfig.h"
#include "core/RunStats.h"
#include "dfsm/CheckCodeGen.h"
#include "memsim/MemoryHierarchy.h"
#include "obs/PrefetchStats.h"
#include "vulcan/Image.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hds {
namespace core {

/// Interpreter for one optimization cycle's injected code.
class PrefetchEngine {
public:
  /// Prefetch targets for one installed stream: the addresses of its tail
  /// (v.tail = v_{headLen+1} ... v_{|v|}).  The tag is assigned by
  /// install() and rides along with every prefetch the stream fires, so
  /// the memory hierarchy can attribute effectiveness events back to it.
  struct InstalledStream {
    std::vector<memsim::Addr> TailAddrs;
    uint32_t Tag = obs::NoStreamTag;
  };

  /// Installs \p Code and \p Streams; \p ImageSiteCount sizes the fast
  /// site lookup table.  StreamIndex values inside the code refer into
  /// \p Streams.  Each stream is assigned the next free tag (unique
  /// across the whole run, surviving uninstall), and a row recording its
  /// identity is appended to streamHistory(); \p InstallCycle labels the
  /// optimization cycle doing the install.
  void install(dfsm::CheckCode Code, std::vector<InstalledStream> Streams,
               size_t ImageSiteCount, uint64_t InstallCycle = 0);

  /// Removes all injected code (deoptimization).
  void uninstall();

  bool installed() const { return Installed; }

  /// O(1): whether \p Site carries injected checks.
  bool siteInstrumented(vulcan::SiteId Site) const {
    return Installed && Site < SiteToTable.size() &&
           SiteToTable[static_cast<size_t>(Site)] >= 0;
  }

  /// Runs the injected code for an access of \p Addr at \p Site.
  /// Advances the simulated clock by the scan cost and issues prefetches
  /// according to \p Config.Mode.  Must only be called for instrumented
  /// sites.
  void onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                const OptimizerConfig &Config,
                memsim::MemoryHierarchy &Hierarchy, RunStats &Stats);

  /// Current DFSM state (tests).
  dfsm::StateId currentState() const { return State; }

  /// The installed check tables (tests and cross-validation).
  const dfsm::CheckCode &installedCode() const { return Code; }

  /// The installed streams' tail addresses (tests).
  const std::vector<InstalledStream> &installedStreams() const {
    return Streams;
  }

  /// Identity rows (tag, install cycle, length) of every stream ever
  /// installed, in tag order; classification counters are zero — the
  /// Runtime joins them with the hierarchy's per-stream buckets.
  const std::vector<obs::StreamPrefetchStats> &streamHistory() const {
    return History;
  }

  /// Reserves tags [0, Base) for the hardware prefetcher stack: the first
  /// installed stream gets tag \p Base.  Must be called before any
  /// install(); the Runtime does this at construction so stream and
  /// prefetcher classification buckets never collide.
  void setStreamTagBase(uint32_t Base) {
    assert(History.empty() && "tag base must be set before any install");
    NextStreamTag = Base;
  }

private:
  /// Issues the prefetches for one completed stream.
  void firePrefetches(dfsm::StreamIndex StreamIdx, memsim::Addr MatchAddr,
                      const OptimizerConfig &Config,
                      memsim::MemoryHierarchy &Hierarchy, RunStats &Stats);

  /// Interned scan keys for one site's check table, built at install()
  /// time.  The hot clause scans in onAccess() run over these dense key
  /// arrays — all of a site's group addresses back to back, and all of
  /// its clause FromStates flattened behind prefix-sum offsets — instead
  /// of striding through the fat AddrGroupCode / CheckClause records.
  /// Payloads (ToState, completions) are fetched by index only after a
  /// key matches.  Scan order and clause counts are exactly those of the
  /// underlying table.
  struct SiteScan {
    std::vector<uint64_t> AddrKeys;          // Groups[I].Addr
    std::vector<uint32_t> ClauseOffset;      // group -> ClauseFrom range
    std::vector<dfsm::StateId> ClauseFrom;   // flattened Specific[..]
  };

  bool Installed = false;
  dfsm::CheckCode Code;
  std::vector<SiteScan> SiteScans; // parallel to Code.Sites
  std::vector<InstalledStream> Streams;
  std::vector<int32_t> SiteToTable; // SiteId -> index into Code.Sites
  dfsm::StateId State = 0;
  uint32_t NextStreamTag = 0;
  std::vector<obs::StreamPrefetchStats> History;
};

} // namespace core
} // namespace hds

#endif // HDS_CORE_PREFETCHENGINE_H
