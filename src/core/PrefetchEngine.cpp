//===- core/PrefetchEngine.cpp - Injected-code interpreter ----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "core/PrefetchEngine.h"

#include <algorithm>
#include <cassert>

using namespace hds;
using namespace hds::core;

void PrefetchEngine::install(dfsm::CheckCode NewCode,
                             std::vector<InstalledStream> NewStreams,
                             size_t ImageSiteCount, uint64_t InstallCycle) {
  Code = std::move(NewCode);
  Streams = std::move(NewStreams);
  for (InstalledStream &Stream : Streams) {
    Stream.Tag = NextStreamTag++;
    obs::StreamPrefetchStats Row;
    Row.StreamTag = Stream.Tag;
    Row.InstallCycle = InstallCycle;
    Row.Length = Stream.TailAddrs.size();
    History.push_back(Row);
  }
  SiteToTable.assign(ImageSiteCount, -1);
  SiteScans.clear();
  SiteScans.reserve(Code.Sites.size());
  for (size_t I = 0; I < Code.Sites.size(); ++I) {
    assert(Code.Sites[I].Pc < ImageSiteCount && "pc outside the image");
    SiteToTable[static_cast<size_t>(Code.Sites[I].Pc)] =
        static_cast<int32_t>(I);

    // Intern the site's scan keys (see SiteScan): dense address and
    // FromState arrays in table order, clause ranges as prefix sums.
    SiteScan Scan;
    const dfsm::SiteCheckCode &Table = Code.Sites[I];
    Scan.AddrKeys.reserve(Table.Groups.size());
    Scan.ClauseOffset.reserve(Table.Groups.size() + 1);
    Scan.ClauseOffset.push_back(0);
    for (const dfsm::AddrGroupCode &Group : Table.Groups) {
      Scan.AddrKeys.push_back(Group.Addr);
      for (const dfsm::CheckClause &Clause : Group.Specific)
        Scan.ClauseFrom.push_back(Clause.FromState);
      Scan.ClauseOffset.push_back(
          static_cast<uint32_t>(Scan.ClauseFrom.size()));
    }
    SiteScans.push_back(std::move(Scan));
  }
  State = 0;
  Installed = true;
}

void PrefetchEngine::uninstall() {
  Code = dfsm::CheckCode();
  SiteScans.clear();
  Streams.clear();
  SiteToTable.clear();
  State = 0;
  Installed = false;
}

void PrefetchEngine::firePrefetches(dfsm::StreamIndex StreamIdx,
                                    memsim::Addr MatchAddr,
                                    const OptimizerConfig &Config,
                                    memsim::MemoryHierarchy &Hierarchy,
                                    RunStats &Stats) {
  ++Stats.CompleteMatches;
  const InstalledStream &Stream = Streams.at(StreamIdx);
  // The paper's fixed sequence: the first MaxPrefetchesPerMatch targets
  // of the tail.
  const uint64_t Count = std::min<uint64_t>(Stream.TailAddrs.size(),
                                            Config.MaxPrefetchesPerMatch);
  switch (Config.Mode) {
  case RunMode::Original:
  case RunMode::ChecksOnly:
  case RunMode::Profile:
  case RunMode::ProfileAnalyze:
    assert(false && "prefetch engine installed in a non-matching mode");
    break;
  case RunMode::MatchNoPrefetch:
    break; // measure matching cost only (Figure 12 "No-pref")
  case RunMode::SequentialPrefetch: {
    // Prefetch the blocks sequentially following the last matched
    // reference; same prefetch count as the real scheme would issue.
    const uint64_t Block = Hierarchy.l1().config().BlockBytes;
    for (uint64_t I = 1; I <= Count; ++I) {
      Hierarchy.prefetchT0(MatchAddr + I * Block,
                           /*ChargeIssueSlot=*/true, Stream.Tag);
      ++Stats.PrefetchesRequested;
    }
    break;
  }
  case RunMode::DynamicPrefetch:
    for (uint64_t I = 0; I < Count; ++I) {
      Hierarchy.prefetchT0(Stream.TailAddrs[I],
                           /*ChargeIssueSlot=*/true, Stream.Tag);
      ++Stats.PrefetchesRequested;
    }
    break;
  }
}

void PrefetchEngine::onAccess(vulcan::SiteId Site, memsim::Addr Addr,
                              const OptimizerConfig &Config,
                              memsim::MemoryHierarchy &Hierarchy,
                              RunStats &Stats) {
  assert(siteInstrumented(Site) && "access at an uninstrumented site");
  const size_t TableIdx =
      static_cast<size_t>(SiteToTable[static_cast<size_t>(Site)]);
  const dfsm::SiteCheckCode &Table = Code.Sites[TableIdx];
  const SiteScan &Scan = SiteScans[TableIdx];

  ++Stats.InstrumentedSiteHits;

  // Execute the injected if-else structure (Figure 7): scan the outer
  // address branches until one matches, then that branch's specific
  // state compares; with no specific match the default arm restarts
  // matching at d(start, a).  A non-matching address costs one compare
  // per address group and resets the state.  Both scans run over the
  // interned key arrays (SiteScan) in table order, so the compare
  // sequence — and therefore Scanned — is exactly the clause structure's.
  uint64_t Scanned = 0;
  const size_t NumGroups = Scan.AddrKeys.size();
  size_t GroupIdx = NumGroups;
  for (size_t I = 0; I < NumGroups; ++I) {
    ++Scanned;
    if (Scan.AddrKeys[I] == Addr) {
      GroupIdx = I;
      break;
    }
  }

  const std::vector<dfsm::StreamIndex> *Completions = nullptr;
  if (GroupIdx == NumGroups) {
    State = 0;
  } else {
    const dfsm::AddrGroupCode &Group = Table.Groups[GroupIdx];
    const uint32_t Begin = Scan.ClauseOffset[GroupIdx];
    const uint32_t End = Scan.ClauseOffset[GroupIdx + 1];
    uint32_t Match = End;
    for (uint32_t I = Begin; I < End; ++I) {
      ++Scanned;
      if (Scan.ClauseFrom[I] == State) {
        Match = I;
        break;
      }
    }
    if (Match != End) {
      const dfsm::CheckClause &Clause = Group.Specific[Match - Begin];
      State = Clause.ToState;
      Completions = &Clause.CompletedStreams;
    } else {
      State = Group.DefaultToState;
      Completions = &Group.DefaultCompletions;
    }
  }

  Stats.MatchClausesScanned += Scanned;
  Hierarchy.tick(Config.Costs.MatchClauseCycles *
                     std::max<uint64_t>(1, Scanned),
                 obs::CyclePhase::PrefixMatch);

  if (Completions)
    for (dfsm::StreamIndex StreamIdx : *Completions)
      firePrefetches(StreamIdx, Addr, Config, Hierarchy, Stats);
}
