//===- analysis/SubpathAnalyzer.cpp - Grammar hot-subpath analysis --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/SubpathAnalyzer.h"

#include "analysis/StreamFilter.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

using namespace hds;
using namespace hds::analysis;
using hds::sequitur::GrammarSnapshot;

namespace {

/// Per-rule facts computed bottom-up.
struct RuleFacts {
  uint64_t Length = 0;               // |w_R|
  uint64_t Uses = 0;                 // occurrences in the parse tree
  std::vector<uint32_t> Prefix;      // first min(L-1, Length) terminals
  std::vector<uint32_t> Suffix;      // last  min(L-1, Length) terminals
  std::vector<uint32_t> FullIfShort; // whole expansion when Length <= 2(L-1)
};

struct VectorHash {
  size_t operator()(const std::vector<uint32_t> &V) const {
    uint64_t H = 0xCBF29CE484222325ULL;
    for (uint32_t X : V) {
      H ^= X;
      H *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(H);
  }
};

/// One position of a rule's boundary image: a terminal plus the RHS item
/// it came from, or a window-blocking gap.
struct ImageSlot {
  uint32_t Terminal;
  uint32_t Item; // index of the originating RHS item
  bool Gap;
};

} // namespace

SubpathAnalysisResult
hds::analysis::analyzeHotSubpaths(const GrammarSnapshot &Snapshot,
                                  const AnalysisConfig &Config) {
  SubpathAnalysisResult Result;
  const size_t N = Snapshot.Rules.size();
  if (N == 0 || Config.MinLength < 2)
    return Result;
  const uint64_t L = Config.MaxLength;
  const uint64_t Edge = L > 0 ? L - 1 : 0; // window reach into a child

  // Topological order (children after parents), exactly like Figure 5's
  // numbering: iterative DFS post-order reversed.
  std::vector<uint32_t> Topo;
  {
    std::vector<uint8_t> Visited(N, 0);
    struct Frame {
      uint32_t Rule;
      size_t Pos;
    };
    std::vector<Frame> Stack{{0, 0}};
    Visited[0] = 1;
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      const auto &Rhs = Snapshot.Rules[Top.Rule].Rhs;
      bool Descended = false;
      while (Top.Pos < Rhs.size()) {
        const auto &Item = Rhs[Top.Pos++];
        if (Item.IsRule && !Visited[Item.RuleIndex]) {
          Visited[Item.RuleIndex] = 1;
          Stack.push_back({Item.RuleIndex, 0});
          Descended = true;
          break;
        }
      }
      if (!Descended) {
        Topo.push_back(Stack.back().Rule);
        Stack.pop_back();
      }
    }
    // Topo is post-order: children precede parents.
  }

  // Bottom-up: lengths, prefixes, suffixes, short expansions.
  std::vector<RuleFacts> Facts(N);
  for (uint32_t Rule : Topo) {
    RuleFacts &F = Facts[Rule];
    // Length and prefix.
    for (const auto &Item : Snapshot.Rules[Rule].Rhs) {
      if (Item.IsRule)
        F.Length += Facts[Item.RuleIndex].Length;
      else
        F.Length += 1;
      if (F.Prefix.size() < Edge) {
        if (Item.IsRule) {
          const auto &ChildPrefix = Facts[Item.RuleIndex].Prefix;
          for (size_t I = 0; I < ChildPrefix.size() && F.Prefix.size() < Edge;
               ++I)
            F.Prefix.push_back(ChildPrefix[I]);
        } else {
          F.Prefix.push_back(static_cast<uint32_t>(Item.Terminal));
        }
      }
    }
    // Suffix: walk backwards.
    const auto &Rhs = Snapshot.Rules[Rule].Rhs;
    std::vector<uint32_t> SuffixReversed;
    for (size_t I = Rhs.size(); I-- > 0 && SuffixReversed.size() < Edge;) {
      const auto &Item = Rhs[I];
      if (Item.IsRule) {
        const auto &ChildSuffix = Facts[Item.RuleIndex].Suffix;
        for (size_t J = ChildSuffix.size();
             J-- > 0 && SuffixReversed.size() < Edge;)
          SuffixReversed.push_back(ChildSuffix[J]);
      } else {
        SuffixReversed.push_back(static_cast<uint32_t>(Item.Terminal));
      }
    }
    F.Suffix.assign(SuffixReversed.rbegin(), SuffixReversed.rend());
    // Short rules keep their whole expansion for exact image building.
    if (F.Length <= 2 * Edge) {
      for (const auto &Item : Snapshot.Rules[Rule].Rhs) {
        if (Item.IsRule) {
          const auto &ChildFull = Facts[Item.RuleIndex].FullIfShort;
          assert(ChildFull.size() == Facts[Item.RuleIndex].Length &&
                 "short rule with a long child");
          F.FullIfShort.insert(F.FullIfShort.end(), ChildFull.begin(),
                               ChildFull.end());
        } else {
          F.FullIfShort.push_back(static_cast<uint32_t>(Item.Terminal));
        }
      }
    }
  }
  Result.TraceLength = Facts[0].Length;

  // Uses: parents before children (reverse of Topo).
  Facts[0].Uses = 1;
  for (size_t I = Topo.size(); I-- > 0;) {
    const uint32_t Rule = Topo[I];
    for (const auto &Item : Snapshot.Rules[Rule].Rhs)
      if (Item.IsRule)
        Facts[Item.RuleIndex].Uses += Facts[Rule].Uses;
  }

  // Enumerate boundary-crossing windows rule by rule.  Every substring of
  // the trace with length in [2, L] is attributed to exactly one rule
  // (the lowest rule whose occurrence's item boundary it crosses), so the
  // accumulated counts are exact total occurrence counts.
  std::unordered_map<std::vector<uint32_t>, uint64_t, VectorHash> Counts;
  std::vector<ImageSlot> Image;
  for (uint32_t Rule = 0; Rule < N; ++Rule) {
    const RuleFacts &F = Facts[Rule];
    if (F.Uses == 0)
      continue;

    // Build the boundary image of this rule's right-hand side.
    Image.clear();
    const auto &Rhs = Snapshot.Rules[Rule].Rhs;
    for (uint32_t ItemIdx = 0; ItemIdx < Rhs.size(); ++ItemIdx) {
      const auto &Item = Rhs[ItemIdx];
      if (!Item.IsRule) {
        Image.push_back({static_cast<uint32_t>(Item.Terminal), ItemIdx,
                         false});
        continue;
      }
      const RuleFacts &Child = Facts[Item.RuleIndex];
      if (!Child.FullIfShort.empty() || Child.Length == 0) {
        for (uint32_t T : Child.FullIfShort)
          Image.push_back({T, ItemIdx, false});
      } else {
        for (uint32_t T : Child.Prefix)
          Image.push_back({T, ItemIdx, false});
        Image.push_back({0, ItemIdx, /*Gap=*/true});
        for (uint32_t T : Child.Suffix)
          Image.push_back({T, ItemIdx, false});
      }
    }

    // Slide windows.
    for (size_t Start = 0; Start < Image.size(); ++Start) {
      if (Image[Start].Gap)
        continue;
      std::vector<uint32_t> Window;
      for (size_t End = Start;
           End < Image.size() && Window.size() < L; ++End) {
        if (Image[End].Gap)
          break;
        Window.push_back(Image[End].Terminal);
        if (Window.size() < 2)
          continue;
        // Only boundary-crossing windows belong to this rule.
        if (Image[Start].Item == Image[End].Item)
          continue;
        Counts[Window] += F.Uses;
      }
    }
  }

  // Threshold and maximality-filter.  Qualifying windows are emitted in
  // lexicographic symbol order, not hash order: Result.Streams must be
  // identical across standard libraries for replay to stay byte-exact.
  std::vector<const std::pair<const std::vector<uint32_t>, uint64_t> *>
      Qualifying;
  // hds-lint: ordered-ok(collected into Qualifying and sorted lexicographically below)
  for (const auto &Entry : Counts) {
    const uint64_t Len = Entry.first.size();
    const uint64_t Count = Entry.second;
    if (Len < Config.MinLength || Count < 2)
      continue;
    if (Len * Count < Config.HeatThreshold)
      continue;
    Qualifying.push_back(&Entry);
  }
  std::sort(Qualifying.begin(), Qualifying.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });
  for (const auto *Entry : Qualifying) {
    HotDataStream Stream;
    Stream.Symbols = Entry->first;
    Stream.Frequency = Entry->second;
    Stream.Heat = Entry->first.size() * Entry->second;
    Result.Streams.push_back(std::move(Stream));
  }
  keepMaximalStreams(Result.Streams);
  return Result;
}
