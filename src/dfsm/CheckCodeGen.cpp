//===- dfsm/CheckCodeGen.cpp - Detection/prefetch code generation ---------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "dfsm/CheckCodeGen.h"

#include "support/Table.h"

#include <algorithm>
#include <map>
#include <set>

using namespace hds;
using namespace hds::dfsm;
using hds::analysis::DataRefTable;

CheckCode hds::dfsm::generateCheckCode(const PrefixDfsm &Dfsm,
                                       const DataRefTable &Refs) {
  // Bucket transitions by (pc, addr), i.e. by symbol.
  struct SymbolTransitions {
    uint32_t Symbol;
    std::vector<std::pair<StateId, StateId>> Edges; // (From, To)
  };
  std::map<std::pair<uint64_t, uint64_t>, SymbolTransitions> BySymbol;
  // hds-lint: ordered-ok(entries are re-keyed into the std::map and edge lists are sorted before use)
  for (const auto &Entry : Dfsm.transitions()) {
    const StateId From = PrefixDfsm::keyState(Entry.first);
    const uint32_t Symbol = PrefixDfsm::keySymbol(Entry.first);
    const analysis::DataRef &Ref = Refs.refOf(Symbol);
    auto &Bucket = BySymbol[{Ref.Pc, Ref.Addr}];
    Bucket.Symbol = Symbol;
    Bucket.Edges.emplace_back(From, Entry.second);
  }

  std::map<uint64_t, SiteCheckCode> ByPc;
  for (auto &Entry : BySymbol) {
    const uint64_t Pc = Entry.first.first;
    const uint64_t Addr = Entry.first.second;
    SymbolTransitions &Bucket = Entry.second;

    AddrGroupCode Group;
    Group.Addr = Addr;
    // The default arm implements the "initial match works regardless"
    // behaviour of Figure 7: with no specific state compare matching,
    // observing this reference restarts matching at d(start, a).
    Group.DefaultToState = Dfsm.step(0, Bucket.Symbol);
    if (Group.DefaultToState != 0)
      Group.DefaultCompletions = Dfsm.completionsAt(Group.DefaultToState);

    std::sort(Bucket.Edges.begin(), Bucket.Edges.end());
    for (const auto &[From, To] : Bucket.Edges) {
      // Transitions indistinguishable from the default arm need no
      // specific clause; this is what keeps the injected check count
      // near the number of state elements rather than states * symbols.
      if (To == Group.DefaultToState)
        continue;
      CheckClause Clause;
      Clause.FromState = From;
      Clause.ToState = To;
      Clause.CompletedStreams = Dfsm.completionsAt(To);
      Group.Specific.push_back(std::move(Clause));
    }

    SiteCheckCode &Site = ByPc[Pc];
    Site.Pc = Pc;
    Site.Groups.push_back(std::move(Group));
  }

  CheckCode Code;
  Code.Sites.reserve(ByPc.size());
  for (auto &Entry : ByPc) {
    std::sort(Entry.second.Groups.begin(), Entry.second.Groups.end(),
              [](const AddrGroupCode &A, const AddrGroupCode &B) {
                return A.Addr < B.Addr;
              });
    Code.Sites.push_back(std::move(Entry.second));
  }
  return Code;
}

std::string CheckCode::dump() const {
  std::string Out;
  auto AppendCompletions = [&](const std::vector<StreamIndex> &Streams) {
    if (Streams.empty())
      return;
    Out += " prefetch tails of streams {";
    for (size_t I = 0; I < Streams.size(); ++I)
      Out += formatString("%s%u", I ? ", " : "", Streams[I]);
    Out += "};";
  };

  for (const SiteCheckCode &Site : Sites) {
    Out += formatString("pc %llu:\n", (unsigned long long)Site.Pc);
    for (const AddrGroupCode &Group : Site.Groups) {
      Out += formatString("  if (accessing %llu) {\n",
                          (unsigned long long)Group.Addr);
      // One if / else if / else chain; a group without specific clauses
      // is just the default assignment.
      const char *Else = "";
      for (const CheckClause &Clause : Group.Specific) {
        Out += formatString("    %sif (state == %u) state = %u;", Else,
                            Clause.FromState, Clause.ToState);
        AppendCompletions(Clause.CompletedStreams);
        Out += '\n';
        Else = "else ";
      }
      Out += formatString("    %sstate = %u;", Else, Group.DefaultToState);
      AppendCompletions(Group.DefaultCompletions);
      Out += "\n  } else state = 0;\n";
    }
  }
  return Out;
}

NaiveCheckStats hds::dfsm::computeNaiveCheckStats(
    const std::vector<std::vector<uint32_t>> &Streams, uint32_t HeadLength,
    const DataRefTable &Refs) {
  NaiveCheckStats Stats;
  std::set<uint64_t> Pcs;
  for (const auto &Stream : Streams) {
    if (Stream.size() <= HeadLength)
      continue;
    for (uint32_t Pos = 0; Pos < HeadLength; ++Pos) {
      Pcs.insert(Refs.refOf(Stream[Pos]).Pc);
      ++Stats.Clauses; // one seen-check clause per (stream, position)
    }
  }
  Stats.Sites = Pcs.size();
  return Stats;
}
