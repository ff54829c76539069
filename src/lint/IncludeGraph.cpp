//===- src/lint/IncludeGraph.cpp - Preprocessor-lite include graph --------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "lint/IncludeGraph.h"

#include "lint/TokenUtil.h"

#include <set>

namespace hds {
namespace lint {

std::vector<std::string> quotedIncludes(const LexedFile &File) {
  std::vector<std::string> Out;
  for (const Directive &D : File.Directives) {
    if (!startsWith(D.Text, "include"))
      continue;
    size_t B = D.Text.find('"');
    if (B == std::string::npos)
      continue;
    size_t E = D.Text.find('"', B + 1);
    if (E != std::string::npos)
      Out.push_back(D.Text.substr(B + 1, E - B - 1));
  }
  return Out;
}

IncludeGraph buildIncludeGraph(const std::vector<LexedFile> &Files) {
  std::map<std::string, std::vector<std::string>> Direct;
  for (const LexedFile &F : Files)
    Direct.emplace(F.Path, quotedIncludes(F));

  // Resolve a quoted include to a linted file path by suffix match.
  auto Resolve = [&](const std::string &Inc) -> const std::string * {
    for (const auto &[Path, Incs] : Direct) {
      (void)Incs;
      if (Path == Inc || endsWith(Path, std::string("/").append(Inc)))
        return &Path;
    }
    return nullptr;
  };

  IncludeGraph Graph;
  for (const LexedFile &F : Files) {
    std::set<std::string> Visited;
    std::vector<std::string> Work{F.Path};
    while (!Work.empty()) {
      std::string Cur = Work.back();
      Work.pop_back();
      if (!Visited.insert(Cur).second)
        continue;
      auto It = Direct.find(Cur);
      if (It == Direct.end())
        continue;
      for (const std::string &Inc : It->second)
        if (const std::string *Target = Resolve(Inc))
          Work.push_back(*Target);
    }
    Graph.Reachable.emplace(F.Path, std::vector<std::string>(Visited.begin(),
                                                             Visited.end()));
  }
  return Graph;
}

} // namespace lint
} // namespace hds
