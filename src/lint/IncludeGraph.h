//===- src/lint/IncludeGraph.h - Preprocessor-lite include graph -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A preprocessor-lite include graph over a lexed file set.  Quoted
/// includes are resolved to linted files by path-suffix match (the linter
/// sees display paths, not a real include search path), and the graph
/// exposes the transitive closure so rules can ask "what is visible from
/// this translation unit".  D2 uses it to propagate unordered-container
/// names.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_INCLUDEGRAPH_H
#define HDS_LINT_INCLUDEGRAPH_H

#include "lint/Lexer.h"

#include <map>
#include <string>
#include <vector>

namespace hds {
namespace lint {

/// Include paths of \p File written with quotes ("engine/Wire.h").
std::vector<std::string> quotedIncludes(const LexedFile &File);

/// The include graph over one linted file set.
struct IncludeGraph {
  /// Per display path: every linted file transitively reachable through
  /// quoted includes, the file itself included.  Unresolvable includes
  /// (system headers, files outside the linted set) are skipped.
  std::map<std::string, std::vector<std::string>> Reachable;
};

/// Builds the graph for \p Files.  Resolution is by path-suffix match
/// against the linted set, mirroring how the tree's quoted includes name
/// files relative to src/.
IncludeGraph buildIncludeGraph(const std::vector<LexedFile> &Files);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_INCLUDEGRAPH_H
