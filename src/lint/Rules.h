//===- src/lint/Rules.h - Project invariant rules --------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hds_lint rule engine.  Rules encode the determinism invariants no
/// compiler warning, sanitizer or determinism test holds (see
/// docs/static-analysis.md for the catalogue and for the rules that gave
/// way to those gates):
///
///   D1  no ambient randomness / wall clock / environment reads in src/
///   D2  no iteration over unordered containers without an ordered-ok note
///   D3  no ordering or sorting keyed on raw pointer values
///   SUP malformed hds-lint suppression comments
///   STALE suppressions whose rule no longer fires
///
/// Findings at a line are suppressed by a comment on the same line or the
/// line above of the form `// hds-lint: <tag>(<reason>)`.  The reason is
/// mandatory: a suppression without one does not suppress and is itself
/// reported.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_RULES_H
#define HDS_LINT_RULES_H

#include "lint/Lexer.h"

#include <string>
#include <vector>

namespace hds {
namespace lint {

/// One reported violation.
struct Finding {
  std::string RuleId; ///< "D1", "D2", "D3", "SUP", "STALE"
  std::string Path;   ///< display path of the offending file
  unsigned Line = 0;
  std::string Message;
  std::string FixHint;
};

/// Static description of one rule.
struct RuleInfo {
  const char *Id;
  const char *Tag; ///< suppression tag, or nullptr if not suppressible
  const char *Summary;
};

/// The full rule catalogue, in report order.
const std::vector<RuleInfo> &ruleCatalog();

/// Runs every rule over \p Files and returns the unsuppressed findings,
/// sorted by path, line, and rule id.  Cross-file context (the D2
/// unordered-container index) is built from exactly the files passed in,
/// so callers should lint a whole tree at once.
std::vector<Finding> runLint(const std::vector<LexedFile> &Files);

/// Formats \p F as "path:line: [ID] message" (+ "  fix: hint" if present).
std::string formatFinding(const Finding &F);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_RULES_H
