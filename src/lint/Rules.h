//===- src/lint/Rules.h - Project invariant rules --------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hds_lint rule engine.  Rules encode the project's determinism and
/// hygiene invariants (see docs/static-analysis.md for the catalogue):
///
///   D1  no ambient randomness / wall clock / environment reads in src/
///   D2  no iteration over unordered containers without an ordered-ok note
///   D3  no ordering or sorting keyed on raw pointer values
///   D4  no raw new/delete/malloc outside designated allocator files
///   H1  canonical include guards
///   C1  cycle accounting must route through the MemoryHierarchy API
///   D5  cycle/heat accounting must stay in integer arithmetic
///   SUP malformed hds-lint suppression comments
///   STALE suppressions whose rule no longer fires (--stale-suppressions)
///
/// Findings at a line are suppressed by a comment on the same line or the
/// line above of the form `// hds-lint: <tag>(<reason>)`, and file-wide by
/// `// hds-lint-file: <tag>(<reason>)`.  The reason is mandatory: a
/// suppression without one does not suppress and is itself reported.
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
  std::string RuleId; ///< "D1" ... "D5", "H1", "C1", "SUP", "STALE"
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

struct LintOptions {
  /// If nonempty, only run rules with these ids.
  std::vector<std::string> OnlyRules;
  /// Report suppressions that no longer suppress anything (STALE).
  bool ReportStale = false;
};

/// Runs every (selected) rule over \p Files and returns the unsuppressed
/// findings, sorted by path, line, and rule id.  Cross-file context (the
/// D2 unordered-container index, the C1 account fields) is built from
/// exactly the files passed in, so callers should lint a whole tree at
/// once.
std::vector<Finding> runLint(const std::vector<LexedFile> &Files,
                             const LintOptions &Opts = LintOptions());

/// Formats \p F as "path:line: [ID] message" (+ "  fix: hint" if present).
std::string formatFinding(const Finding &F);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_RULES_H
