//===- src/lint/ScopeTracker.h - Per-TU symbol/scope tracking --*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token-level structure discovery for one translation unit: class body
/// spans, function bodies with their owning class, and enum definitions
/// with their enumerators and the `hds-exhaustive` marker.  This is
/// deliberately a recognizer, not a parser — it finds the shapes E1
/// exhaustive dispatch needs and ignores everything else.  Unrecognized
/// constructs degrade to "not tracked", never to a crash.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_SCOPETRACKER_H
#define HDS_LINT_SCOPETRACKER_H

#include "lint/Lexer.h"

#include <cstddef>
#include <string>
#include <vector>

namespace hds {
namespace lint {

/// One class/struct body: `class Name ... { [Open] ... [Close] }`.
struct ClassSpan {
  std::string Name; ///< last path component: `Coordinator::ServeState` -> "ServeState"
  size_t Open = 0;  ///< token index of '{'
  size_t Close = 0; ///< token index of matching '}'
  unsigned Line = 0;
};

/// One function definition with a body.
struct FunctionBody {
  std::string ClassName; ///< owning class, "" for free functions
  size_t Open = 0;       ///< token index of the body '{'
  size_t Close = 0;      ///< token index of the matching '}'
};

/// One enum definition and its enumerator names in declaration order.
struct EnumDef {
  std::string Name;
  /// Innermost enclosing class/struct body, "" at namespace scope.  Lets
  /// rules resolve `OwningClass::Member` qualifiers and bare member uses
  /// inside the class's own scope.
  std::string OwningClass;
  std::vector<std::string> Enumerators;
  unsigned Line = 0;
  bool Scoped = false;     ///< `enum class/struct` — members never bare
  bool Exhaustive = false; ///< marked `// hds-exhaustive`
};

/// Finds every class/struct definition body in \p T.  Template parameter
/// lists, forward declarations, and `enum class` never match.  Nested
/// classes produce nested spans.
std::vector<ClassSpan> findClassSpans(const std::vector<Token> &T);

/// Finds function definitions (declarations with a `{...}` body) in \p T.
/// The owning class comes from an explicit `Class::name` qualifier or the
/// innermost enclosing span in \p Classes.
std::vector<FunctionBody> findFunctionBodies(const std::vector<Token> &T,
                                             const std::vector<ClassSpan> &Classes);

/// Finds enum definitions in \p File.  The `hds-exhaustive` marker
/// attaches like a suppression: on the definition line or the line above.
std::vector<EnumDef> findEnums(const LexedFile &File);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_SCOPETRACKER_H
