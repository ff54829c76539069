//===- src/lint/TokenUtil.h - Shared token/path helpers --------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small inline helpers shared by the lint rule modules: token predicates,
/// balanced-delimiter matching, and display-path classification.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_TOKENUTIL_H
#define HDS_LINT_TOKENUTIL_H

#include "lint/Lexer.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hds {
namespace lint {

inline bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

inline bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.compare(0, Prefix.size(), Prefix) == 0;
}

/// True when \p Path lies under the top-level tree \p Root ("src", ...),
/// whether the path is repo-relative or absolute.
inline bool inTree(std::string_view Path, std::string_view Root) {
  std::string Rel(Root);
  Rel += '/';
  if (startsWith(Path, Rel))
    return true;
  std::string Abs = "/" + Rel;
  return Path.find(Abs) != std::string_view::npos;
}

/// True when \p Path names the file \p Tail ("support/Rng.h") under any
/// prefix.
inline bool isFile(std::string_view Path, std::string_view Tail) {
  return Path == Tail || endsWith(Path, std::string("/").append(Tail));
}

inline bool isIdent(const std::vector<Token> &T, size_t I,
                    std::string_view Text) {
  return I < T.size() && T[I].K == Token::Ident && T[I].Text == Text;
}

inline bool isPunct(const std::vector<Token> &T, size_t I,
                    std::string_view Text) {
  return I < T.size() && T[I].K == Token::Punct && T[I].Text == Text;
}

/// Index of the token matching the opener at \p Open ("(", "[", "{"), or
/// T.size() when unbalanced.
inline size_t matchingClose(const std::vector<Token> &T, size_t Open) {
  const std::string &O = T[Open].Text;
  std::string C = O == "(" ? ")" : O == "[" ? "]" : "}";
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    if (T[I].K != Token::Punct)
      continue;
    if (T[I].Text == O)
      ++Depth;
    else if (T[I].Text == C && --Depth == 0)
      return I;
  }
  return T.size();
}

/// For a '<' at \p Open that begins a template argument list, returns the
/// index of the matching '>', or T.size() when it does not look like one
/// (expression context: hits ';', '{', or unbalanced closers first).
inline size_t matchingTemplateClose(const std::vector<Token> &T, size_t Open) {
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    if (T[I].K != Token::Punct)
      continue;
    const std::string &P = T[I].Text;
    if (P == "<")
      ++Depth;
    else if (P == ">" && --Depth == 0)
      return I;
    else if (P == ">>" && (Depth -= 2) <= 0)
      return I; // nested close like map<int, vector<int>>
    else if (P == ";" || P == "{")
      return T.size();
  }
  return T.size();
}

/// True if token \p I is a call to the unqualified or std-qualified
/// function \p Name: `Name(`, `std::Name(`, but not `x.Name(`,
/// `x->Name(`, or `Other::Name(`.
inline bool isFreeCall(const std::vector<Token> &T, size_t I,
                       std::string_view Name) {
  if (!isIdent(T, I, Name) || !isPunct(T, I + 1, "("))
    return false;
  if (I == 0)
    return true;
  if (isPunct(T, I - 1, ".") || isPunct(T, I - 1, "->"))
    return false;
  if (isPunct(T, I - 1, "::"))
    return I >= 2 && isIdent(T, I - 2, "std");
  return true;
}

} // namespace lint
} // namespace hds

#endif // HDS_LINT_TOKENUTIL_H
