//===- src/lint/ScopeTracker.cpp - Per-TU symbol/scope tracking -----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "lint/ScopeTracker.h"

#include "lint/TokenUtil.h"

#include <set>

namespace hds {
namespace lint {

namespace {

using Toks = std::vector<Token>;

/// Keywords that look like `name(` but never begin a function definition.
bool isNonFunctionKeyword(const std::string &S) {
  static const std::set<std::string> KW = {
      "if",     "for",      "while",    "switch",   "catch",
      "return", "sizeof",   "alignof",  "decltype", "static_assert",
      "assert", "defined",  "void",     "int",      "bool",
      "char",   "auto",     "operator", "new",      "delete",
      "throw",  "co_await", "co_return", "constexpr", "requires",
      "alignas", "typeid",  "noexcept"};
  return KW.count(S) != 0;
}

} // namespace

std::vector<ClassSpan> findClassSpans(const Toks &T) {
  std::vector<ClassSpan> Spans;
  for (size_t I = 0; I < T.size(); ++I) {
    if (!(isIdent(T, I, "class") || isIdent(T, I, "struct")))
      continue;
    if (I > 0 && isIdent(T, I - 1, "enum"))
      continue; // enum class
    // Walk the head: attributes, a possibly qualified name, and an
    // optional base clause, stopping at '{' (definition) or anything that
    // rules one out ('<' of a template parameter list, ';', '*', ...).
    std::string Name;
    unsigned Line = T[I].Line;
    size_t J = I + 1;
    bool IsDefinition = false;
    while (J < T.size()) {
      if (isPunct(T, J, "[") && isPunct(T, J + 1, "[")) {
        size_t Close = matchingClose(T, J);
        if (Close == T.size())
          break;
        J = Close + 1;
        continue;
      }
      if (T[J].K == Token::Ident && T[J].Text != "final") {
        Name = T[J].Text;
        Line = T[J].Line;
        ++J;
        continue;
      }
      if (isIdent(T, J, "final")) {
        // `class Name final : Base {` — the specifier sits between the
        // name and the base clause; skip it or the head walk stalls.
        ++J;
        continue;
      }
      if (isPunct(T, J, "::")) {
        ++J;
        continue;
      }
      if (isPunct(T, J, ":")) {
        // Base clause: scan forward to the body '{', skipping balanced
        // template argument lists and parens.
        int Angle = 0;
        for (++J; J < T.size(); ++J) {
          if (T[J].K != Token::Punct)
            continue;
          const std::string &P = T[J].Text;
          if (P == "<")
            ++Angle;
          else if (P == ">")
            --Angle;
          else if (P == ">>")
            Angle -= 2;
          else if (P == "{" && Angle <= 0)
            break;
          else if (P == ";")
            break;
        }
        IsDefinition = J < T.size() && isPunct(T, J, "{");
        break;
      }
      if (isPunct(T, J, "{")) {
        IsDefinition = true;
        break;
      }
      break; // '<', ';', '*', '&', '=', ... — not a definition head
    }
    if (!IsDefinition || Name.empty())
      continue;
    size_t Close = matchingClose(T, J);
    if (Close == T.size())
      continue;
    Spans.push_back({Name, J, Close, Line});
  }
  return Spans;
}

std::vector<FunctionBody> findFunctionBodies(const Toks &T,
                                             const std::vector<ClassSpan> &Classes) {
  std::vector<FunctionBody> Bodies;
  for (size_t I = 1; I < T.size(); ++I) {
    if (!isPunct(T, I, "(") || T[I - 1].K != Token::Ident)
      continue;
    const std::string &Name = T[I - 1].Text;
    if (isNonFunctionKeyword(Name))
      continue;
    if (I >= 2 && (isPunct(T, I - 2, ".") || isPunct(T, I - 2, "->")))
      continue; // member call expression
    size_t ParamClose = matchingClose(T, I);
    if (ParamClose == T.size())
      continue;

    // Explicit qualification and destructor tilde.
    size_t NameTok = I - 1;
    bool IsDtor = NameTok >= 1 && isPunct(T, NameTok - 1, "~");
    size_t QualFrom = IsDtor ? NameTok - 1 : NameTok;
    std::string ClassName;
    if (QualFrom >= 2 && isPunct(T, QualFrom - 1, "::") &&
        T[QualFrom - 2].K == Token::Ident)
      ClassName = T[QualFrom - 2].Text;

    // Walk from the parameter close to the body '{', accepting only the
    // token shapes a function header can contain.  Anything else means
    // this was a call, a declaration, or an initializer — skip it.
    size_t J = ParamClose + 1;
    bool Found = false;
    while (J < T.size() && !Found) {
      if (isIdent(T, J, "const") || isIdent(T, J, "override") ||
          isIdent(T, J, "final") || isIdent(T, J, "mutable") ||
          isPunct(T, J, "&") || isPunct(T, J, "&&")) {
        ++J;
      } else if (isIdent(T, J, "noexcept")) {
        ++J;
        if (isPunct(T, J, "(")) {
          size_t C = matchingClose(T, J);
          if (C == T.size())
            break;
          J = C + 1;
        }
      } else if (isPunct(T, J, "->")) {
        // Trailing return type: consume type tokens up to '{' or ';'.
        int Angle = 0;
        for (++J; J < T.size(); ++J) {
          if (T[J].K == Token::Punct) {
            const std::string &P = T[J].Text;
            if (P == "<")
              ++Angle;
            else if (P == ">")
              --Angle;
            else if (P == ">>")
              Angle -= 2;
            else if (P == "{" && Angle <= 0)
              break;
            else if (P == ";")
              break;
          }
        }
        if (J < T.size() && isPunct(T, J, "{"))
          Found = true;
        else
          break;
      } else if (isPunct(T, J, ":")) {
        // Constructor initializer list: `Name(expr), Other{expr}, ... {`.
        ++J;
        while (J < T.size()) {
          if (T[J].K == Token::Ident || isPunct(T, J, "::") ||
              isPunct(T, J, ",")) {
            ++J;
            continue;
          }
          if (isPunct(T, J, "<")) {
            int Angle = 0;
            for (; J < T.size(); ++J) {
              if (T[J].K != Token::Punct)
                continue;
              if (T[J].Text == "<")
                ++Angle;
              else if (T[J].Text == ">" && --Angle == 0) {
                ++J;
                break;
              } else if (T[J].Text == ">>" && (Angle -= 2) <= 0) {
                ++J;
                break;
              }
            }
            continue;
          }
          if (isPunct(T, J, "(") || isPunct(T, J, "{")) {
            size_t C = matchingClose(T, J);
            if (C == T.size())
              break;
            // A '{' directly after another initializer's close brace or
            // at the clause start is the body only when nothing follows
            // in the init-list grammar; detect the body as a '{' whose
            // predecessor is not an initializer head.
            bool IsBody = isPunct(T, J, "{") && J > 0 &&
                          (isPunct(T, J - 1, ")") || isPunct(T, J - 1, "}"));
            if (IsBody) {
              Found = true;
              break;
            }
            J = C + 1;
            continue;
          }
          break;
        }
        if (!Found)
          break;
      } else if (isPunct(T, J, "{")) {
        Found = true;
      } else {
        break; // ';', '=', ',', ')', operator, ... — not a definition
      }
    }
    if (!Found || J >= T.size())
      continue;
    size_t BodyClose = matchingClose(T, J);
    if (BodyClose == T.size())
      continue;

    if (ClassName.empty()) {
      // Innermost enclosing class span.
      size_t Best = T.size();
      for (const ClassSpan &CS : Classes)
        if (CS.Open < NameTok && NameTok < CS.Close &&
            (Best == T.size() || CS.Close - CS.Open < Best)) {
          ClassName = CS.Name;
          Best = CS.Close - CS.Open;
        }
    }
    Bodies.push_back({ClassName, J, BodyClose});
    I = J; // resume after the header; nested lambdas are part of this body
  }
  return Bodies;
}

std::vector<EnumDef> findEnums(const LexedFile &File) {
  const Toks &T = File.Toks;
  const std::vector<ClassSpan> Classes = findClassSpans(T);
  std::vector<EnumDef> Enums;
  for (size_t I = 0; I < T.size(); ++I) {
    if (!isIdent(T, I, "enum"))
      continue;
    size_t J = I + 1;
    bool Scoped = false;
    if (isIdent(T, J, "class") || isIdent(T, J, "struct")) {
      Scoped = true;
      ++J;
    }
    if (J >= T.size() || T[J].K != Token::Ident)
      continue; // anonymous
    EnumDef Def;
    Def.Name = T[J].Text;
    Def.Line = T[J].Line;
    Def.Scoped = Scoped;
    // Innermost class body containing the definition, by narrowest span.
    size_t BestSpan = T.size();
    for (const ClassSpan &CS : Classes)
      if (CS.Open < I && I < CS.Close && CS.Close - CS.Open < BestSpan) {
        BestSpan = CS.Close - CS.Open;
        Def.OwningClass = CS.Name;
      }
    ++J;
    // Optional underlying type: `: uint8_t`.
    if (isPunct(T, J, ":")) {
      ++J;
      while (J < T.size() && (T[J].K == Token::Ident || isPunct(T, J, "::")))
        ++J;
    }
    if (!isPunct(T, J, "{"))
      continue; // forward / opaque declaration
    size_t Close = matchingClose(T, J);
    if (Close == T.size())
      continue;
    int Depth = 0;
    for (size_t K = J; K < Close; ++K) {
      if (T[K].K == Token::Punct) {
        if (T[K].Text == "{" || T[K].Text == "(")
          ++Depth;
        else if (T[K].Text == "}" || T[K].Text == ")")
          --Depth;
        continue;
      }
      if (Depth != 1 || T[K].K != Token::Ident)
        continue;
      // An enumerator is an identifier followed by '=', ',' or the close.
      bool IsEnumerator = isPunct(T, K + 1, ",") || K + 1 == Close ||
                          isPunct(T, K + 1, "=");
      if (!IsEnumerator)
        continue;
      Def.Enumerators.push_back(T[K].Text);
      // Skip past the initializer to avoid treating its identifiers as
      // enumerators.
      while (K + 1 < Close && !isPunct(T, K + 1, ","))
        ++K;
    }
    // The marker attaches like a suppression: the comment's own lines
    // plus the line below it.
    for (const Comment &Note : File.Comments)
      if (Def.Line >= Note.Line && Def.Line <= Note.EndLine + 1 &&
          Note.Text.find("hds-exhaustive") != std::string::npos)
        Def.Exhaustive = true;
    Enums.push_back(std::move(Def));
  }
  return Enums;
}

} // namespace lint
} // namespace hds
