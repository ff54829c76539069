//===- src/lint/Rules.cpp - Project invariant rules -----------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "lint/Rules.h"

#include "lint/IncludeGraph.h"
#include "lint/TokenUtil.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace hds {
namespace lint {

namespace {

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

/// One parsed suppression note.  Usage is tracked so STALE can report
/// notes whose rule no longer fires where they point.
struct SuppressionNote {
  std::string Tag;
  unsigned CommentLine = 0; ///< where the note itself lives
  unsigned Begin = 0;       ///< first line it covers
  unsigned End = 0;         ///< last line it covers (inclusive)
  bool Used = false;
};

struct Suppressions {
  std::vector<SuppressionNote> Notes;
};

bool isKnownTag(const std::string &Tag) {
  for (const RuleInfo &R : ruleCatalog())
    if (R.Tag && Tag == R.Tag)
      return true;
  return false;
}

/// Parses "tag1(reason), tag2(reason)" starting at \p Text[Pos].  Invalid
/// entries (unknown tag, missing or empty reason) produce SUP findings.
void parseSuppressionList(const std::string &Text, size_t Pos,
                          const Comment &Note, const std::string &Path,
                          std::set<std::string> &Out,
                          std::vector<Finding> &Sup) {
  size_t I = Pos;
  while (I < Text.size()) {
    while (I < Text.size() &&
           (std::isspace(static_cast<unsigned char>(Text[I])) ||
            Text[I] == ','))
      ++I;
    if (I >= Text.size())
      break;
    size_t TagBegin = I;
    while (I < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[I])) ||
            Text[I] == '-' || Text[I] == '_'))
      ++I;
    std::string Tag = Text.substr(TagBegin, I - TagBegin);
    std::string Reason;
    if (I < Text.size() && Text[I] == '(') {
      size_t Close = Text.find(')', I);
      if (Close == std::string::npos) {
        Sup.push_back({"SUP", Path, Note.Line,
                       "unterminated reason in hds-lint suppression",
                       "write `// hds-lint: " + Tag + "(<why>)`"});
        return;
      }
      Reason = Text.substr(I + 1, Close - I - 1);
      I = Close + 1;
    }
    size_t RB = Reason.find_first_not_of(" \t");
    bool HasReason = RB != std::string::npos;
    if (Tag.empty())
      return; // prose mentioning "hds-lint:", not a suppression
    if (!isKnownTag(Tag)) {
      Sup.push_back({"SUP", Path, Note.Line,
                     "unknown hds-lint suppression tag '" + Tag + "'",
                     "see docs/static-analysis.md for the tag catalogue"});
      continue;
    }
    if (!HasReason) {
      Sup.push_back({"SUP", Path, Note.Line,
                     "hds-lint suppression '" + Tag +
                         "' is missing a reason and is ignored",
                     "write `// hds-lint: " + Tag + "(<why>)`"});
      continue;
    }
    Out.insert(Tag);
  }
}

Suppressions collectSuppressions(const LexedFile &File,
                                 std::vector<Finding> &Sup) {
  Suppressions S;
  for (const Comment &Note : File.Comments) {
    size_t Pos = Note.Text.find("hds-lint:");
    if (Pos == std::string::npos)
      continue;
    std::set<std::string> Tags;
    parseSuppressionList(Note.Text, Pos + 9, Note, File.Path, Tags, Sup);
    for (const std::string &Tag : Tags)
      S.Notes.push_back({Tag, Note.Line, Note.Line, Note.EndLine + 1, false});
  }
  return S;
}

/// Marks every note covering (Tag, Line) as used; true when any did.
bool trySuppress(Suppressions &S, const std::string &Tag, unsigned Line) {
  bool Hit = false;
  for (SuppressionNote &N : S.Notes)
    if (N.Tag == Tag && Line >= N.Begin && Line <= N.End) {
      N.Used = true;
      Hit = true;
    }
  return Hit;
}

//===----------------------------------------------------------------------===//
// Project index: unordered-container names, via the include graph (D2)
//===----------------------------------------------------------------------===//

using Toks = std::vector<Token>;

bool isUnorderedContainerName(const std::string &S) {
  return S == "unordered_map" || S == "unordered_set" ||
         S == "unordered_multimap" || S == "unordered_multiset";
}

/// Scans one file for declarations whose type is an unordered container
/// (directly or through a `using` alias declared in the same file) and
/// records the declared variable / accessor names.
std::set<std::string> collectUnorderedNames(const LexedFile &File) {
  std::set<std::string> Names;
  const Toks &T = File.Toks;
  std::set<std::string> Aliases;
  for (size_t I = 0; I < T.size(); ++I) {
    bool IsUnordered = T[I].K == Token::Ident &&
                       isUnorderedContainerName(T[I].Text);
    bool IsAliasUse = T[I].K == Token::Ident && Aliases.count(T[I].Text) &&
                      !isPunct(T, I + 1, "=");
    if (!IsUnordered && !IsAliasUse)
      continue;

    // `using A = std::unordered_map<...>` — record the alias name.
    if (IsUnordered) {
      size_t AliasName = I;
      // Walk back over `std ::` qualification.
      if (AliasName >= 2 && isPunct(T, AliasName - 1, "::"))
        AliasName -= 2;
      if (AliasName >= 2 && isPunct(T, AliasName - 1, "=") &&
          T[AliasName - 2].K == Token::Ident && AliasName >= 3 &&
          isIdent(T, AliasName - 3, "using")) {
        Aliases.insert(T[AliasName - 2].Text);
      }
    }

    // Skip past the template argument list, if any.
    size_t After = I + 1;
    if (IsUnordered) {
      if (!isPunct(T, I + 1, "<"))
        continue;
      size_t Close = matchingTemplateClose(T, I + 1);
      if (Close == T.size())
        continue;
      After = Close + 1;
    }

    // `...> ::iterator` etc: not a declaration.
    if (isPunct(T, After, "::"))
      continue;
    // Skip ref/pointer declarators.
    while (isPunct(T, After, "&") || isPunct(T, After, "*") ||
           isIdent(T, After, "const"))
      ++After;
    if (After < T.size() && T[After].K == Token::Ident)
      Names.insert(T[After].Text);
  }
  return Names;
}

struct ProjectIndex {
  /// Per display path: unordered names visible after resolving quoted
  /// includes transitively across the linted file set.
  std::map<std::string, std::set<std::string>> Visible;
};

ProjectIndex buildIndex(const std::vector<LexedFile> &Files) {
  std::map<std::string, std::set<std::string>> Own;
  for (const LexedFile &F : Files)
    Own.emplace(F.Path, collectUnorderedNames(F));

  IncludeGraph Graph = buildIncludeGraph(Files);
  ProjectIndex Index;
  for (const LexedFile &F : Files) {
    std::set<std::string> Names;
    auto It = Graph.Reachable.find(F.Path);
    if (It != Graph.Reachable.end())
      for (const std::string &Reached : It->second) {
        auto OIt = Own.find(Reached);
        if (OIt != Own.end())
          Names.insert(OIt->second.begin(), OIt->second.end());
      }
    Index.Visible.emplace(F.Path, std::move(Names));
  }
  return Index;
}

//===----------------------------------------------------------------------===//
// D1: ambient randomness / wall clock / environment
//===----------------------------------------------------------------------===//

void checkD1(const LexedFile &File, std::vector<Finding> &Out) {
  if (!inTree(File.Path, "src") || isFile(File.Path, "support/Rng.h"))
    return;
  static const char *BannedCalls[] = {
      "rand",      "srand",         "rand_r",   "drand48", "lrand48",
      "time",      "clock",         "gettimeofday", "clock_gettime",
      "localtime", "gmtime",        "getenv",   "setenv",  "putenv"};
  static const char *BannedNames[] = {
      "random_device",  "mt19937",       "mt19937_64",
      "minstd_rand",    "minstd_rand0",  "default_random_engine",
      "system_clock",   "steady_clock",  "high_resolution_clock",
      "chrono",         "uniform_int_distribution",
      "uniform_real_distribution", "normal_distribution",
      "bernoulli_distribution"};
  const Toks &T = File.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Ident)
      continue;
    for (const char *Name : BannedCalls)
      if (isFreeCall(T, I, Name))
        Out.push_back(
            {"D1", File.Path, T[I].Line,
             "call to '" + T[I].Text +
                 "' introduces ambient nondeterminism in src/",
             "use hds::Rng (support/Rng.h) with an explicit seed, or pass "
             "the value in as a parameter"});
    for (const char *Name : BannedNames)
      if (T[I].Text == Name)
        Out.push_back(
            {"D1", File.Path, T[I].Line,
             "use of '" + T[I].Text +
                 "' introduces ambient nondeterminism in src/",
             "use hds::Rng (support/Rng.h) with an explicit seed; wall "
             "clocks and std::random are banned in src/"});
  }
}

//===----------------------------------------------------------------------===//
// D2: iteration over unordered containers
//===----------------------------------------------------------------------===//

void checkD2(const LexedFile &File, const ProjectIndex &Index,
             std::vector<Finding> &Out) {
  auto VisIt = Index.Visible.find(File.Path);
  if (VisIt == Index.Visible.end() || VisIt->second.empty())
    return;
  const std::set<std::string> &Unordered = VisIt->second;
  const Toks &T = File.Toks;

  auto Report = [&](unsigned Line, const std::string &Name,
                    const char *What) {
    Out.push_back(
        {"D2", File.Path, Line,
         std::string(What) + " '" + Name +
             "' iterates an unordered container; iteration order is not "
             "deterministic across standard libraries",
         "iterate a sorted copy of the keys, switch to an ordered/indexed "
         "container, or annotate `// hds-lint: ordered-ok(<why the order "
         "cannot affect results>)`"});
  };

  for (size_t I = 0; I < T.size(); ++I) {
    // Range-for whose sequence mentions an unordered name.
    if (isIdent(T, I, "for") && isPunct(T, I + 1, "(")) {
      size_t Close = matchingClose(T, I + 1);
      if (Close == T.size())
        continue;
      // Find the top-level ':' of a range-for (absent in classic for).
      size_t Colon = T.size();
      int Depth = 0;
      for (size_t J = I + 2; J < Close; ++J) {
        if (T[J].K != Token::Punct)
          continue;
        const std::string &P = T[J].Text;
        if (P == "(" || P == "[" || P == "{")
          ++Depth;
        else if (P == ")" || P == "]" || P == "}")
          --Depth;
        else if (P == ":" && Depth == 0) {
          Colon = J;
          break;
        } else if (P == ";" && Depth == 0)
          break; // classic for
      }
      if (Colon == T.size())
        continue;
      for (size_t J = Colon + 1; J < Close; ++J)
        if (T[J].K == Token::Ident && Unordered.count(T[J].Text)) {
          Report(T[I].Line, T[J].Text, "range-for over");
          break;
        }
      continue;
    }

    // Explicit iterator walk: X.begin() / X->begin() / X.cbegin().
    if ((isPunct(T, I, ".") || isPunct(T, I, "->")) &&
        (isIdent(T, I + 1, "begin") || isIdent(T, I + 1, "cbegin")) &&
        isPunct(T, I + 2, "(") && I > 0 && T[I - 1].K == Token::Ident &&
        Unordered.count(T[I - 1].Text)) {
      // `Vec.assign(M.begin(), M.end())` style copies still enumerate in
      // hash order, so they are flagged too — constructing a container
      // from them is only safe when the destination re-sorts.
      Report(T[I].Line, T[I - 1].Text, "iterator walk of");
    }
  }
}

//===----------------------------------------------------------------------===//
// D3: pointer-keyed ordering
//===----------------------------------------------------------------------===//

/// True when the token range [Begin, End) (one template argument) denotes
/// a raw pointer type: last meaningful token is '*'.
bool isPointerTypeArg(const Toks &T, size_t Begin, size_t End) {
  for (size_t I = End; I > Begin; --I) {
    const Token &Tok = T[I - 1];
    if (Tok.K == Token::Ident && Tok.Text == "const")
      continue;
    return Tok.K == Token::Punct && Tok.Text == "*";
  }
  return false;
}

void checkD3(const LexedFile &File, std::vector<Finding> &Out) {
  const Toks &T = File.Toks;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].K != Token::Ident)
      continue;
    const std::string &Name = T[I].Text;

    // std::map<T*, ...> / std::set<T*> / std::less<T*>.
    bool IsOrderedContainer = Name == "map" || Name == "set" ||
                              Name == "multimap" || Name == "multiset" ||
                              Name == "less";
    if (IsOrderedContainer && isPunct(T, I + 1, "<") && I >= 2 &&
        isPunct(T, I - 1, "::") && isIdent(T, I - 2, "std")) {
      size_t Close = matchingTemplateClose(T, I + 1);
      if (Close != T.size()) {
        // First top-level template argument.
        size_t ArgEnd = Close;
        int Depth = 0;
        for (size_t J = I + 2; J < Close; ++J) {
          if (T[J].K != Token::Punct)
            continue;
          const std::string &P = T[J].Text;
          if (P == "<" || P == "(")
            ++Depth;
          else if (P == ">" || P == ")")
            --Depth;
          else if (P == "," && Depth == 0) {
            ArgEnd = J;
            break;
          }
        }
        if (isPointerTypeArg(T, I + 2, ArgEnd))
          Out.push_back(
              {"D3", File.Path, T[I].Line,
               "std::" + Name + " keyed by a raw pointer orders entries by "
                                "address, which varies run to run",
               "key by a stable id (RefId, stream index, name) or sort by "
               "a value-based field; annotate `// hds-lint: "
               "pointer-key-ok(<why>)` only if iteration order is never "
               "observed"});
      }
    }

    // std::sort / stable_sort with a comparator lambda comparing two
    // pointer parameters by value.
    bool IsSort = Name == "sort" || Name == "stable_sort" ||
                  Name == "partial_sort" || Name == "nth_element";
    if (IsSort && isPunct(T, I + 1, "(")) {
      size_t CallClose = matchingClose(T, I + 1);
      if (CallClose == T.size())
        continue;
      for (size_t J = I + 2; J < CallClose; ++J) {
        if (!isPunct(T, J, "["))
          continue;
        size_t CaptureClose = matchingClose(T, J);
        if (CaptureClose == T.size() || !isPunct(T, CaptureClose + 1, "("))
          break;
        size_t ParamClose = matchingClose(T, CaptureClose + 1);
        if (ParamClose == T.size())
          break;
        // Collect names of pointer-typed parameters.
        std::set<std::string> PtrParams;
        bool SawStar = false;
        for (size_t K = CaptureClose + 2; K < ParamClose; ++K) {
          if (isPunct(T, K, "*"))
            SawStar = true;
          else if (isPunct(T, K, ",")) {
            SawStar = false;
          } else if (T[K].K == Token::Ident && SawStar &&
                     (isPunct(T, K + 1, ",") || K + 1 == ParamClose))
            PtrParams.insert(T[K].Text);
        }
        if (PtrParams.size() < 2)
          break;
        size_t BodyOpen = ParamClose + 1;
        while (BodyOpen < CallClose && !isPunct(T, BodyOpen, "{"))
          ++BodyOpen;
        if (BodyOpen >= CallClose)
          break;
        size_t BodyClose = matchingClose(T, BodyOpen);
        for (size_t K = BodyOpen; K + 2 < BodyClose; ++K)
          if (T[K].K == Token::Ident && PtrParams.count(T[K].Text) &&
              (isPunct(T, K + 1, "<") || isPunct(T, K + 1, ">")) &&
              T[K + 2].K == Token::Ident && PtrParams.count(T[K + 2].Text))
            Out.push_back(
                {"D3", File.Path, T[K].Line,
                 "comparator orders by raw pointer value; the resulting "
                 "order varies with allocation layout",
                 "compare a stable field of the pointees instead, or "
                 "annotate `// hds-lint: pointer-key-ok(<why>)`"});
        break;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Catalogue and driver
//===----------------------------------------------------------------------===//

const std::vector<RuleInfo> &ruleCatalog() {
  static const std::vector<RuleInfo> Rules = {
      {"D1", "randomness-ok",
       "no ambient randomness, wall clock, or environment reads in src/"},
      {"D2", "ordered-ok",
       "no iteration over unordered containers without an ordered-ok note"},
      {"D3", "pointer-key-ok",
       "no ordering or sorting keyed on raw pointer values"},
      {"SUP", nullptr, "hds-lint suppression comments must be well-formed"},
      {"STALE", nullptr,
       "suppression notes whose rule no longer fires there"},
  };
  return Rules;
}

std::vector<Finding> runLint(const std::vector<LexedFile> &Files) {
  ProjectIndex Index = buildIndex(Files);
  std::vector<Finding> Result;

  for (const LexedFile &File : Files) {
    std::vector<Finding> SupFindings;
    Suppressions Sup = collectSuppressions(File, SupFindings);

    std::vector<Finding> Raw;
    checkD1(File, Raw);
    checkD2(File, Index, Raw);
    checkD3(File, Raw);

    for (Finding &F : Raw) {
      const char *Tag = nullptr;
      for (const RuleInfo &R : ruleCatalog())
        if (F.RuleId == R.Id)
          Tag = R.Tag;
      if (Tag && trySuppress(Sup, Tag, F.Line))
        continue;
      Result.push_back(std::move(F));
    }
    for (Finding &F : SupFindings)
      Result.push_back(std::move(F));
    for (const SuppressionNote &N : Sup.Notes)
      if (!N.Used)
        Result.push_back(
            {"STALE", File.Path, N.CommentLine,
             "suppression '" + N.Tag +
                 "' no longer suppresses anything on the line it covers",
             "remove the stale `hds-lint` note (or re-point it at the "
             "line that still needs it)"});
  }

  std::sort(Result.begin(), Result.end(),
            [](const Finding &A, const Finding &B) {
              if (A.Path != B.Path)
                return A.Path < B.Path;
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.RuleId < B.RuleId;
            });
  // Identical findings can arise when one line trips a rule twice.
  Result.erase(std::unique(Result.begin(), Result.end(),
                           [](const Finding &A, const Finding &B) {
                             return A.Path == B.Path && A.Line == B.Line &&
                                    A.RuleId == B.RuleId &&
                                    A.Message == B.Message;
                           }),
               Result.end());
  return Result;
}

std::string formatFinding(const Finding &F) {
  std::string S = F.Path + ":" + std::to_string(F.Line) + ": [" + F.RuleId +
                  "] " + F.Message;
  if (!F.FixHint.empty())
    S += "\n  fix: " + F.FixHint;
  return S;
}

} // namespace lint
} // namespace hds
