//===- src/lint/Lexer.h - Token-level C++ lexer ----------------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small token-level lexer for C++ sources, sufficient for hds_lint's
/// rule engine.  It deliberately does not parse: rules operate on the token
/// stream plus the preprocessor directive and comment side channels.  No
/// libclang dependency — the tool must build anywhere the project builds.
///
/// The lexer understands line/block comments, string and character
/// literals (including raw strings), digraph-free punctuation up to three
/// characters, preprocessor directives with backslash continuations, and
/// identifiers/numbers.  Comments never enter the token stream; they are
/// collected separately so the suppression scanner can inspect them.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_LINT_LEXER_H
#define HDS_LINT_LEXER_H

#include <string>
#include <string_view>
#include <vector>

namespace hds {
namespace lint {

/// One lexed token.  Keywords are ordinary Ident tokens; rules match on
/// the text.
struct Token {
  enum Kind {
    Ident,   ///< identifiers and keywords
    Number,  ///< numeric literals (pp-number, loosely)
    String,  ///< string literal, text excludes quotes
    CharLit, ///< character literal
    Punct,   ///< operator / punctuation, longest-match up to 3 chars
  };

  Kind K = Punct;
  std::string Text;
  unsigned Line = 0;
};

/// One preprocessor directive, continuations joined.  Text starts after
/// the '#' and is whitespace-trimmed, e.g. "include <vector>" or
/// "ifndef HDS_FOO_H".
struct Directive {
  unsigned Line = 0;
  std::string Text;
};

/// One comment (either style).  Line is the line the comment starts on.
/// Text excludes the comment markers.
struct Comment {
  unsigned Line = 0;
  unsigned EndLine = 0;
  std::string Text;
};

/// A fully lexed source file.  Path is the display path rules use for
/// scoping (it may be virtual, e.g. in tests).
struct LexedFile {
  std::string Path;
  std::vector<Token> Toks;
  std::vector<Directive> Directives;
  std::vector<Comment> Comments;
};

/// Lexes \p Source, attributing findings to \p DisplayPath.
LexedFile lexSource(std::string DisplayPath, std::string_view Source);

} // namespace lint
} // namespace hds

#endif // HDS_LINT_LEXER_H
