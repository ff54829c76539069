//===- src/lint/Lexer.cpp - Token-level C++ lexer -------------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"

#include <cctype>

namespace hds {
namespace lint {

namespace {

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

bool isIdentCont(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Cursor over the source with line tracking.
class Cursor {
public:
  explicit Cursor(std::string_view Source) : Src(Source) {}

  bool atEnd() const { return Pos >= Src.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  char advance() {
    char C = Src[Pos++];
    if (C == '\n')
      ++Line;
    return C;
  }
  unsigned line() const { return Line; }
  size_t pos() const { return Pos; }
  std::string_view slice(size_t Begin) const {
    return Src.substr(Begin, Pos - Begin);
  }

private:
  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
};

/// Longest-match punctuation.  Three-char operators that matter for rule
/// matching ("..." , "<=>", "->*", "<<=", ">>=") then two-char, then one.
bool isThreeCharPunct(std::string_view S) {
  return S == "..." || S == "<=>" || S == "->*" || S == "<<=" || S == ">>=";
}

bool isTwoCharPunct(std::string_view S) {
  static const char *Ops[] = {"::", "->", "++", "--", "+=", "-=", "*=", "/=",
                              "%=", "&=", "|=", "^=", "==", "!=", "<=", ">=",
                              "&&", "||", "<<", ">>"};
  for (const char *Op : Ops)
    if (S == Op)
      return true;
  return false;
}

} // namespace

LexedFile lexSource(std::string DisplayPath, std::string_view Source) {
  LexedFile File;
  File.Path = std::move(DisplayPath);
  Cursor C(Source);

  bool AtLineStart = true; // only whitespace seen so far on this line
  while (!C.atEnd()) {
    char Ch = C.peek();

    // Whitespace.
    if (Ch == ' ' || Ch == '\t' || Ch == '\r' || Ch == '\v' || Ch == '\f') {
      C.advance();
      continue;
    }
    if (Ch == '\n') {
      C.advance();
      AtLineStart = true;
      continue;
    }

    // Line comment.
    if (Ch == '/' && C.peek(1) == '/') {
      unsigned StartLine = C.line();
      C.advance();
      C.advance();
      size_t Begin = C.pos();
      while (!C.atEnd() && C.peek() != '\n')
        C.advance();
      File.Comments.push_back(
          {StartLine, C.line(), std::string(C.slice(Begin))});
      continue;
    }

    // Block comment.
    if (Ch == '/' && C.peek(1) == '*') {
      unsigned StartLine = C.line();
      C.advance();
      C.advance();
      size_t Begin = C.pos();
      size_t End = Begin;
      while (!C.atEnd()) {
        if (C.peek() == '*' && C.peek(1) == '/') {
          End = C.pos();
          C.advance();
          C.advance();
          break;
        }
        End = C.pos() + 1;
        C.advance();
      }
      File.Comments.push_back({StartLine, C.line(),
                               std::string(C.slice(Begin).substr(
                                   0, End > Begin ? End - Begin : 0))});
      AtLineStart = false;
      continue;
    }

    // Preprocessor directive: '#' first on the line; consume through any
    // backslash continuations.  Comments inside directives are rare enough
    // in this codebase to ignore.
    if (Ch == '#' && AtLineStart) {
      unsigned StartLine = C.line();
      C.advance(); // '#'
      std::string Text;
      while (!C.atEnd()) {
        char D = C.peek();
        if (D == '\\' && (C.peek(1) == '\n' ||
                          (C.peek(1) == '\r' && C.peek(2) == '\n'))) {
          C.advance(); // backslash
          while (!C.atEnd() && C.peek() != '\n')
            C.advance();
          if (!C.atEnd())
            C.advance(); // newline
          Text.push_back(' ');
          continue;
        }
        if (D == '\n')
          break;
        if (D == '/' && C.peek(1) == '/') { // trailing line comment
          while (!C.atEnd() && C.peek() != '\n')
            C.advance();
          break;
        }
        Text.push_back(C.advance());
      }
      // Trim.
      size_t B = Text.find_first_not_of(" \t");
      size_t E = Text.find_last_not_of(" \t");
      File.Directives.push_back(
          {StartLine, B == std::string::npos
                          ? std::string()
                          : Text.substr(B, E - B + 1)});
      continue;
    }
    AtLineStart = false;

    // Raw string literal R"delim( ... )delim".
    if (Ch == 'R' && C.peek(1) == '"') {
      unsigned StartLine = C.line();
      C.advance(); // R
      C.advance(); // "
      std::string Delim;
      while (!C.atEnd() && C.peek() != '(')
        Delim.push_back(C.advance());
      if (!C.atEnd())
        C.advance(); // '('
      std::string Body;
      std::string Closer = ")" + Delim + "\"";
      while (!C.atEnd()) {
        if (C.peek() == ')' ) {
          // Check for the closer without consuming on mismatch.
          bool Match = true;
          for (size_t I = 0; I < Closer.size(); ++I)
            if (C.peek(I) != Closer[I]) {
              Match = false;
              break;
            }
          if (Match) {
            for (size_t I = 0; I < Closer.size(); ++I)
              C.advance();
            break;
          }
        }
        Body.push_back(C.advance());
      }
      File.Toks.push_back({Token::String, std::move(Body), StartLine});
      continue;
    }

    // String literal.
    if (Ch == '"') {
      unsigned StartLine = C.line();
      C.advance();
      std::string Body;
      while (!C.atEnd() && C.peek() != '"') {
        if (C.peek() == '\\' && C.peek(1) != '\0') {
          Body.push_back(C.advance());
          Body.push_back(C.advance());
          continue;
        }
        if (C.peek() == '\n')
          break; // unterminated; be forgiving
        Body.push_back(C.advance());
      }
      if (!C.atEnd() && C.peek() == '"')
        C.advance();
      File.Toks.push_back({Token::String, std::move(Body), StartLine});
      continue;
    }

    // Character literal.  Distinguish from digit separators: we only enter
    // here when ' is not preceded by an identifier/number character, which
    // the number path below handles by consuming separators itself.
    if (Ch == '\'') {
      unsigned StartLine = C.line();
      C.advance();
      std::string Body;
      while (!C.atEnd() && C.peek() != '\'') {
        if (C.peek() == '\\' && C.peek(1) != '\0') {
          Body.push_back(C.advance());
          Body.push_back(C.advance());
          continue;
        }
        if (C.peek() == '\n')
          break;
        Body.push_back(C.advance());
      }
      if (!C.atEnd() && C.peek() == '\'')
        C.advance();
      File.Toks.push_back({Token::CharLit, std::move(Body), StartLine});
      continue;
    }

    // Number (pp-number, loosely: digits, idents, dots, exponent signs,
    // digit separators).
    if (std::isdigit(static_cast<unsigned char>(Ch)) ||
        (Ch == '.' && std::isdigit(static_cast<unsigned char>(C.peek(1))))) {
      unsigned StartLine = C.line();
      size_t Begin = C.pos();
      C.advance();
      while (!C.atEnd()) {
        char D = C.peek();
        if (isIdentCont(D) || D == '.' || D == '\'') {
          C.advance();
          continue;
        }
        if ((D == '+' || D == '-')) {
          char Prev = C.slice(Begin).back();
          if (Prev == 'e' || Prev == 'E' || Prev == 'p' || Prev == 'P') {
            C.advance();
            continue;
          }
        }
        break;
      }
      File.Toks.push_back({Token::Number, std::string(C.slice(Begin)),
                           StartLine});
      continue;
    }

    // Identifier / keyword.
    if (isIdentStart(Ch)) {
      unsigned StartLine = C.line();
      size_t Begin = C.pos();
      while (!C.atEnd() && isIdentCont(C.peek()))
        C.advance();
      File.Toks.push_back({Token::Ident, std::string(C.slice(Begin)),
                           StartLine});
      continue;
    }

    // Punctuation, longest match.
    {
      unsigned StartLine = C.line();
      char Buf[3] = {C.peek(0), C.peek(1), C.peek(2)};
      std::string_view Three(Buf, 3);
      std::string_view Two(Buf, 2);
      if (isThreeCharPunct(Three)) {
        std::string Text(Three);
        C.advance();
        C.advance();
        C.advance();
        File.Toks.push_back({Token::Punct, std::move(Text), StartLine});
      } else if (isTwoCharPunct(Two)) {
        std::string Text(Two);
        C.advance();
        C.advance();
        File.Toks.push_back({Token::Punct, std::move(Text), StartLine});
      } else {
        File.Toks.push_back({Token::Punct, std::string(1, C.advance()),
                             StartLine});
      }
      continue;
    }
  }

  return File;
}

} // namespace lint
} // namespace hds
