//===- engine/ResultsDiff.cpp - Read and compare results ------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ResultsDiff.h"

#include "engine/MetricRegistry.h"
#include "support/ParseInt.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON reader for the hds-matrix-results-v1 subset
//===----------------------------------------------------------------------===//
//
// The one JSON reader in the tree, behind --diff.  It rejects what the
// writer never emits: duplicate member names, and integer tokens that
// are not unsigned 64-bit decimals.  Objects keep insertion order (a
// vector of pairs, never a hash map) so flattened metric paths
// enumerate in the stable order the writer emitted, and repeated diffs
// report findings in the same sequence.

struct JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind Type = Kind::Null;
  bool BoolValue = false;
  double NumberValue = 0.0;
  std::string StringValue; ///< also the raw token for numbers
  std::vector<JsonValue> Elements;
  JsonMembers Members;

  const JsonValue *find(const std::string &Key) const {
    for (const auto &[Name, Value] : Members)
      if (Name == Key)
        return &Value;
    return nullptr;
  }
};

class JsonParser {
public:
  JsonParser(const std::string &TextIn, std::string &ErrorIn)
      : Text(TextIn), Error(ErrorIn) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing bytes after document");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Message) {
    Error = "JSON parse error at byte " + std::to_string(Pos) + ": " + Message;
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size()) {
      const char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char Expected) {
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != Expected)
      return fail(std::string("expected '") + Expected + "'");
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    const char C = Text[Pos];
    if (C == '{')
      return parseObject(Out, Depth);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '"') {
      Out.Type = JsonValue::Kind::String;
      return parseString(Out.StringValue);
    }
    if (C == 't' || C == 'f')
      return parseKeyword(Out);
    if (C == 'n') {
      Out.Type = JsonValue::Kind::Null;
      return parseLiteral("null");
    }
    return parseNumber(Out);
  }

  bool parseLiteral(const char *Word) {
    for (const char *P = Word; *P; ++P, ++Pos)
      if (Pos >= Text.size() || Text[Pos] != *P)
        return fail(std::string("expected '") + Word + "'");
    return true;
  }

  bool parseKeyword(JsonValue &Out) {
    Out.Type = JsonValue::Kind::Bool;
    if (Text[Pos] == 't') {
      Out.BoolValue = true;
      return parseLiteral("true");
    }
    Out.BoolValue = false;
    return parseLiteral("false");
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      const char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      const char Escape = Text[Pos++];
      switch (Escape) {
      case '"':
      case '\\':
      case '/':
        Out += Escape;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'u': {
        // The writer only emits \u00XX control escapes; decode the low
        // byte and accept (skip) anything else without interpreting it.
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        const std::string Hex = Text.substr(Pos, 4);
        Pos += 4;
        Out += static_cast<char>(
            std::strtoul(Hex.c_str(), nullptr, 16) & 0xFFu);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    const std::size_t Start = Pos;
    while (Pos < Text.size()) {
      const char C = Text[Pos];
      if ((C >= '0' && C <= '9') || C == '-' || C == '+' || C == '.' ||
          C == 'e' || C == 'E') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos == Start)
      return fail("expected a value");
    Out.Type = JsonValue::Kind::Number;
    Out.StringValue = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    Out.NumberValue = std::strtod(Out.StringValue.c_str(), &End);
    if (End == Out.StringValue.c_str() || *End != '\0')
      return fail("malformed number '" + Out.StringValue + "'");
    // The writer emits every integer as an unsigned 64-bit decimal, so
    // an integer token that is not one is corrupt, not a reading.
    uint64_t Integer = 0;
    if (Out.StringValue.find_first_of(".eE") == std::string::npos &&
        !parseDecimal(Out.StringValue, Integer))
      return fail("integer '" + Out.StringValue +
                  "' is not an unsigned 64-bit value");
    return true;
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    Out.Type = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue Element;
      if (!parseValue(Element, Depth + 1))
        return false;
      Out.Elements.push_back(std::move(Element));
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    Out.Type = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected member name");
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      if (Out.find(Key))
        return fail("duplicate member '" + Key + "'");
      JsonValue Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Value));
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string &Text;
  std::string &Error;
  std::size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Cell extraction and comparison
//===----------------------------------------------------------------------===//

bool isIdentityField(const std::string &Key) {
  for (const char *Field : specIdentityFields())
    if (Key == Field)
      return true;
  return false;
}

std::string scalarToText(const JsonValue &Value) {
  switch (Value.Type) {
  case JsonValue::Kind::Bool:
    return Value.BoolValue ? "true" : "false";
  case JsonValue::Kind::Number:
  case JsonValue::Kind::String:
    return Value.StringValue;
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Object:
  case JsonValue::Kind::Array:
    break;
  }
  return "<composite>";
}

/// A result cell flattened to its identity key, status, and a
/// writer-ordered list of (path, scalar) metrics.
struct Cell {
  std::string Key;
  std::string Status;
  std::vector<std::pair<std::string, const JsonValue *>> Metrics;
};

void flattenMetrics(const JsonValue &Object, const std::string &Prefix,
                    Cell &Out) {
  for (const auto &[Name, Value] : Object.Members) {
    if (Prefix.empty() && (isIdentityField(Name) || Name == "status"))
      continue;
    const std::string Path = Prefix.empty() ? Name : Prefix + "." + Name;
    switch (Value.Type) {
    case JsonValue::Kind::Object:
      flattenMetrics(Value, Path, Out);
      break;
    case JsonValue::Kind::Array:
      for (std::size_t I = 0; I < Value.Elements.size(); ++I)
        if (Value.Elements[I].Type == JsonValue::Kind::Object)
          flattenMetrics(Value.Elements[I],
                         Path + "[" + std::to_string(I) + "]", Out);
      break;
    case JsonValue::Kind::Null:
    case JsonValue::Kind::Bool:
    case JsonValue::Kind::Number:
    case JsonValue::Kind::String:
      Out.Metrics.emplace_back(Path, &Value);
      break;
    }
  }
}

Cell makeCell(const JsonValue &Result) {
  Cell Out;
  std::string Key;
  for (const char *Field : specIdentityFields()) {
    if (std::string(Field) == "mode_name")
      continue; // redundant with "mode"
    const JsonValue *Value = Result.find(Field);
    if (!Key.empty())
      Key += ' ';
    Key += Field;
    Key += '=';
    if (Value) {
      Key += scalarToText(*Value);
    } else if (std::string(Field) == "stream_pf" ||
               std::string(Field) == "pair_pf" ||
               std::string(Field) == "duel_pf" ||
               std::string(Field) == "tuned") {
      // Appended after the stream/pair/duel/tuned flags existed:
      // snapshots written before then omit them, and omission means
      // disabled — so old and new documents still pair cell for cell.
      Key += "false";
    } else {
      Key += '?';
    }
  }
  Out.Key = Key;
  if (const JsonValue *Status = Result.find("status"))
    Out.Status = scalarToText(*Status);
  flattenMetrics(Result, "", Out);
  return Out;
}

bool extractCells(const std::string &Json, const std::string &Name,
                  JsonValue &Doc, std::vector<Cell> &Out,
                  std::string &Error) {
  std::string ParseError;
  if (!JsonParser(Json, ParseError).parse(Doc)) {
    Error = Name + ": " + ParseError;
    return false;
  }
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || Schema->Type != JsonValue::Kind::String ||
      Schema->StringValue != "hds-matrix-results-v1") {
    Error = Name + ": not an hds-matrix-results-v1 document";
    return false;
  }
  const JsonValue *Results = Doc.find("results");
  if (!Results || Results->Type != JsonValue::Kind::Array) {
    Error = Name + ": missing results array";
    return false;
  }
  const JsonValue *Count = Doc.find("spec_count");
  uint64_t SpecCount = 0;
  if (!Count || Count->Type != JsonValue::Kind::Number ||
      !parseDecimal(Count->StringValue, SpecCount)) {
    Error = Name + ": missing or non-integer spec_count";
    return false;
  }
  if (SpecCount != Results->Elements.size()) {
    Error = Name + ": spec_count " + Count->StringValue + " does not match " +
            std::to_string(Results->Elements.size()) + " results";
    return false;
  }
  for (const JsonValue &Result : Results->Elements) {
    if (Result.Type != JsonValue::Kind::Object) {
      Error = Name + ": results array holds a non-object cell";
      return false;
    }
    Out.push_back(makeCell(Result));
    // Duplicate identities (the same spec listed twice) pair up
    // positionally via an occurrence suffix.
    std::size_t Occurrence = 0;
    for (std::size_t I = 0; I + 1 < Out.size(); ++I)
      if (Out[I].Key == Out.back().Key ||
          Out[I].Key.rfind(Out.back().Key + " #", 0) == 0)
        ++Occurrence;
    if (Occurrence != 0)
      Out.back().Key += " #" + std::to_string(Occurrence);
  }
  return true;
}

const Cell *findCell(const std::vector<Cell> &Cells, const std::string &Key) {
  for (const Cell &C : Cells)
    if (C.Key == Key)
      return &C;
  return nullptr;
}

std::string formatPct(double Pct) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%+.2f%%", Pct);
  return Buf;
}

/// Relative change of B against A, in percent.  A zero baseline with a
/// nonzero reading counts as an unbounded change.
double relativeDeltaPct(double A, double B) {
  if (A == B)
    return 0.0;
  const double Base = std::fabs(A);
  if (Base == 0.0)
    return B > A ? 1.0e9 : -1.0e9;
  return 100.0 * (B - A) / Base;
}

/// Wall-clock paths live outside the determinism contract; the diff
/// handles them separately from real metrics (see DiffOptions).
bool isTimingPath(const std::string &Path) {
  return Path.rfind("timing.", 0) == 0;
}

void compareCells(const Cell &A, const Cell &B, const DiffOptions &Opts,
                  DiffReport &Report) {
  if (A.Status != B.Status) {
    Report.StatusChanges.push_back(
        {A.Key, "status " + A.Status + " -> " + B.Status});
    return; // metric sets differ by construction once status flips
  }

  for (const auto &[Path, ValueA] : A.Metrics) {
    const JsonValue *ValueB = nullptr;
    for (const auto &[PathB, Candidate] : B.Metrics)
      if (PathB == Path) {
        ValueB = Candidate;
        break;
      }
    if (isTimingPath(Path)) {
      // Only the rate is gated, only when the caller asked, and only
      // when both sides measured it.
      if (Opts.WallThresholdPct < 0.0 || Path != "timing.accesses_per_sec" ||
          !ValueB || ValueA->Type != JsonValue::Kind::Number ||
          ValueB->Type != JsonValue::Kind::Number)
        continue;
      const double Pct =
          relativeDeltaPct(ValueA->NumberValue, ValueB->NumberValue);
      if (std::fabs(Pct) <= Opts.WallThresholdPct)
        continue;
      const DiffLine Line{A.Key, Path + " " + ValueA->StringValue + " -> " +
                                     ValueB->StringValue + " (" +
                                     formatPct(Pct) + ")"};
      (Pct < 0.0 ? Report.Regressions : Report.Improvements).push_back(Line);
      continue;
    }
    if (!ValueB) {
      Report.MetricChanges.push_back({A.Key, Path + " missing in second file"});
      continue;
    }
    if (ValueA->Type == JsonValue::Kind::Number &&
        ValueB->Type == JsonValue::Kind::Number) {
      const double Pct = relativeDeltaPct(ValueA->NumberValue,
                                          ValueB->NumberValue);
      if (std::fabs(Pct) <= Opts.ThresholdPct)
        continue;
      const DiffLine Line{A.Key, Path + " " + ValueA->StringValue + " -> " +
                                     ValueB->StringValue + " (" +
                                     formatPct(Pct) + ")"};
      if (Path == "cycles")
        (Pct > 0.0 ? Report.Regressions : Report.Improvements).push_back(Line);
      else
        Report.MetricChanges.push_back(Line);
      continue;
    }
    const std::string TextA = scalarToText(*ValueA);
    const std::string TextB = scalarToText(*ValueB);
    if (TextA != TextB)
      Report.MetricChanges.push_back(
          {A.Key, Path + " " + TextA + " -> " + TextB});
  }

  for (const auto &[Path, ValueB] : B.Metrics) {
    (void)ValueB;
    if (isTimingPath(Path))
      continue;
    bool InA = false;
    for (const auto &[PathA, ValueA] : A.Metrics) {
      (void)ValueA;
      if (PathA == Path) {
        InA = true;
        break;
      }
    }
    if (!InA)
      Report.MetricChanges.push_back({A.Key, Path + " missing in first file"});
  }
}

void appendSection(std::string &Out, const char *Title,
                   const std::vector<DiffLine> &Lines) {
  if (Lines.empty())
    return;
  Out += Title;
  Out += ":\n";
  for (const DiffLine &Line : Lines) {
    Out += "  [";
    Out += Line.Cell;
    Out += "] ";
    Out += Line.Detail;
    Out += '\n';
  }
}

} // namespace

std::string DiffReport::render(const std::string &NameA,
                               const std::string &NameB) const {
  std::string Out;
  Out += "diff " + NameA + " -> " + NameB + ": " +
         std::to_string(CellsCompared) + " cell(s) compared\n";
  appendSection(Out, "regressions", Regressions);
  appendSection(Out, "improvements", Improvements);
  appendSection(Out, "metric changes", MetricChanges);
  appendSection(Out, "status changes", StatusChanges);
  if (!OnlyInA.empty()) {
    Out += "only in " + NameA + ":\n";
    for (const std::string &Key : OnlyInA)
      Out += "  [" + Key + "]\n";
  }
  if (!OnlyInB.empty()) {
    Out += "only in " + NameB + ":\n";
    for (const std::string &Key : OnlyInB)
      Out += "  [" + Key + "]\n";
  }
  Out += regressed() ? "verdict: DIFFERENT\n" : "verdict: OK\n";
  return Out;
}

bool hds::engine::diffResults(const std::string &JsonA,
                              const std::string &JsonB,
                              const DiffOptions &Opts, DiffReport &Report,
                              std::string &Error) {
  // The parsed documents own every JsonValue the cells point into.
  JsonValue DocA, DocB;
  std::vector<Cell> CellsA, CellsB;
  if (!extractCells(JsonA, "first file", DocA, CellsA, Error) ||
      !extractCells(JsonB, "second file", DocB, CellsB, Error))
    return false;

  for (const Cell &A : CellsA) {
    const Cell *B = findCell(CellsB, A.Key);
    if (!B) {
      Report.OnlyInA.push_back(A.Key);
      continue;
    }
    ++Report.CellsCompared;
    compareCells(A, *B, Opts, Report);
  }
  for (const Cell &B : CellsB)
    if (!findCell(CellsA, B.Key))
      Report.OnlyInB.push_back(B.Key);
  return true;
}
