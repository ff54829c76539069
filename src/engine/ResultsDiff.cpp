//===- engine/ResultsDiff.cpp - Read, compare and merge results -----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ResultsDiff.h"

#include "engine/MetricRegistry.h"
#include "prefetch/Prefetcher.h"
#include "support/ParseInt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <utility>

using namespace hds;
using namespace hds::engine;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON reader for the hds-matrix-results-v1 subset
//===----------------------------------------------------------------------===//
//
// The one JSON reader in the tree: --diff and --merge both read through
// it.  Objects keep insertion order (a vector of pairs, never a hash
// map) so flattened metric paths enumerate in the stable order the
// writer emitted, and repeated diffs report findings in the same
// sequence.

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
  default:
    return "<composite>";
  }
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
    default:
      Out.Metrics.emplace_back(Path, &Value);
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

//===----------------------------------------------------------------------===//
// Decoding documents back into RunResults (the --merge surface)
//===----------------------------------------------------------------------===//

using Kind = JsonValue::Kind;

/// Reads the members of one JSON object by name.  The first problem —
/// starting with a value that is not an object at all — is recorded in
/// the shared error string (prefixed with the object's path) and turns
/// every later read into a no-op; finish() then rejects any member
/// nobody asked for, so nothing in the input goes unread.
class ObjectReader {
public:
  ObjectReader(const JsonValue &ObjectIn, std::string WhereIn,
               std::string &ErrorIn)
      : Object(ObjectIn), Where(std::move(WhereIn)), Error(ErrorIn) {
    if (Object.Type != Kind::Object)
      fail("not an object");
  }

  bool ok() const { return Error.empty(); }
  const std::string &where() const { return Where; }
  std::string &error() { return Error; }

  bool fail(const std::string &Message) {
    if (ok())
      Error = Where + ": " + Message;
    return false;
  }

  /// The member \p Key, which must have type \p Type.  Null when absent
  /// (an error unless \p Optional), mistyped, or after an earlier error.
  const JsonValue *take(const char *Key, Kind Type, bool Optional = false) {
    if (!ok())
      return nullptr;
    const JsonValue *Value = Object.find(Key);
    if (!Value) {
      if (!Optional)
        fail(std::string("missing field '") + Key + "'");
      return nullptr;
    }
    Taken.push_back(Value);
    if (Value->Type != Type) {
      fail(std::string("field '") + Key + "' has the wrong type");
      return nullptr;
    }
    return Value;
  }

  bool u64(const char *Key, uint64_t &Out) {
    const JsonValue *Value = take(Key, Kind::Number);
    if (!Value)
      return false;
    if (!parseDecimal(Value->StringValue, Out))
      return fail(std::string("field '") + Key +
                  "' is not an unsigned 64-bit integer");
    return true;
  }

  bool str(const char *Key, std::string &Out) {
    const JsonValue *Value = take(Key, Kind::String);
    if (Value)
      Out = Value->StringValue;
    return Value != nullptr;
  }

  bool boolean(const char *Key, bool &Out) {
    const JsonValue *Value = take(Key, Kind::Bool);
    if (Value)
      Out = Value->BoolValue;
    return Value != nullptr;
  }

  /// Rejects members no take() consumed: unknown and duplicate keys.
  bool finish() {
    for (const auto &[Name, Value] : Object.Members)
      if (std::find(Taken.begin(), Taken.end(), &Value) == Taken.end())
        return fail("unexpected field '" + Name + "'");
    return ok();
  }

private:
  const JsonValue &Object;
  std::string Where;
  std::string &Error;
  std::vector<const JsonValue *> Taken;
};

/// The reader half of the metric contract: fills each field a
/// visit*Metrics enumeration names from the member with its id — the
/// same walk MetricFieldEmitter makes when writing.
struct MetricFieldReader {
  ObjectReader &In;
  template <typename FieldT>
  void operator()(const obs::MetricDef &Def, FieldT &Field) const {
    static_assert(sizeof(FieldT) == sizeof(uint64_t), "narrow metric field");
    uint64_t Value = 0;
    if (In.u64(Def.Id, Value))
      Field = static_cast<FieldT>(Value);
  }
};

/// Reads the object member \p Key into \p Stats through \p Visit.
/// Returns whether the member was present.
template <typename StatsT, typename VisitFn>
bool readBlock(ObjectReader &Parent, const char *Key, StatsT &Stats,
               VisitFn Visit, bool Optional = false) {
  const JsonValue *Object = Parent.take(Key, Kind::Object, Optional);
  if (!Object)
    return false;
  ObjectReader Block(*Object, Parent.where() + "." + Key, Parent.error());
  Visit(Stats, MetricFieldReader{Block});
  Block.finish();
  return true;
}

/// Reads the array-of-objects member \p Key into \p Rows, one element
/// per row through \p Visit.  \p DerivedKey names a string member the
/// writer derives from a metric; it is accepted and not read back.
template <typename RowT, typename VisitFn>
void readRows(ObjectReader &Parent, const char *Key, std::vector<RowT> &Rows,
              VisitFn Visit, const char *DerivedKey = nullptr) {
  const JsonValue *Array = Parent.take(Key, Kind::Array);
  for (std::size_t I = 0; Array && I < Array->Elements.size() && Parent.ok();
       ++I) {
    ObjectReader Row(Array->Elements[I],
                     Parent.where() + "." + Key + "[" + std::to_string(I) +
                         "]",
                     Parent.error());
    if (DerivedKey)
      Row.take(DerivedKey, Kind::String);
    Visit(Rows.emplace_back(), MetricFieldReader{Row});
    Row.finish();
  }
}

/// The spec echo emitResult writes ahead of the status.
void readSpec(ObjectReader &Cell, ExperimentSpec &Spec) {
  Cell.str("workload", Spec.Workload);
  std::string Mode, ModeName;
  if (Cell.str("mode", Mode) && !core::parseRunModeToken(Mode, Spec.Mode))
    Cell.fail("unknown mode '" + Mode + "'");
  if (Cell.str("mode_name", ModeName) &&
      ModeName != core::runModeName(Spec.Mode))
    Cell.fail("mode_name '" + ModeName + "' does not match the mode");
  if (const JsonValue *Scale = Cell.take("scale", Kind::Number)) {
    Spec.Scale = Scale->NumberValue;
    if (!(Spec.Scale > 0.0) || !std::isfinite(Spec.Scale))
      Cell.fail("scale is not a finite number > 0");
  }
  Cell.u64("seed", Spec.Seed);
  uint64_t HeadLength = 0;
  if (Cell.u64("head_length", HeadLength)) {
    Spec.HeadLength = static_cast<uint32_t>(HeadLength);
    if (Spec.HeadLength != HeadLength)
      Cell.fail("head_length is out of range");
  }
  // The per-kind identity fields, in Prefetcher::Kind order.
  static constexpr const char *KindFields[] = {"stride", "markov",
                                               "stream_pf", "pair_pf"};
  static_assert(std::size(KindFields) ==
                prefetch::PrefetcherSelection::NumKinds);
  for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I) {
    bool Enabled = false;
    Cell.boolean(KindFields[I], Enabled);
    Spec.Prefetchers.set(static_cast<prefetch::Prefetcher::Kind>(I), Enabled);
  }
  // Written as a constant false since the dueling selector was removed;
  // documents from before then may also omit it.
  if (const JsonValue *Duel = Cell.take("duel_pf", Kind::Bool, true);
      Duel && Duel->BoolValue)
    Cell.fail("duel_pf is true, but the dueling selector was removed");
  Cell.boolean("pin", Spec.Pin);
  Cell.boolean("adaptive", Spec.Adaptive);
  Cell.boolean("tuned", Spec.Tuned);
}

void readCell(ObjectReader &Cell, RunResult &Result, bool &HasTiming) {
  readSpec(Cell, Result.Spec);
  std::string Status;
  if (Cell.str("status", Status)) {
    if (Status == "ok")
      Result.State = RunResult::Status::Ok;
    else if (Status == "error")
      Result.State = RunResult::Status::Error;
    else if (Status != "cancelled")
      Cell.fail("unknown status '" + Status + "'");
  }
  if (const JsonValue *Error = Cell.take("error", Kind::String, true))
    Result.Error = Error->StringValue;
  if (!Result.ok()) {
    Cell.finish();
    return;
  }

  Cell.u64("iterations", Result.Iterations);
  Cell.u64("cycles", Result.Cycles);
  // Derived from the whole result set; resultsToJson recomputes it.
  Cell.take("overhead_pct", Kind::Number, true);
  core::visitRunStatsMetrics(Result.Stats, MetricFieldReader{Cell});
  readBlock(Cell, "memory", Result.Memory, [](auto &S, auto &&F) {
    memsim::visitHierarchyStatsMetrics(S, F);
  });
  const auto VisitCache = [](auto &S, auto &&F) {
    memsim::visitCacheStatsMetrics(S, F);
  };
  readBlock(Cell, "l1", Result.L1, VisitCache);
  readBlock(Cell, "l2", Result.L2, VisitCache);
  readRows(Cell, "phases", Result.Stats.Cycles, [](auto &S, auto &&F) {
    core::visitCycleStatsMetrics(S, F);
  });
  readBlock(Cell, "cycle_breakdown", Result.Breakdown, [](auto &S, auto &&F) {
    obs::visitCycleBreakdownMetrics(S, F);
  });
  readRows(Cell, "streams", Result.Streams, [](auto &S, auto &&F) {
    obs::visitStreamPrefetchStatsMetrics(S, F);
  });
  readRows(
      Cell, "prefetchers", Result.Prefetchers,
      [](auto &S, auto &&F) { obs::visitPrefetcherStatsMetrics(S, F); },
      "kind_name");
  if (readBlock(
          Cell, "timing", Result.Timing,
          [](auto &S, auto &&F) { visitResultTimingMetrics(S, F); },
          /*Optional=*/true))
    HasTiming = true;
  Cell.finish();
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

bool hds::engine::decodeResults(const std::string &Json, ResultsDocument &Out,
                                std::string &Error) {
  Out = ResultsDocument();
  Error.clear();
  JsonValue Doc;
  if (!JsonParser(Json, Error).parse(Doc))
    return false;
  ObjectReader Top(Doc, "document", Error);
  std::string Schema;
  if (Top.str("schema", Schema) && Schema != "hds-matrix-results-v1")
    Top.fail("not an hds-matrix-results-v1 document (schema '" + Schema +
             "')");
  if (const JsonValue *Shard = Top.take("shard", Kind::String, true))
    if (!parseShard(Shard->StringValue, Out.ShardIndex, Out.ShardCount))
      Top.fail("bad shard tag '" + Shard->StringValue + "'");
  uint64_t SpecCount = 0;
  Top.u64("spec_count", SpecCount);
  // Whole-run wall clock describes one process, not the merged sweep.
  Top.take("timing", Kind::Object, true);
  const JsonValue *Results = Top.take("results", Kind::Array);
  if (Results && SpecCount != Results->Elements.size())
    Top.fail("spec_count " + std::to_string(SpecCount) + " does not match " +
             std::to_string(Results->Elements.size()) + " results");
  for (std::size_t I = 0; Results && I < Results->Elements.size() && Top.ok();
       ++I) {
    ObjectReader Cell(Results->Elements[I],
                      "results[" + std::to_string(I) + "]", Error);
    RunResult Result;
    readCell(Cell, Result, Out.PerResultTiming);
    Out.Results.push_back(std::move(Result));
  }
  Top.finish();
  return Top.ok();
}

bool hds::engine::mergeShards(const std::vector<ResultsDocument> &Shards,
                              ResultsDocument &Merged, std::string &Error) {
  Merged = ResultsDocument();
  if (Shards.empty()) {
    Error = "no documents to merge";
    return false;
  }
  const uint64_t Count = Shards.front().ShardCount;
  auto Tag = [](uint64_t Index, uint64_t Of) {
    return std::to_string(Index) + "/" + std::to_string(Of);
  };
  std::size_t Total = 0;
  for (std::size_t I = 0; I < Shards.size(); ++I) {
    const ResultsDocument &Shard = Shards[I];
    if (Shard.ShardCount != Count) {
      Error = "shard " + Tag(Shard.ShardIndex, Shard.ShardCount) +
              " does not belong with shard " +
              Tag(Shards.front().ShardIndex, Count) + " (different n)";
      return false;
    }
    for (std::size_t J = 0; J < I; ++J)
      if (Shards[J].ShardIndex == Shard.ShardIndex) {
        Error = "shard " + Tag(Shard.ShardIndex, Count) + " given twice";
        return false;
      }
    Total += Shard.Results.size();
    Merged.PerResultTiming |= Shard.PerResultTiming;
  }
  // Indices are distinct and below Count, so with fewer documents than
  // shards one of 0..size() is missing.
  for (uint64_t Index = 0; Shards.size() < Count; ++Index)
    if (std::none_of(Shards.begin(), Shards.end(),
                     [Index](const ResultsDocument &Shard) {
                       return Shard.ShardIndex == Index;
                     })) {
      Error = "shard " + Tag(Index, Count) + " is missing";
      return false;
    }

  Merged.Results.resize(Total);
  for (const ResultsDocument &Shard : Shards) {
    // A shard=i/n filter keeps positions i, i+n, i+2n, ... of the list.
    const std::size_t Expected =
        Shard.ShardIndex < Total
            ? (Total - Shard.ShardIndex + Count - 1) / Count
            : 0;
    if (Shard.Results.size() != Expected) {
      Error = "shard " + Tag(Shard.ShardIndex, Count) + " holds " +
              std::to_string(Shard.Results.size()) + " results; a " +
              std::to_string(Total) + "-cell sweep gives it " +
              std::to_string(Expected);
      return false;
    }
    for (std::size_t K = 0; K < Shard.Results.size(); ++K)
      Merged.Results[Shard.ShardIndex + K * Count] = Shard.Results[K];
  }
  return true;
}
