//===- sequitur/Grammar.h - Incremental Sequitur grammar -------*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An incremental implementation of the Sequitur compression algorithm
/// (Nevill-Manning & Witten, "Linear-time, incremental hierarchy inference
/// for compression", DCC 1997 — reference [23] of the paper).
///
/// Sequitur builds a context-free grammar whose language is exactly the
/// input string, maintaining two invariants after every appended symbol:
///
///   * digram uniqueness — no pair of adjacent symbols appears more than
///     once in the grammar, and
///   * rule utility — every rule other than the start rule is used at
///     least twice.
///
/// The paper's online profiling framework appends each sampled data
/// reference to this grammar as it is traced (Section 2.4); the grammar is
/// then handed to the hot data stream analysis as a compressed, hierarchical
/// representation of the temporal profile (Section 2.3, Figure 4).
///
/// Terminal symbols are opaque uint64_t values below 2^63 (the profiler
/// interns (pc, addr) data references into dense ids).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_SEQUITUR_GRAMMAR_H
#define HDS_SEQUITUR_GRAMMAR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hds {
namespace sequitur {

/// A grammar rule: S -> <right-hand side>.  The grammar stores its rules
/// in a vector whose slots deleted rules hand back out; a Rule pointer is
/// valid until the next append().
class Rule {
public:
  /// Creation number within the current grammar: the start rule is 0 and
  /// each new rule gets the next number, whichever slot it reuses.
  uint32_t id() const { return Id; }

  /// Number of times this rule is referenced from other rules' right-hand
  /// sides.  Always >= 2 for live non-start rules (rule utility).
  uint32_t refCount() const { return RefCount; }

private:
  friend class Grammar;

  Rule() = default;

  uint32_t Guard = ~uint32_t{0}; ///< guard symbol; none once deleted
  uint32_t RefCount = 0;         ///< next free slot once deleted
  uint32_t Id = 0;
};

/// A decoupled, index-based copy of the grammar used by the hot data stream
/// analysis.  Rule 0 is the start rule; every other entry is reachable from
/// it.  Taking a snapshot at the end of the awake phase lets the analysis
/// run without touching live grammar internals.
struct GrammarSnapshot {
  struct Item {
    bool IsRule;
    uint32_t RuleIndex; // valid when IsRule
    uint64_t Terminal;  // valid when !IsRule
  };
  struct SnapshotRule {
    std::vector<Item> Rhs;
  };

  std::vector<SnapshotRule> Rules;

  /// Expands rule \p RuleIndex into its terminal string.
  std::vector<uint64_t> expand(uint32_t RuleIndex) const;
};

/// The incremental Sequitur grammar.
///
/// Symbols live in one pool vector addressed by 32-bit indices, with a
/// free list; each rule's right-hand side is a circular doubly-linked list
/// of pool indices hanging off a guard symbol.  Rules live in a vector of
/// slots with a free list of their own, so it holds the peak number of
/// live rules, not every rule ever created; a non-terminal names its
/// rule's slot, and the read-only views order rules by creation.  The
/// digram index is an open-addressed table of symbol indices: an entry's
/// key is the digram that starts at its symbol, read from the pool (the
/// index is kept exact, so that key never differs from the one the entry
/// was filed under).  Nothing is allocated before the first append();
/// clear() keeps every buffer's capacity for the next profiling cycle.
class Grammar {
public:
  /// Terminal values must stay below this bound; the top bit namespace is
  /// reserved for non-terminal digram codes.
  static constexpr uint64_t MaxTerminal = (uint64_t{1} << 63) - 1;

  /// Appends one terminal to the represented string.  Amortized O(1).
  void append(uint64_t Terminal);

  /// Empties the grammar, keeping the capacity of its buffers.
  void clear();

  /// The start rule (S in the paper's Figure 4).
  const Rule *start() const { return Rules.empty() ? &EmptyStart : &Rules[0]; }

  /// Number of terminals appended so far.
  size_t inputLength() const { return InputLength; }

  /// Number of live rules, including the start rule.
  size_t ruleCount() const { return Rules.empty() ? 1 : LiveRuleCount; }

  /// Total number of right-hand-side symbols over all live rules — the
  /// "size of the grammar" in which the analysis runs linearly (§2.3).
  size_t totalRhsSymbols() const;

  /// Bytes held by the symbol pool, the rule vector and the digram index.
  size_t storeBytes() const;

  /// Bytes held by the rule vector alone.  Its slots are reused, so it
  /// follows the peak number of live rules, not the number created.
  size_t ruleStoreBytes() const { return Rules.capacity() * sizeof(Rule); }

  /// Live rules in creation order; element 0 is the start rule.
  std::vector<const Rule *> rules() const;

  /// Expands \p R into the terminal string it derives.
  std::vector<uint64_t> expandRule(const Rule &R) const;

  /// Takes an index-based snapshot for the analyzer.
  GrammarSnapshot snapshot() const;

  /// Human-readable rendering, e.g. "R0 -> R1 a R2 R2\nR1 -> a b\n...".
  /// Terminals print via \p TerminalName when provided, else as numbers.
  std::string
  dump(std::string (*TerminalName)(uint64_t) = nullptr) const;

  /// \name Invariant checks (exercised by the property tests).
  /// @{

  /// True iff no digram (adjacent symbol pair) occurs twice across the
  /// whole grammar, overlapping occurrences excepted.
  bool digramUniquenessHolds() const;

  /// True iff every non-start rule is referenced at least twice and the
  /// stored reference counts match the actual use counts.
  bool ruleUtilityHolds() const;

  /// True iff every rule body has at least two symbols.
  bool rulesAreNonTrivialHolds() const;

  /// True iff every digram index entry names a live symbol that starts a
  /// digram and sits where probing for that digram finds it.
  bool digramIndexHolds() const;

  /// Checks every grammar invariant at once: digram uniqueness, rule
  /// utility, non-trivial rules, an exact digram index, and that the
  /// start rule expands to exactly inputLength() terminals.  On failure
  /// names the violated invariant in \p Error (when non-null).  This is
  /// the hook the differential-testing oracles and the trace fuzzer call
  /// after every batch of appends.
  bool checkInvariants(std::string *Error = nullptr) const;
  /// @}

private:
  /// Index of a symbol in the pool.
  using SymIndex = uint32_t;
  static constexpr SymIndex NoSymbol = ~SymIndex{0};
  static constexpr uint32_t NoRule = ~uint32_t{0};

  /// A symbol's code is its terminal value, or RuleTag | rule slot for a
  /// non-terminal, or RuleTag | GuardTag | rule slot for a rule's guard.
  /// The digram content of a non-guard symbol is its code.
  static constexpr uint64_t RuleTag = uint64_t{1} << 63;
  static constexpr uint64_t GuardTag = uint64_t{1} << 62;

  struct Symbol {
    SymIndex Next;
    SymIndex Prev;
    uint64_t Code;
  };

  using DigramKey = std::pair<uint64_t, uint64_t>;

  /// What start() returns before the first append: a rule with no body.
  static const Rule EmptyStart;

  bool isGuard(SymIndex S) const {
    return (Pool[S].Code & (RuleTag | GuardTag)) == (RuleTag | GuardTag);
  }
  bool isNonTerminal(SymIndex S) const {
    return (Pool[S].Code & (RuleTag | GuardTag)) == RuleTag;
  }
  /// The referenced rule's slot (non-terminals) or owning rule's slot
  /// (guards).
  uint32_t ruleOf(SymIndex S) const {
    return static_cast<uint32_t>(Pool[S].Code);
  }
  bool isLive(uint32_t R) const { return Rules[R].Guard != NoSymbol; }
  uint32_t slotOf(const Rule &R) const {
    return static_cast<uint32_t>(&R - Rules.data());
  }
  SymIndex next(SymIndex S) const { return Pool[S].Next; }
  SymIndex prev(SymIndex S) const { return Pool[S].Prev; }
  SymIndex first(uint32_t R) const { return next(Rules[R].Guard); }
  SymIndex last(uint32_t R) const { return prev(Rules[R].Guard); }
  size_t rhsLength(uint32_t R) const;

  /// True iff \p A and \p B have identical digram content.
  bool sameContent(SymIndex A, SymIndex B) const;
  /// Key of the digram starting at \p S (requires a non-guard next).
  DigramKey keyOf(SymIndex S) const;

  SymIndex newSymbol(uint64_t Code);
  SymIndex newNonTerminal(uint32_t R);
  SymIndex copySymbol(SymIndex S);
  void freeSymbol(SymIndex S);
  uint32_t newRule();
  void destroyRule(uint32_t R);

  /// Links \p Left and \p Right, maintaining digram index bookkeeping
  /// (including the classic "triple" fix for runs like aaa).
  void join(SymIndex Left, SymIndex Right);
  /// Inserts \p NewSym immediately after \p Pos.
  void insertAfter(SymIndex Pos, SymIndex NewSym);
  /// Unlinks and frees \p S, removing its digrams and dropping a rule
  /// reference when it is a non-terminal.
  void removeSymbol(SymIndex S);

  /// The slot where probing for \p Key starts.
  size_t homeSlot(const DigramKey &Key) const;
  /// The slot holding the entry for \p Key, or the empty slot where it
  /// would go.
  size_t findDigram(const DigramKey &Key) const;
  /// Files \p S in the empty slot \p Slot, growing the index first when
  /// that would take its load above 1/2.
  void insertDigram(size_t Slot, SymIndex S);
  /// Empties \p Slot, shifting later entries of its probe run back.
  void eraseDigram(size_t Slot);
  /// Removes the digram starting at \p S from the index if the index entry
  /// points at \p S.
  void deleteDigram(SymIndex S);
  /// Points the index entry for \p S's digram at \p S.
  void indexDigram(SymIndex S);

  /// Checks the digram starting at \p S against the index, triggering a
  /// match when a second occurrence is found.  Returns true iff the digram
  /// was already present (matched or overlapping).
  bool check(SymIndex S);
  /// Handles a repeated digram: \p S is the new occurrence, \p Match the
  /// indexed one.
  void match(SymIndex S, SymIndex Match);
  /// Replaces the digram starting at \p S with a reference to \p R.
  void substitute(SymIndex S, uint32_t R);
  /// Inlines \p Use (a non-terminal whose rule is referenced exactly once).
  void expandUse(SymIndex Use);

  std::vector<Symbol> Pool;
  SymIndex FreeList = NoSymbol; ///< chained through Symbol::Next
  std::vector<Rule> Rules;      ///< by slot; Guard is none when deleted
  uint32_t FreeRules = NoRule;  ///< chained through Rule::RefCount
  uint32_t NextRuleId = 0;
  std::vector<SymIndex> Digrams; ///< power-of-two size; NoSymbol when empty
  size_t DigramCount = 0;
  size_t InputLength = 0;
  size_t LiveRuleCount = 0;
};

} // namespace sequitur
} // namespace hds

#endif // HDS_SEQUITUR_GRAMMAR_H
