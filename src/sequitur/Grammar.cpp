//===- sequitur/Grammar.cpp - Incremental Sequitur grammar ----------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
// The structure of append/check/match/substitute/expand follows the
// canonical Sequitur implementation by Nevill-Manning & Witten, including
// the digram-index "triple" fix in join() for runs of identical symbols.
//
//===----------------------------------------------------------------------===//

#include "sequitur/Grammar.h"

#include "support/Rng.h"
#include "support/Table.h"

#include <algorithm>
#include <cassert>

using namespace hds;
using namespace hds::sequitur;

const Rule Grammar::EmptyStart;

//===----------------------------------------------------------------------===//
// Symbol and rule storage
//===----------------------------------------------------------------------===//

Grammar::SymIndex Grammar::newSymbol(uint64_t Code) {
  if (FreeList != NoSymbol) {
    const SymIndex S = FreeList;
    FreeList = Pool[S].Next;
    Pool[S] = Symbol{NoSymbol, NoSymbol, Code};
    return S;
  }
  assert(Pool.size() < NoSymbol && "symbol pool exhausted");
  Pool.push_back(Symbol{NoSymbol, NoSymbol, Code});
  return static_cast<SymIndex>(Pool.size() - 1);
}

Grammar::SymIndex Grammar::newNonTerminal(uint32_t R) {
  ++Rules[R].RefCount;
  return newSymbol(RuleTag | R);
}

Grammar::SymIndex Grammar::copySymbol(SymIndex S) {
  assert(!isGuard(S) && "cannot copy a guard");
  if (isNonTerminal(S))
    return newNonTerminal(ruleOf(S));
  return newSymbol(Pool[S].Code);
}

void Grammar::freeSymbol(SymIndex S) {
  Pool[S].Next = FreeList;
  FreeList = S;
}

uint32_t Grammar::newRule() {
  uint32_t R = FreeRules;
  if (R != NoRule) {
    FreeRules = Rules[R].RefCount;
  } else {
    R = static_cast<uint32_t>(Rules.size());
    Rules.push_back(Rule());
  }
  const SymIndex Guard = newSymbol(RuleTag | GuardTag | R);
  Pool[Guard].Next = Guard;
  Pool[Guard].Prev = Guard;
  Rules[R].Guard = Guard;
  Rules[R].RefCount = 0;
  Rules[R].Id = NextRuleId++;
  ++LiveRuleCount;
  return R;
}

void Grammar::destroyRule(uint32_t R) {
  assert(isLive(R) && "rule already destroyed");
  freeSymbol(Rules[R].Guard);
  Rules[R].Guard = NoSymbol;
  Rules[R].RefCount = FreeRules;
  FreeRules = R;
  --LiveRuleCount;
}

void Grammar::clear() {
  Pool.clear();
  FreeList = NoSymbol;
  Rules.clear();
  FreeRules = NoRule;
  NextRuleId = 0;
  std::fill(Digrams.begin(), Digrams.end(), NoSymbol);
  DigramCount = 0;
  InputLength = 0;
  LiveRuleCount = 0;
}

size_t Grammar::storeBytes() const {
  return Pool.capacity() * sizeof(Symbol) + ruleStoreBytes() +
         Digrams.capacity() * sizeof(SymIndex);
}

//===----------------------------------------------------------------------===//
// Digram index
//===----------------------------------------------------------------------===//

bool Grammar::sameContent(SymIndex A, SymIndex B) const {
  if (isGuard(A) || isGuard(B))
    return false;
  return Pool[A].Code == Pool[B].Code;
}

Grammar::DigramKey Grammar::keyOf(SymIndex S) const {
  assert(!isGuard(S) && !isGuard(next(S)) && "digram touches a guard");
  return DigramKey(Pool[S].Code, Pool[next(S)].Code);
}

size_t Grammar::homeSlot(const DigramKey &Key) const {
  return splitMix64(Key.first * 0x9E3779B97F4A7C15ULL + Key.second) &
         (Digrams.size() - 1);
}

size_t Grammar::findDigram(const DigramKey &Key) const {
  const size_t Mask = Digrams.size() - 1;
  size_t Slot = homeSlot(Key);
  while (Digrams[Slot] != NoSymbol && keyOf(Digrams[Slot]) != Key)
    Slot = (Slot + 1) & Mask;
  return Slot;
}

void Grammar::insertDigram(size_t Slot, SymIndex S) {
  if (2 * (DigramCount + 1) > Digrams.size()) {
    std::vector<SymIndex> Old(Digrams.size() * 2, NoSymbol);
    Old.swap(Digrams);
    for (const SymIndex Entry : Old)
      if (Entry != NoSymbol)
        Digrams[findDigram(keyOf(Entry))] = Entry;
    Slot = findDigram(keyOf(S));
  }
  Digrams[Slot] = S;
  ++DigramCount;
}

void Grammar::eraseDigram(size_t Slot) {
  // Backward-shift deletion: a later entry of the probe run moves into the
  // hole unless its home slot lies after the hole.
  const size_t Mask = Digrams.size() - 1;
  size_t Hole = Slot;
  for (size_t At = (Slot + 1) & Mask; Digrams[At] != NoSymbol;
       At = (At + 1) & Mask) {
    const size_t Home = homeSlot(keyOf(Digrams[At]));
    if (((At - Home) & Mask) >= ((At - Hole) & Mask)) {
      Digrams[Hole] = Digrams[At];
      Hole = At;
    }
  }
  Digrams[Hole] = NoSymbol;
  --DigramCount;
}

void Grammar::deleteDigram(SymIndex S) {
  if (isGuard(S) || next(S) == NoSymbol || isGuard(next(S)))
    return;
  const size_t Slot = findDigram(keyOf(S));
  if (Digrams[Slot] == S)
    eraseDigram(Slot);
}

void Grammar::indexDigram(SymIndex S) {
  if (isGuard(S) || next(S) == NoSymbol || isGuard(next(S)))
    return;
  const size_t Slot = findDigram(keyOf(S));
  if (Digrams[Slot] == NoSymbol)
    insertDigram(Slot, S);
  else
    Digrams[Slot] = S;
}

//===----------------------------------------------------------------------===//
// Linking primitives
//===----------------------------------------------------------------------===//

void Grammar::join(SymIndex Left, SymIndex Right) {
  if (next(Left) != NoSymbol) {
    deleteDigram(Left);

    // "Triple" fix: breaking a run like bbb can leave a digram that must be
    // re-pointed at its surviving occurrence; re-index around both ends.
    if (prev(Right) != NoSymbol && next(Right) != NoSymbol &&
        sameContent(Right, prev(Right)) && sameContent(Right, next(Right)))
      indexDigram(Right);
    if (prev(Left) != NoSymbol && next(Left) != NoSymbol &&
        sameContent(Left, next(Left)) && sameContent(Left, prev(Left)))
      indexDigram(prev(Left));
  }
  Pool[Left].Next = Right;
  Pool[Right].Prev = Left;
}

void Grammar::insertAfter(SymIndex Pos, SymIndex NewSym) {
  join(NewSym, next(Pos));
  join(Pos, NewSym);
}

void Grammar::removeSymbol(SymIndex S) {
  assert(!isGuard(S) && "removing a guard");
  join(prev(S), next(S));
  deleteDigram(S);
  if (isNonTerminal(S)) {
    assert(Rules[ruleOf(S)].RefCount > 0 && "rule reference count underflow");
    --Rules[ruleOf(S)].RefCount;
  }
  freeSymbol(S);
}

//===----------------------------------------------------------------------===//
// The Sequitur algorithm
//===----------------------------------------------------------------------===//

void Grammar::append(uint64_t Terminal) {
  assert(Terminal <= MaxTerminal && "terminal value collides with rule codes");
  if (Rules.empty()) {
    if (Digrams.empty())
      Digrams.assign(64, NoSymbol);
    newRule();
  }
  ++InputLength;
  const SymIndex Sym = newSymbol(Terminal);
  insertAfter(last(0), Sym);
  // Check the digram formed with the previous final symbol (a no-op when
  // this is the very first symbol: its predecessor is the guard).
  check(prev(Sym));
}

bool Grammar::check(SymIndex S) {
  if (isGuard(S) || isGuard(next(S)))
    return false;

  const size_t Slot = findDigram(keyOf(S));
  const SymIndex Found = Digrams[Slot];
  if (Found == NoSymbol) {
    insertDigram(Slot, S);
    return false;
  }

  // Overlapping occurrences (e.g. the middle of "aaa") are left alone; a
  // digram can only be replaced when both occurrences are disjoint.
  if (Found != S && next(Found) != S)
    match(S, Found);
  return true;
}

void Grammar::match(SymIndex S, SymIndex Match) {
  uint32_t R;
  if (isGuard(prev(Match)) && isGuard(next(next(Match)))) {
    // The matched occurrence is exactly the right-hand side of an existing
    // rule: reuse that rule.
    R = ruleOf(prev(Match));
    substitute(S, R);
  } else {
    // Create a new rule for the repeated digram and replace both
    // occurrences with it.
    R = newRule();
    insertAfter(last(R), copySymbol(S));
    insertAfter(last(R), copySymbol(next(S)));
    substitute(Match, R);
    substitute(S, R);
    indexDigram(first(R));
  }

  // Rule utility: substitution may have dropped an inner rule to a single
  // remaining use; inline it.
  const SymIndex First = first(R);
  if (isNonTerminal(First) && Rules[ruleOf(First)].RefCount == 1)
    expandUse(First);
}

void Grammar::substitute(SymIndex S, uint32_t R) {
  const SymIndex Q = prev(S);
  removeSymbol(S);
  removeSymbol(next(Q));
  insertAfter(Q, newNonTerminal(R));
  // Check the two digrams created around the new non-terminal.  When the
  // first check triggers a match the list is restructured, so only fall
  // through to the second when nothing happened.
  if (!check(Q))
    check(next(Q));
}

void Grammar::expandUse(SymIndex Use) {
  assert(isNonTerminal(Use) && "can only expand a non-terminal use");
  const uint32_t R = ruleOf(Use);
  assert(Rules[R].RefCount == 1 && "expanding a rule that is still shared");

  const SymIndex Left = prev(Use);
  const SymIndex Right = next(Use);
  const SymIndex First = first(R);
  const SymIndex Last = last(R);
  assert(!isGuard(First) && "expanding an empty rule");

  deleteDigram(Use); // the (Use, Right) digram
  join(Left, First); // also clears the (Left, Use) digram
  join(Last, Right);
  indexDigram(Last); // the newly created (Last, Right) digram

  destroyRule(R);
  freeSymbol(Use);
}

//===----------------------------------------------------------------------===//
// Read-only views
//===----------------------------------------------------------------------===//

size_t Grammar::rhsLength(uint32_t R) const {
  size_t Length = 0;
  for (SymIndex S = first(R); !isGuard(S); S = next(S))
    ++Length;
  return Length;
}

size_t Grammar::totalRhsSymbols() const {
  size_t Total = 0;
  for (uint32_t R = 0; R < Rules.size(); ++R)
    if (isLive(R))
      Total += rhsLength(R);
  return Total;
}

std::vector<const Rule *> Grammar::rules() const {
  if (Rules.empty())
    return {start()};
  std::vector<const Rule *> Result;
  Result.reserve(LiveRuleCount);
  for (const Rule &R : Rules)
    if (R.Guard != NoSymbol)
      Result.push_back(&R);
  std::sort(Result.begin(), Result.end(),
            [](const Rule *A, const Rule *B) { return A->Id < B->Id; });
  return Result;
}

std::vector<uint64_t> Grammar::expandRule(const Rule &R) const {
  std::vector<uint64_t> Result;
  if (R.Guard == NoSymbol)
    return Result;
  // Iterative DFS over the derivation: the stack holds the next symbol to
  // visit at every nesting level.
  std::vector<SymIndex> Stack;
  Stack.push_back(next(R.Guard));
  while (!Stack.empty()) {
    const SymIndex S = Stack.back();
    if (isGuard(S)) {
      Stack.pop_back();
      continue;
    }
    Stack.back() = next(S);
    if (isNonTerminal(S))
      Stack.push_back(first(ruleOf(S)));
    else
      Result.push_back(Pool[S].Code);
  }
  return Result;
}

GrammarSnapshot Grammar::snapshot() const {
  GrammarSnapshot Snap;
  if (Rules.empty()) {
    Snap.Rules.resize(1);
    return Snap;
  }
  // Dense renumbering: live rules in creation order; the start rule is
  // created first and never deleted, so it maps to index 0.
  const std::vector<const Rule *> Live = rules();
  std::vector<uint32_t> SlotToIndex(Rules.size());
  for (uint32_t Index = 0; Index < Live.size(); ++Index)
    SlotToIndex[slotOf(*Live[Index])] = Index;

  Snap.Rules.resize(Live.size());
  for (uint32_t Index = 0; Index < Live.size(); ++Index) {
    std::vector<GrammarSnapshot::Item> &Rhs = Snap.Rules[Index].Rhs;
    for (SymIndex S = first(slotOf(*Live[Index])); !isGuard(S); S = next(S)) {
      if (isNonTerminal(S))
        Rhs.push_back({true, SlotToIndex[ruleOf(S)], 0});
      else
        Rhs.push_back({false, 0, Pool[S].Code});
    }
  }
  return Snap;
}

std::vector<uint64_t> GrammarSnapshot::expand(uint32_t RuleIndex) const {
  std::vector<uint64_t> Result;
  struct Frame {
    uint32_t Rule;
    size_t Pos;
  };
  std::vector<Frame> Stack;
  Stack.push_back({RuleIndex, 0});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const SnapshotRule &R = Rules.at(Top.Rule);
    if (Top.Pos >= R.Rhs.size()) {
      Stack.pop_back();
      continue;
    }
    const Item &It = R.Rhs[Top.Pos++];
    if (It.IsRule)
      Stack.push_back({It.RuleIndex, 0});
    else
      Result.push_back(It.Terminal);
  }
  return Result;
}

std::string Grammar::dump(std::string (*TerminalName)(uint64_t)) const {
  std::string Out;
  for (const Rule *R : rules()) {
    Out += formatString("R%u ->", R->id());
    if (R->Guard != NoSymbol)
      for (SymIndex S = first(slotOf(*R)); !isGuard(S); S = next(S)) {
        Out += ' ';
        if (isNonTerminal(S))
          Out += formatString("R%u", Rules[ruleOf(S)].id());
        else if (TerminalName)
          Out += TerminalName(Pool[S].Code);
        else
          Out += formatString("%llu", (unsigned long long)Pool[S].Code);
      }
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Invariant checks
//===----------------------------------------------------------------------===//

// Cold: only the tests and the fuzz oracles run the invariant checks.  The
// attribute also keeps perfbench's host probe at the offset its reference
// figure was measured at (docs/benchmarks.md, "Host-probe alignment").
[[gnu::cold]] bool Grammar::digramUniquenessHolds() const {
  std::vector<std::pair<DigramKey, SymIndex>> Occurrences;
  for (uint32_t R = 0; R < Rules.size(); ++R) {
    if (!isLive(R))
      continue;
    for (SymIndex S = first(R); !isGuard(S) && !isGuard(next(S));
         S = next(S))
      Occurrences.emplace_back(keyOf(S), S);
  }
  std::sort(Occurrences.begin(), Occurrences.end());
  for (size_t Begin = 0, End; Begin < Occurrences.size(); Begin = End) {
    End = Begin + 1;
    while (End < Occurrences.size() &&
           Occurrences[End].first == Occurrences[Begin].first)
      ++End;
    for (size_t I = Begin; I < End; ++I)
      for (size_t J = I + 1; J < End; ++J) {
        const SymIndex A = Occurrences[I].second;
        const SymIndex B = Occurrences[J].second;
        if (next(A) != B && next(B) != A)
          return false;
      }
  }
  return true;
}

bool Grammar::ruleUtilityHolds() const {
  std::vector<uint32_t> Uses(Rules.size(), 0);
  for (uint32_t R = 0; R < Rules.size(); ++R) {
    if (!isLive(R))
      continue;
    for (SymIndex S = first(R); !isGuard(S); S = next(S))
      if (isNonTerminal(S))
        ++Uses[ruleOf(S)];
  }
  for (uint32_t R = 0; R < Rules.size(); ++R) {
    if (!isLive(R))
      continue;
    if (Uses[R] != Rules[R].RefCount)
      return false;
    if (R != 0 && Uses[R] < 2)
      return false;
  }
  return true;
}

// Cold for the same two reasons as digramUniquenessHolds.
[[gnu::cold]] bool Grammar::rulesAreNonTrivialHolds() const {
  for (uint32_t R = 1; R < Rules.size(); ++R)
    if (isLive(R) && rhsLength(R) < 2)
      return false;
  return true;
}

bool Grammar::digramIndexHolds() const {
  std::vector<bool> Live(Pool.size(), false);
  for (uint32_t R = 0; R < Rules.size(); ++R)
    if (isLive(R))
      for (SymIndex S = first(R); !isGuard(S); S = next(S))
        Live[S] = true;
  size_t Entries = 0;
  for (size_t Slot = 0; Slot < Digrams.size(); ++Slot) {
    const SymIndex S = Digrams[Slot];
    if (S == NoSymbol)
      continue;
    ++Entries;
    if (S >= Pool.size() || !Live[S] || isGuard(next(S)) ||
        findDigram(keyOf(S)) != Slot)
      return false;
  }
  return Entries == DigramCount;
}

bool Grammar::checkInvariants(std::string *Error) const {
  auto Fail = [&](const char *Why) {
    if (Error)
      *Error = Why;
    return false;
  };
  if (!digramUniquenessHolds())
    return Fail("digram uniqueness violated: some adjacent symbol pair "
                "occurs twice");
  if (!ruleUtilityHolds())
    return Fail("rule utility violated: a non-start rule is used fewer "
                "than twice or a refcount is stale");
  if (!rulesAreNonTrivialHolds())
    return Fail("non-trivial rules violated: a rule body has fewer than "
                "two symbols");
  if (!digramIndexHolds())
    return Fail("digram index corrupt: an entry names a dead symbol or "
                "sits off its probe path");
  if (expandRule(*start()).size() != InputLength)
    return Fail("start rule expansion length differs from the number of "
                "appended terminals");
  return true;
}
