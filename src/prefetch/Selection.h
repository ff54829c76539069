//===- prefetch/Selection.h - Which prefetchers a run enables -*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PrefetcherSelection: the value type naming which zoo prefetchers a
/// run enables.  It replaces the parallel Stride/Markov/Pair
/// booleans that used to be mirrored across ExperimentSpec,
/// OptimizerConfig, and StackConfig with one bitset over
/// Prefetcher::Kind and one canonical token round-trip ("none",
/// "stride", "markov+pair", "stride+markov", ...) shared by CLI
/// flags, matrix filters, labels, and JSON identity fields.
///
/// The token grammar is '+'-joined kind tokens in Kind enumeration
/// order; an empty selection prints (and parses) as "none".  Parsing
/// accepts tokens in any order but printing is canonical, so two equal
/// selections always print identically — the property spec identity
/// depends on.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_PREFETCH_SELECTION_H
#define HDS_PREFETCH_SELECTION_H

#include "prefetch/Prefetcher.h"

#include <cstdint>
#include <string>

namespace hds {
namespace prefetch {

/// Bitset over Prefetcher::Kind.  Plain value data: two equal
/// selections describe byte-identical prefetcher stacks.
class PrefetcherSelection {
public:
  /// Number of Prefetcher::Kind enumerators (append-only roster).
  static constexpr unsigned NumKinds = 3;

  constexpr PrefetcherSelection() = default;

  bool has(Prefetcher::Kind K) const {
    return (Bits & maskOf(K)) != 0;
  }
  void set(Prefetcher::Kind K, bool Enabled) {
    if (Enabled)
      Bits |= maskOf(K);
    else
      Bits &= static_cast<uint8_t>(~maskOf(K));
  }

  bool any() const { return Bits != 0; }
  bool none() const { return Bits == 0; }
  /// True when exactly \p K is enabled (the zoo-bar matrix cells).
  bool only(Prefetcher::Kind K) const { return Bits == maskOf(K); }
  unsigned count() const;

  /// Canonical token: '+'-joined kind tokens in Kind order, or "none".
  std::string token() const;
  /// Parses a canonical (or reordered) token into \p Out.  Returns false
  /// on an unknown kind token, an empty component, or a duplicate.
  static bool parseToken(const std::string &Token, PrefetcherSelection &Out);
  /// "none|stride|markov|pair" — the usage-text form of the
  /// per-kind vocabulary, generated from the roster.
  static std::string tokenList();

  bool operator==(const PrefetcherSelection &Other) const = default;

private:
  static constexpr uint8_t maskOf(Prefetcher::Kind K) {
    return static_cast<uint8_t>(1u << static_cast<unsigned>(K));
  }

  uint8_t Bits = 0;
};

} // namespace prefetch
} // namespace hds

#endif // HDS_PREFETCH_SELECTION_H
