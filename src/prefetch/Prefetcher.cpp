//===- prefetch/Prefetcher.cpp - Pluggable prefetcher interface -----------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "prefetch/Prefetcher.h"

using namespace hds;
using namespace hds::prefetch;

const char *Prefetcher::kindToken(Kind K) {
  switch (K) {
  case Stride:
    return "stride";
  case Markov:
    return "markov";
  case PairTable:
    return "pair";
  }
  return "unknown";
}

bool Prefetcher::parseKindToken(const std::string &Token, Kind &K) {
  static const Kind All[] = {Stride, Markov, PairTable};
  for (Kind Candidate : All)
    if (Token == kindToken(Candidate)) {
      K = Candidate;
      return true;
    }
  return false;
}
