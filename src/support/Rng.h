//===- support/Rng.h - Deterministic pseudo-random numbers -----*- C++ -*-===//
//
// Part of the hds project: a reproduction of "Dynamic Hot Data Stream
// Prefetching for General-Purpose Programs" (Chilimbi & Hirzel, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic pseudo-random number generator.
///
/// The paper stresses that bursty tracing and the optimizer are
/// deterministic, which makes executions of deterministic benchmarks
/// repeatable (Section 2.2).  Everything in this project that needs
/// randomness (workload inputs, property tests, synthetic traces) therefore
/// uses this explicitly seeded generator rather than global random state.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_SUPPORT_RNG_H
#define HDS_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace hds {

/// The SplitMix64 step: seeds the generator below, and mixes keys for the
/// open-addressed tables (every input bit reaches the low bits).
inline uint64_t splitMix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// xorshift128+ generator: fast, deterministic, and good enough for
/// workload shuffling and property-test input generation.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ULL) { reseed(Seed); }

  /// Resets the generator to the deterministic stream for \p Seed.
  void reseed(uint64_t Seed) {
    // SplitMix64 to spread a possibly low-entropy seed over both words.
    State0 = splitMix64(Seed);
    State1 = splitMix64(State0 ^ 0xBF58476D1CE4E5B9ULL);
    if (State0 == 0 && State1 == 0)
      State1 = 1;
  }

  /// Returns the next 64 uniformly distributed bits.
  uint64_t next() {
    uint64_t S1 = State0;
    const uint64_t S0 = State1;
    const uint64_t Result = S0 + S1;
    State0 = S0;
    S1 ^= S1 << 23;
    State1 = S1 ^ S0 ^ (S1 >> 18) ^ (S0 >> 5);
    return Result;
  }

  /// Returns a uniformly distributed integer in [0, Bound).
  /// \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a positive bound");
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible
    // for the bounds used in this project and determinism is what matters.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns a uniformly distributed integer in the inclusive range
  /// [\p Lo, \p Hi].
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) { return nextDouble() < P; }

private:
  uint64_t State0 = 0;
  uint64_t State1 = 0;
};

} // namespace hds

#endif // HDS_SUPPORT_RNG_H
