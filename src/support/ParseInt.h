//===- support/ParseInt.h - Strict decimal integer parsing -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser behind every user-facing integer: CLI options, the
/// seed= and shard= filters, and the counters read back from results
/// JSON.  Unlike strtoull it accepts digits only — no sign ("-1" would
/// wrap to 2^64-1), no space, no trailing bytes — and rejects overflow.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_SUPPORT_PARSEINT_H
#define HDS_SUPPORT_PARSEINT_H

#include <cstdint>
#include <limits>
#include <string_view>

namespace hds {

/// Parses \p Text as a non-empty run of decimal digits no larger than
/// \p Max.  Returns false, leaving \p Out untouched, on anything else.
inline bool parseDecimal(std::string_view Text, uint64_t &Out,
                         uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (const char C : Text) {
    const auto Digit = static_cast<uint64_t>(C - '0');
    if (C < '0' || C > '9' || Value > (Max - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

} // namespace hds

#endif // HDS_SUPPORT_PARSEINT_H
