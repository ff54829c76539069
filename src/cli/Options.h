//===- cli/Options.h - Shared command-line option machinery ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line vocabulary shared by hds_run, hds_matrix,
/// hds_analyze and hds_fuzz.  Each tool declares its options
/// against an OptionSet and calls parse(); the set owns matching,
/// operand collection, and the numeric conversions, so a flag like
/// --pair or --scale is defined (spelling, operand shape, validation,
/// error text) in exactly one place and every tool parses it
/// identically.
///
/// Numeric options are strict: an integer operand must be plain decimal
/// digits that fit the target (no sign, no trailing bytes, no overflow),
/// and the strict double options reject trailing garbage and
/// out-of-range values.  A bad operand prints "error: invalid --name
/// '...' (...)" and exits 2.  An unknown option or missing operand prints
/// an "error: ..." line that names it and then calls the tool's usage
/// callback, which prints and exits with the tool's historical status.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_CLI_OPTIONS_H
#define HDS_CLI_OPTIONS_H

#include "core/OptimizerConfig.h"
#include "prefetch/Selection.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace hds {
namespace cli {

/// A declarative option table plus the parser that walks argv against
/// it.  Registration methods return *this so tables read as a chain.
class OptionSet {
public:
  /// Called on an unknown option, a missing operand, or a bad run-mode
  /// token.  The tools' callbacks print usage and exit; if a callback
  /// returns (tests), parse() abandons the remaining argv.
  using UsageFn = std::function<void()>;

  explicit OptionSet(UsageFn UsageIn) : Usage(std::move(UsageIn)) {}

  /// --name (no operand): sets \p Target to true.
  OptionSet &flag(const char *Name, bool &Target);
  /// --name VALUE: stores the operand verbatim.
  OptionSet &str(const char *Name, std::string &Target);
  /// --name VALUE, repeatable: appends each operand.
  OptionSet &strList(const char *Name, std::vector<std::string> &Target);
  /// --name A B: two operands (hds_matrix --diff).
  OptionSet &strPair(const char *Name, std::string &A, std::string &B);

  /// \name Integer options: decimal digits only, range-checked against
  /// the target type; anything else exits 2 with an "invalid" message.
  /// @{
  OptionSet &u64(const char *Name, uint64_t &Target);
  /// \p Max caps the accepted value below the type's own limit
  /// (hds_matrix --jobs).
  OptionSet &uns(const char *Name, unsigned &Target,
                 unsigned Max = std::numeric_limits<unsigned>::max());
  /// @}

  /// As uns(), then "error: --name must be >= 1" and exit 2 on zero
  /// (hds_matrix --repeat, hds_run and hds_fuzz --headlen).
  OptionSet &unsAtLeastOne(const char *Name, unsigned &Target);

  /// Strict parse; "error: invalid --name '...' (need a finite number
  /// > 0)" and exit 2 unless the value is finite and positive.
  OptionSet &positiveDouble(const char *Name, double &Target);
  /// Strict parse; "error: invalid --name '...' (need a number >= 0)"
  /// and exit 2 on a negative or malformed value.
  OptionSet &nonNegativeDouble(const char *Name, double &Target);

  /// --name TOKEN via core::parseRunModeToken; unknown tokens fall
  /// through to the usage callback.
  OptionSet &runMode(const char *Name, core::RunMode &Target);

  /// Escape hatch for vocabulary helpers (addPrefetcherFlags): an
  /// option with \p Operands operands and an arbitrary apply callback.
  OptionSet &add(const char *Name, unsigned Operands,
                 std::function<void(const char *const *)> Apply);

  /// The argument that is not an option (hds_analyze's trace file); a
  /// later one replaces an earlier one.  Without this registration such
  /// an argument calls the usage callback.
  OptionSet &operand(std::string &Target);

  /// Walks argv; calls the usage callback on anything unregistered.
  void parse(int Argc, char **Argv) const;

private:
  struct Option {
    std::string Name;
    unsigned Operands = 0;
    /// Receives the option's operands (Operands entries).
    std::function<void(const char *const *)> Apply;
  };

  UsageFn Usage;
  std::vector<Option> Table;
  std::string *Operand = nullptr;
};

/// Registers the three hardware-prefetcher flags (--stride --markov
/// --pair), each enabling one Prefetcher::Kind in
/// \p Selection.  Flag spellings come from Prefetcher::kindToken, so
/// the CLI can never drift from the zoo roster.
void addPrefetcherFlags(OptionSet &Opts,
                        prefetch::PrefetcherSelection &Selection);

/// " [--stride] [--markov] [--pair]" — the usage
/// fragment for addPrefetcherFlags, generated from the roster.
std::string prefetcherFlagsUsage();

} // namespace cli
} // namespace hds

#endif // HDS_CLI_OPTIONS_H
