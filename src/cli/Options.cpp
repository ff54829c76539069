//===- cli/Options.cpp - Shared command-line option machinery -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "cli/Options.h"

#include "prefetch/Prefetcher.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace hds;
using namespace hds::cli;

OptionSet &OptionSet::add(const char *Name, unsigned Operands,
                          std::function<void(const char *const *)> Apply) {
  Table.push_back({Name, Operands, std::move(Apply)});
  return *this;
}

OptionSet &OptionSet::flag(const char *Name, bool &Target) {
  return add(Name, 0,
             [&Target](const char *const *) { Target = true; });
}

OptionSet &OptionSet::str(const char *Name, std::string &Target) {
  return add(Name, 1,
             [&Target](const char *const *Ops) { Target = Ops[0]; });
}

OptionSet &OptionSet::strList(const char *Name,
                              std::vector<std::string> &Target) {
  return add(Name, 1, [&Target](const char *const *Ops) {
    Target.push_back(Ops[0]);
  });
}

OptionSet &OptionSet::strPair(const char *Name, std::string &A,
                              std::string &B) {
  return add(Name, 2, [&A, &B](const char *const *Ops) {
    A = Ops[0];
    B = Ops[1];
  });
}

namespace {

/// Registers an integer option parsed strictly into \p Target: decimal
/// digits only, at most \p Max, and at least \p Min.
template <typename IntT>
OptionSet &addInteger(OptionSet &Set, const char *Name, IntT &Target,
                      uint64_t Min = 0,
                      uint64_t Max = std::numeric_limits<IntT>::max()) {
  std::string Flag = Name;
  return Set.add(Name, 1, [&Target, Flag, Min, Max](const char *const *Ops) {
    uint64_t Value = 0;
    if (!parseDecimal(Ops[0], Value, Max)) {
      std::fprintf(stderr, "error: invalid %s '%s' (need an integer in [%llu, "
                           "%llu])\n",
                   Flag.c_str(), Ops[0], static_cast<unsigned long long>(Min),
                   static_cast<unsigned long long>(Max));
      std::exit(2);
    }
    if (Value < Min) {
      std::fprintf(stderr, "error: %s must be >= %llu\n", Flag.c_str(),
                   static_cast<unsigned long long>(Min));
      std::exit(2);
    }
    Target = static_cast<IntT>(Value);
  });
}

} // namespace

OptionSet &OptionSet::u64(const char *Name, uint64_t &Target) {
  return addInteger(*this, Name, Target);
}

OptionSet &OptionSet::u32(const char *Name, uint32_t &Target) {
  return addInteger(*this, Name, Target);
}

OptionSet &OptionSet::uns(const char *Name, unsigned &Target,
                          unsigned Max) {
  return addInteger(*this, Name, Target, 0, Max);
}

OptionSet &OptionSet::unsAtLeastOne(const char *Name, unsigned &Target) {
  return addInteger(*this, Name, Target, 1);
}

OptionSet &OptionSet::looseDouble(const char *Name, double &Target) {
  return add(Name, 1, [&Target](const char *const *Ops) {
    Target = std::atof(Ops[0]);
  });
}

OptionSet &OptionSet::positiveDouble(const char *Name, double &Target) {
  std::string Flag = Name;
  return add(Name, 1, [&Target, Flag](const char *const *Ops) {
    char *End = nullptr;
    Target = std::strtod(Ops[0], &End);
    if (End == Ops[0] || *End != '\0' || !(Target > 0.0)) {
      std::fprintf(stderr,
                   "error: invalid %s '%s' (need a finite number > 0)\n",
                   Flag.c_str(), Ops[0]);
      std::exit(2);
    }
  });
}

OptionSet &OptionSet::nonNegativeDouble(const char *Name, double &Target) {
  std::string Flag = Name;
  return add(Name, 1, [&Target, Flag](const char *const *Ops) {
    char *End = nullptr;
    Target = std::strtod(Ops[0], &End);
    if (End == Ops[0] || *End != '\0' || Target < 0.0) {
      std::fprintf(stderr, "error: invalid %s '%s' (need a number >= 0)\n",
                   Flag.c_str(), Ops[0]);
      std::exit(2);
    }
  });
}

OptionSet &OptionSet::runMode(const char *Name, core::RunMode &Target) {
  return add(Name, 1, [this, &Target](const char *const *Ops) {
    if (!core::parseRunModeToken(Ops[0], Target))
      Usage();
  });
}

void OptionSet::parse(int Argc, char **Argv) const {
  for (int I = 1; I < Argc; ++I) {
    const Option *Match = nullptr;
    for (const Option &Candidate : Table)
      if (Candidate.Name == Argv[I]) {
        Match = &Candidate;
        break;
      }
    if (!Match || I + static_cast<int>(Match->Operands) >= Argc) {
      // The tools' usage callbacks exit; stop scanning anyway so a
      // callback that returns (tests) leaves the parse well defined.
      Usage();
      return;
    }
    // argv stays alive for the whole parse; hand the operands over as a
    // pointer into it.
    Match->Apply(const_cast<const char *const *>(Argv) + I + 1);
    I += static_cast<int>(Match->Operands);
  }
}

void hds::cli::addPrefetcherFlags(OptionSet &Opts,
                                  prefetch::PrefetcherSelection &Selection) {
  // One static spelling per kind: the registered table stores the name
  // by value, but keeping the strings alive for the process keeps usage
  // rendering cheap too.
  static const std::vector<std::string> Flags = [] {
    std::vector<std::string> Out;
    for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I)
      Out.push_back(std::string("--") +
                    prefetch::Prefetcher::kindToken(
                        static_cast<prefetch::Prefetcher::Kind>(I)));
    return Out;
  }();
  for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I) {
    const auto K = static_cast<prefetch::Prefetcher::Kind>(I);
    Opts.add(Flags[I].c_str(), 0, [&Selection, K](const char *const *) {
      Selection.set(K, true);
    });
  }
}

void hds::cli::addTunedFlag(OptionSet &Opts, bool &Tuned) {
  Opts.flag(TunedFlag, Tuned);
}

std::string hds::cli::prefetcherFlagsUsage() {
  std::string Out;
  for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I) {
    Out += " [--";
    Out += prefetch::Prefetcher::kindToken(
        static_cast<prefetch::Prefetcher::Kind>(I));
    Out += ']';
  }
  return Out;
}
