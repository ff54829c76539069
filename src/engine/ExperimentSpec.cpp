//===- engine/ExperimentSpec.cpp - One cell of the run matrix -------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/ExperimentSpec.h"

#include "prefetch/Prefetcher.h"
#include "support/ParseInt.h"
#include "workloads/Workload.h"

using namespace hds;
using namespace hds::engine;

core::OptimizerConfig ExperimentSpec::materializeConfig() const {
  core::OptimizerConfig Config;
  Config.Mode = Mode;
  Config.Dfsm.HeadLength = HeadLength;
  Config.Prefetchers.Enabled = Prefetchers;
  Config.PinFirstOptimization = Pin;
  Config.AdaptiveHibernation = Adaptive;
  return Config;
}

std::string ExperimentSpec::label() const {
  std::string Label = Workload + "/" + core::runModeToken(Mode);
  if (Seed != 0) {
    Label += '@';
    Label += std::to_string(Seed);
  }
  // Kind-order suffixes, same order the old per-kind booleans printed.
  for (unsigned I = 0; I < prefetch::PrefetcherSelection::NumKinds; ++I) {
    const auto K = static_cast<prefetch::Prefetcher::Kind>(I);
    if (Prefetchers.has(K)) {
      Label += '+';
      Label += prefetch::Prefetcher::kindToken(K);
    }
  }
  if (Pin)
    Label += "+pinned";
  if (Adaptive)
    Label += "+adaptive";
  return Label;
}

std::vector<ExperimentSpec> hds::engine::defaultMatrix(double Scale) {
  std::vector<ExperimentSpec> Specs;
  for (const std::string &Name : workloads::allWorkloadNames())
    for (core::RunMode Mode : core::allRunModes()) {
      ExperimentSpec Spec;
      Spec.Workload = Name;
      Spec.Mode = Mode;
      Spec.Scale = Scale;
      Specs.push_back(Spec);
    }
  // Hardware prefetcher zoo bars: each prefetcher alone against the
  // unmodified program, so its cycles compare directly with the Original
  // baseline and the software scheme's Dyn-pref bar.
  for (const std::string &Name : workloads::allWorkloadNames())
    for (unsigned Which = 0; Which < prefetch::PrefetcherSelection::NumKinds;
         ++Which) {
      ExperimentSpec Spec;
      Spec.Workload = Name;
      Spec.Mode = core::RunMode::Original;
      Spec.Scale = Scale;
      Spec.Prefetchers.set(static_cast<prefetch::Prefetcher::Kind>(Which),
                           true);
      Specs.push_back(Spec);
    }
  return Specs;
}

bool hds::engine::applyFilter(std::vector<ExperimentSpec> &Specs,
                              const std::string &Filter,
                              std::string *Error) {
  const size_t Eq = Filter.find('=');
  if (Eq == std::string::npos || Eq == 0 || Eq + 1 >= Filter.size()) {
    if (Error)
      *Error = "filter '" + Filter + "' is not of the form key=value";
    return false;
  }
  const std::string Key = Filter.substr(0, Eq);
  const std::string Value = Filter.substr(Eq + 1);

  auto Keep = [&](auto Pred) {
    std::vector<ExperimentSpec> Kept;
    for (const ExperimentSpec &Spec : Specs)
      if (Pred(Spec))
        Kept.push_back(Spec);
    Specs = std::move(Kept);
  };

  if (Key == "workload") {
    Keep([&](const ExperimentSpec &S) { return S.Workload == Value; });
    return true;
  }
  if (Key == "mode") {
    core::RunMode Mode;
    if (!core::parseRunModeToken(Value, Mode)) {
      if (Error)
        *Error = "unknown mode '" + Value + "' (expected " +
                 core::runModeTokenList() + ")";
      return false;
    }
    Keep([&](const ExperimentSpec &S) { return S.Mode == Mode; });
    return true;
  }
  if (Key == "seed") {
    uint64_t Seed = 0;
    if (!parseDecimal(Value, Seed)) {
      if (Error)
        *Error = "seed '" + Value + "' is not a decimal integer";
      return false;
    }
    Keep([&](const ExperimentSpec &S) { return S.Seed == Seed; });
    return true;
  }
  if (Key == "prefetcher") {
    if (Value == "none") {
      Keep([&](const ExperimentSpec &S) { return S.Prefetchers.none(); });
      return true;
    }
    prefetch::Prefetcher::Kind Kind;
    if (!prefetch::Prefetcher::parseKindToken(Value, Kind)) {
      if (Error)
        *Error = "unknown prefetcher '" + Value + "' (expected " +
                 prefetch::PrefetcherSelection::tokenList() + ")";
      return false;
    }
    // The named prefetcher, enabled alone.
    Keep([&](const ExperimentSpec &S) { return S.Prefetchers.only(Kind); });
    return true;
  }
  if (Error)
    *Error = "unknown filter key '" + Key +
             "' (expected workload, mode, seed, or prefetcher)";
  return false;
}

bool hds::engine::applyFilters(std::vector<ExperimentSpec> &Specs,
                               const std::vector<std::string> &Filters,
                               std::string *Error) {
  std::vector<ExperimentSpec> Narrowed = Specs;
  for (const std::string &Filter : Filters)
    if (!applyFilter(Narrowed, Filter, Error))
      return false;
  Specs = std::move(Narrowed);
  return true;
}

std::string hds::engine::filterHelp() {
  return "filters: workload=<name>  mode=<" + core::runModeTokenList() +
         ">  seed=<n>\n         prefetcher=<" +
         prefetch::PrefetcherSelection::tokenList() + ">\n";
}
