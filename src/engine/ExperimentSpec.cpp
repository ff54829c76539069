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
  Config.Tuning.Enabled = Tuned;
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
  if (Tuned)
    Label += "+tuned";
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
  // Closed-loop tuning bars (appended so the cells above keep their
  // positions): the software scheme's Dyn-pref with the controller on,
  // plus the two zoo engines with a degree knob (docs/tuning.md).
  for (const std::string &Name : workloads::allWorkloadNames()) {
    ExperimentSpec Dyn;
    Dyn.Workload = Name;
    Dyn.Mode = core::RunMode::DynamicPrefetch;
    Dyn.Scale = Scale;
    Dyn.Tuned = true;
    Specs.push_back(Dyn);
    for (const prefetch::Prefetcher::Kind K :
         {prefetch::Prefetcher::Stream, prefetch::Prefetcher::PairTable}) {
      ExperimentSpec Spec;
      Spec.Workload = Name;
      Spec.Mode = core::RunMode::Original;
      Spec.Scale = Scale;
      Spec.Prefetchers.set(K, true);
      Spec.Tuned = true;
      Specs.push_back(Spec);
    }
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
  if (Key == "shard") {
    uint64_t Index = 0, Count = 0;
    if (!parseShard(Value, Index, Count)) {
      if (Error)
        *Error = "shard '" + Value + "' is not of the form i/n with i < n";
      return false;
    }
    std::vector<ExperimentSpec> Kept;
    for (std::size_t Pos = Index; Pos < Specs.size(); Pos += Count)
      Kept.push_back(Specs[Pos]);
    Specs = std::move(Kept);
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
  if (Key == "tuning") {
    if (Value == "adaptive") {
      Keep([&](const ExperimentSpec &S) { return S.Tuned; });
      return true;
    }
    if (Value == "fixed") {
      Keep([&](const ExperimentSpec &S) { return !S.Tuned; });
      return true;
    }
    if (Error)
      *Error = "unknown tuning '" + Value + "' (expected adaptive|fixed)";
    return false;
  }
  if (Error)
    *Error = "unknown filter key '" + Key +
             "' (expected workload, mode, seed, prefetcher, tuning, or shard)";
  return false;
}

bool hds::engine::applyFilters(std::vector<ExperimentSpec> &Specs,
                               const std::vector<std::string> &Filters,
                               std::string &ShardTag, std::string *Error) {
  static constexpr std::string_view ShardKey = "shard=";
  std::vector<ExperimentSpec> Narrowed = Specs;
  const std::string *Shard = nullptr;
  for (const std::string &Filter : Filters) {
    if (Filter.starts_with(ShardKey)) {
      if (Shard) {
        if (Error)
          *Error = "more than one shard filter";
        return false;
      }
      Shard = &Filter;
      continue;
    }
    if (!applyFilter(Narrowed, Filter, Error))
      return false;
  }
  // Sharding partitions whatever the other filters left, so every shard
  // process of a sweep sees the same list whatever the flag order.
  ShardTag.clear();
  if (Shard) {
    if (!applyFilter(Narrowed, *Shard, Error))
      return false;
    uint64_t Index = 0, Count = 0;
    parseShard(Shard->substr(ShardKey.size()), Index, Count);
    ShardTag = std::to_string(Index) + "/" + std::to_string(Count);
  }
  Specs = std::move(Narrowed);
  return true;
}

bool hds::engine::parseShard(const std::string &Tag, uint64_t &Index,
                             uint64_t &Count) {
  const std::size_t Slash = Tag.find('/');
  return Slash != std::string::npos &&
         parseDecimal(std::string_view(Tag).substr(0, Slash), Index) &&
         parseDecimal(std::string_view(Tag).substr(Slash + 1), Count) &&
         Index < Count;
}

std::string hds::engine::filterHelp() {
  return "filters: workload=<name>  mode=<" + core::runModeTokenList() +
         ">  seed=<n>\n         prefetcher=<" +
         prefetch::PrefetcherSelection::tokenList() +
         ">  tuning=<adaptive|fixed>\n         shard=<i>/<n> (every n-th "
         "cell from the i-th, applied last)\n";
}
