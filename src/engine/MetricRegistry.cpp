//===- engine/MetricRegistry.cpp - Spec-echo identity fields --------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//

#include "engine/MetricRegistry.h"

const std::vector<const char *> &hds::engine::specIdentityFields() {
  static const std::vector<const char *> Fields = {
      "workload", "mode",   "mode_name", "scale", "seed",
      "head_length", "stride", "markov", "pin",   "adaptive",
      "stream_pf", "pair_pf", "duel_pf", "tuned",
  };
  return Fields;
}
