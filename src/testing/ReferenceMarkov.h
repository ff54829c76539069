//===- testing/ReferenceMarkov.h - Pre-rewrite Markov table ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The map-of-vectors correlation table that prefetch::MarkovPrefetcher
/// replaced with a node pool and an open-addressed index.  Kept verbatim
/// as the differential-testing oracle: tests/prefetchers_test.cpp drives
/// both engines through identical miss streams and requires the same
/// issued addresses, training count and node count after every miss.  The
/// implementation is deliberately naive — its correctness is readable at
/// a glance, which is the whole point of an oracle.  Do not optimize
/// this file.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_TESTING_REFERENCEMARKOV_H
#define HDS_TESTING_REFERENCEMARKOV_H

#include "prefetch/MarkovPrefetcher.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace hds {
namespace testing {

/// The pre-rewrite prefetch::MarkovPrefetcher: same config, same hooks,
/// same issue order.
class ReferenceMarkov : public prefetch::Prefetcher {
public:
  ReferenceMarkov(const prefetch::MarkovPrefetcherConfig &Cfg,
                  uint32_t AssignedTag)
      : Prefetcher(Kind::Markov, AssignedTag), Config(Cfg) {}

  void onMiss(const prefetch::AccessEvent &Event,
              memsim::MemoryHierarchy &Hierarchy) override;

  size_t nodeCount() const { return Nodes.size(); }

  void reset() override;

private:
  struct Node {
    /// Most-recent-first successor blocks.
    std::vector<uint64_t> Successors;
  };

  prefetch::MarkovPrefetcherConfig Config;
  std::unordered_map<uint64_t, Node> Nodes;
  std::vector<uint64_t> InsertionOrder;
  size_t EvictCursor = 0;
  uint64_t LastMissBlock = ~uint64_t{0};
};

} // namespace testing
} // namespace hds

#endif // HDS_TESTING_REFERENCEMARKOV_H
