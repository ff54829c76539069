//===- engine/ExperimentSpec.h - One cell of the run matrix ----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative description of one independent simulation — a
/// (workload, RunMode, configuration, seed, scale) cell of the experiment
/// matrix — plus the builders that enumerate the default matrix behind
/// the paper's Figures 11/12 and narrow it with key=value filters.
///
/// Specs are plain data: two equal specs describe byte-identical
/// simulations, which is what lets the engine run a matrix across
/// threads and still return results deterministically (see
/// docs/engine.md).
///
//===----------------------------------------------------------------------===//

#ifndef HDS_ENGINE_EXPERIMENTSPEC_H
#define HDS_ENGINE_EXPERIMENTSPEC_H

#include "core/OptimizerConfig.h"
#include "prefetch/Selection.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hds {
namespace engine {

/// One independent simulation.  Every field is value data (no callbacks,
/// no environment reads), so a spec can be serialized into the results
/// JSON and re-run bit-for-bit later.
struct ExperimentSpec {
  /// Workload name as accepted by workloads::createWorkload.
  std::string Workload = "vpr";
  core::RunMode Mode = core::RunMode::DynamicPrefetch;
  /// Multiplier on the workload's default iteration count (ignored when
  /// Iterations is set explicitly).
  double Scale = 1.0;
  /// Explicit iteration count; 0 means "workload default × Scale".
  uint64_t Iterations = 0;
  /// Layout seed: a nonzero seed shifts the simulated heap base by a
  /// seed-derived pad before workload setup, scattering allocations onto
  /// different cache blocks/sets.  Varying the seed explores layout
  /// sensitivity (the alignment effects DESIGN.md discusses); 0 is the
  /// canonical layout used by the paper figures.
  uint64_t Seed = 0;
  /// Prefix-match head length (Section 4.3; default 2).
  uint32_t HeadLength = 2;
  /// Orthogonal hardware prefetcher zoo (src/prefetch): any subset may
  /// ride along in any mode.  One selection value replaces the old
  /// per-kind booleans; the legacy stride/markov/... identity fields in the
  /// results JSON are derived from it unchanged.
  prefetch::PrefetcherSelection Prefetchers;
  /// Static-scheme model: pin the first successful optimization.
  bool Pin = false;
  /// Adaptive hibernation extension (§5.2).
  bool Adaptive = false;

  /// Materializes the OptimizerConfig this spec describes.
  core::OptimizerConfig materializeConfig() const;

  /// Stable display label: "mcf/dynpref", "mcf/dynpref@3+stride", ...
  std::string label() const;

  bool operator==(const ExperimentSpec &Other) const = default;
};

/// The default matrix at \p Scale: every workload (paper figure order) ×
/// every RunMode — the cells behind Figures 11 and 12 plus their
/// Original baselines — followed by one Original-mode cell per workload
/// per hardware prefetcher (stride, markov, pair), the Figure-12-style
/// hardware comparison bars.
std::vector<ExperimentSpec> defaultMatrix(double Scale = 1.0);

/// Narrows \p Specs in place with one "key=value" filter.  Supported
/// keys: workload (name), mode (runModeToken vocabulary), seed
/// (decimal), and prefetcher (none or a kind token — cells whose only
/// enabled prefetcher is the named one).
/// Returns false — leaving \p Specs untouched and setting \p Error when
/// non-null — for an unknown key or unparseable value.
bool applyFilter(std::vector<ExperimentSpec> &Specs,
                 const std::string &Filter, std::string *Error = nullptr);

/// Applies every filter in \p Filters in turn.  On a bad filter returns
/// false and leaves \p Specs untouched.
bool applyFilters(std::vector<ExperimentSpec> &Specs,
                  const std::vector<std::string> &Filters,
                  std::string *Error = nullptr);

/// The filter vocabulary lines of a tool usage text, generated from the
/// shared token definitions (core::allRunModes, Prefetcher::kindToken)
/// so CLI help never drifts from the parsers.  Cold: it runs only when a
/// tool prints its usage, and its placement keeps perfbench's host probe
/// at the offset its references were taken at (docs/benchmarks.md,
/// "Host-probe alignment").
[[gnu::cold]] std::string filterHelp();

} // namespace engine
} // namespace hds

#endif // HDS_ENGINE_EXPERIMENTSPEC_H
