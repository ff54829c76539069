//===- tools/MatrixViews.h - Paper figures as matrix views -----*- C++ -*-===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figures 11 and 12, Table 2 and three ablations (the §4.3
/// stride complement, static pinning and the §5.2 adaptive hibernation
/// extension) as named views of hds_matrix.  A view is a list of matrix
/// cells plus a renderer that prints their results as the figure's text
/// table, so the cells run through engine::runMatrix like any other
/// selection and can be written as a results document.
///
//===----------------------------------------------------------------------===//

#ifndef HDS_TOOLS_MATRIXVIEWS_H
#define HDS_TOOLS_MATRIXVIEWS_H

#include "engine/ExperimentRunner.h"
#include "engine/ExperimentSpec.h"

#include <string>
#include <vector>

namespace hds {
namespace views {

struct View;

/// The view called \p Name, or null.
const View *findView(const std::string &Name);

/// "fig11, fig12, ..." in roster order, for usage and error text.
std::string viewNames();

/// The cells \p V reads at \p Scale: workload-major, one cell per column.
std::vector<engine::ExperimentSpec> viewSpecs(const View &V, double Scale);

/// Prints \p V's text to stdout: its heading lines, the table, and the
/// paper's figures to compare against.  \p Results are the ok results of
/// viewSpecs(V, ...), in spec order.
void renderView(const View &V, const std::vector<engine::RunResult> &Results);

} // namespace views
} // namespace hds

#endif // HDS_TOOLS_MATRIXVIEWS_H
