#pragma once

#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Graph kernel from folklore 2-WL colours (Section 3.5's closing pointer
/// to higher-dimensional WL kernels [Morris et al. 2017]): the dataset is
/// refined jointly by wl::RefineJointly with k = 2, and graph G's feature
/// vector counts its vertex-PAIR colours across rounds 0..rounds, stopping
/// once the colour count is stable. Strictly more expressive than the 1-WL
/// subtree kernel (it separates C6 from 2xC3) at O(n^3) per graph per round.
linalg::Matrix TwoWlKernelMatrix(const std::vector<graph::Graph>& graphs,
                                 int rounds);

}  // namespace x2vec::kernel
