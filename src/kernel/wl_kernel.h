#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Sparse feature vector: sorted (feature id, value) pairs. Feature ids are
/// only meaningful relative to the map they came from.
struct SparseVector {
  std::vector<std::pair<int64_t, double>> entries;

  double Dot(const SparseVector& other) const;
  double NormSquared() const { return Dot(*this); }
};

/// Symmetric Gram matrix of sparse feature vectors, parallel over the
/// upper triangle; every entry is an independent merge-dot.
linalg::Matrix GramFromSparse(const std::vector<SparseVector>& features);

/// Explicit Weisfeiler-Leman subtree features of a *dataset* of graphs
/// (Section 3.5): all graphs are refined jointly so colour ids are shared,
/// and graph G's feature vector stacks the counts wl(c, G) for every colour
/// c of every round 0..t. Feature ids encode (round, colour).
struct WlFeatureSet {
  std::vector<SparseVector> features;  ///< One per input graph.
  int rounds = 0;
  int64_t dimension = 0;  ///< Total number of (round, colour) features seen.
};

WlFeatureSet WlSubtreeFeatures(const std::vector<graph::Graph>& graphs,
                               int rounds);

/// K^(t)_WL Gram matrix over the dataset: the t-round WL subtree kernel of
/// Section 3.5, K(G,H) = sum_{i<=t} sum_c wl(c,G) wl(c,H).
linalg::Matrix WlSubtreeKernelMatrix(const std::vector<graph::Graph>& graphs,
                                     int rounds);

/// Round-discounted kernel K_WL with weight 2^{-i} for round i (the
/// round-independent variant defined in Section 3.5), truncated at
/// `max_rounds` (colourings are stable long before on these sizes).
linalg::Matrix DiscountedWlKernelMatrix(const std::vector<graph::Graph>& graphs,
                                        int max_rounds);

/// Weisfeiler-Leman shortest-path kernel: features are triples
/// (colour_u at round t, colour_v at round t, dist(u, v)) over connected
/// vertex pairs [Shervashidze et al. 2011 variant].
linalg::Matrix WlShortestPathKernelMatrix(
    const std::vector<graph::Graph>& graphs, int rounds);

}  // namespace x2vec::kernel
