#pragma once

#include <vector>

#include "graph/graph.h"
#include "hom/embeddings.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Shortest-path kernel (Section 2.4 [Borgwardt–Kriegel]): features are
/// triples (label_u, label_v, dist(u, v)) over connected vertex pairs.
linalg::Matrix ShortestPathKernelMatrix(const std::vector<graph::Graph>& graphs);

/// Geometric random-walk kernel (Section 2.4 [Gärtner et al.]):
/// K(G, H) = sum_{k=0..max_length} lambda^k * (number of length-k walk
/// pairs), i.e. lambda^k 1^T A_x^k 1 on the direct product graph, walked as
/// a sparse adjacency without building a graph::Graph. Equal bit for bit to
/// the dense walk through graph::DirectProduct with the generic Dot, under
/// every kernel backend.
linalg::Matrix RandomWalkKernelMatrix(const std::vector<graph::Graph>& graphs,
                                      double lambda, int max_length);

/// Induced 3-vertex graphlet counts of a graph: (empty, one-edge, path,
/// triangle) — the graphlet kernel's feature map (Section 2.4
/// [Shervashidze et al. 2009]).
std::vector<double> ThreeGraphletCounts(const graph::Graph& g);

/// Graphlet kernel Gram matrix from normalised 3-graphlet counts.
linalg::Matrix GraphletKernelMatrix(const std::vector<graph::Graph>& graphs);

/// Homomorphism-vector kernel: inner products of the log-scaled Hom_F
/// embeddings of Section 4 over the given pattern family.
linalg::Matrix HomVectorKernelMatrix(const std::vector<graph::Graph>& graphs,
                                     const std::vector<hom::Pattern>& patterns);

/// The size-scaled homomorphism kernel of eq. (4.1), truncated to the given
/// family: K(G,H) = sum_k (1/|F_k|) sum_{F in F_k} k^{-k} hom(F,G) hom(F,H),
/// where F_k is the set of patterns with k vertices.
linalg::Matrix ScaledHomKernelMatrix(const std::vector<graph::Graph>& graphs,
                                     const std::vector<hom::Pattern>& patterns);

// -- Kernel matrix utilities -------------------------------------------------

/// K'_ij = K_ij / sqrt(K_ii K_jj) (cosine normalisation); zero diagonals
/// stay zero.
linalg::Matrix NormalizeKernel(const linalg::Matrix& k);

/// Double-centring K' = (I - 1/n J) K (I - 1/n J), as used by kernel PCA.
linalg::Matrix CenterKernel(const linalg::Matrix& k);

/// True if the symmetric matrix is positive semidefinite up to `tol`
/// (minimum eigenvalue >= -tol) — the defining property of a kernel
/// (Section 2.4).
bool IsPositiveSemidefinite(const linalg::Matrix& k, double tol = 1e-8);

}  // namespace x2vec::kernel
