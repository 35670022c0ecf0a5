#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "linalg/charpoly.h"

namespace x2vec::hom {

/// hom(P_k, G) for the path on k vertices (k-1 edges): the number of walks
/// of length k-1, i.e., 1^T A^{k-1} 1 — exact in 128-bit arithmetic.
__int128 CountPathHoms(int k, const graph::Graph& g);

/// hom(C_k, G) for the cycle on k >= 3 vertices: trace(A^k) (the spectral
/// identity behind Theorem 4.3).
__int128 CountCycleHoms(int k, const graph::Graph& g);

/// The truncated path-homomorphism vector (hom(P_1,G), ..., hom(P_max,G)).
/// Equality of these vectors for k up to |G| + |H| decides Hom_P equality
/// (the walk generating function is rational of bounded degree).
std::vector<__int128> PathHomVector(const graph::Graph& g, int max_k);

/// The truncated cycle vector (hom(C_3,G), ..., hom(C_max,G)).
std::vector<__int128> CycleHomVector(const graph::Graph& g, int max_k);

/// Label-respecting hom(C_k, G) for k = 3..max_k (entry k - 3), where every
/// vertex of C_k carries `vertex_label` and every edge `edge_label`: the
/// trace of B^k for B, G's adjacency restricted to vertices labelled
/// `vertex_label` and edges labelled `edge_label` (weights ignored). One
/// power sequence serves every k. An entry is -1 once an entry of some
/// B^j with j <= k, or tr(B^k) itself, reaches 2^53: below that bound
/// every count, and every partial sum the elimination counter forms
/// for a cycle, is an exact double, so the two agree bit for bit.
std::vector<int64_t> LabelledCycleTraces(const graph::Graph& g,
                                         int vertex_label, int edge_label,
                                         int max_k);

}  // namespace x2vec::hom
