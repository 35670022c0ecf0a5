#pragma once

// Reference code of the benchmark, written apart from the library: the
// generated graphs' edge function, a walk validator over adjacency rebuilt
// from that function, integer homomorphism counts by adjacency powers and
// tree dynamic programming, a plain-loop cosine top-k and a Cauchy-Schwarz
// check for Gram matrices. Workload outputs are checked against these,
// never against stored copies of earlier output. `--self-test` runs the
// hand-computed cases in self_test.cc.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::ref {

/// splitmix64 finaliser: the benchmark's own hash for generated inputs.
uint64_t Mix(uint64_t x);

/// Counter-based draws keyed by (seed, key): the same key always yields
/// the same sequence, so an edge can be regenerated from its index alone.
class Draws {
 public:
  Draws(uint64_t seed, uint64_t key) : state_(Mix(seed ^ Mix(key))) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Uniform() * static_cast<double>(n));
  }

 private:
  uint64_t state_;
};

/// Planted-partition graph given by an edge function. Vertex v lies in
/// block v % blocks. Edge i joins u to a vertex of u's block with
/// probability `in_block`, else to a uniform vertex. The first n edges
/// start at u = i, so no vertex is isolated; later edges start at i % n
/// (skew 0, near-uniform degree) or at floor(n * x^skew) for x the edge's
/// quantile among the later edges (skew > 1, hubs at low ids, the same
/// start-side degrees for every seed).
struct PlantedPartition {
  int64_t n = 0;
  int blocks = 1;
  int64_t edges = 0;
  double in_block = 0.0;
  double skew = 0.0;
  uint64_t seed = 0;

  [[nodiscard]] int Block(int v) const { return v % blocks; }
  [[nodiscard]] std::pair<int, int> Edge(int64_t i) const;
};

using Adjacency = std::vector<std::vector<int>>;

/// Sorted adjacency lists (with repeats for repeated edges) rebuilt from
/// the edge function alone.
Adjacency AdjacencyOf(const PlantedPartition& graph);

/// Empty when `walk` has `length` vertices and every step is an edge of
/// `adjacency`; otherwise a description of the first violation.
std::string ValidateWalk(const Adjacency& adjacency,
                         const std::vector<int>& walk, int length);

/// Share of vertices whose nearest other row by cosine (ties to the lower
/// id) lies in the same block. `rows` is row-major n x dim.
double SameBlockRate(const std::vector<double>& rows, int n, int dim,
                     int blocks);

/// Homomorphism counts by integer arithmetic. Overflow of 127 bits
/// CHECK-fails rather than wrapping.
using Count = __int128;
/// hom(P_k, G) = 1^T A^(k-1) 1 for the path on k vertices.
Count PathHoms(const Adjacency& g, int k);
/// hom(C_k, G) = tr A^k for the cycle on k vertices.
Count CycleHoms(const Adjacency& g, int k);
/// hom(T, G) for a tree T by dynamic programming over T rooted at 0.
Count TreeHoms(const Adjacency& tree, const Adjacency& g);

/// One ranked answer of CosineTopK.
struct Hit {
  int id = -1;
  double score = 0.0;
};
/// Plain-loop cosine top-k of `query` over the rows of `rows` (row-major
/// n x dim), skipping `excludes`, ordered by score descending and then id
/// ascending. A zero-norm row or query scores 0.
std::vector<Hit> CosineTopK(const std::vector<double>& rows, int n, int dim,
                            const std::vector<double>& query, int k,
                            const std::vector<int>& excludes);
/// Cosine of two vectors (0 when either has zero norm).
double Cosine(const double* a, const double* b, int dim);

/// Empty when the symmetric n x n `gram` (row-major) satisfies
/// K_ij^2 <= K_ii K_jj within a relative tolerance; otherwise the first
/// violating pair.
std::string CheckCauchySchwarz(const std::vector<double>& gram, int n);

}  // namespace perfbench::ref
