#include "kernel/graph_kernels.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#include "base/metrics.h"
#include "base/parallel.h"
#include "graph/algorithms.h"
#include "linalg/eigen.h"
#include "linalg/kernels_backend.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

// Symmetric Gram fill, parallel over the upper triangle. Each entry is an
// independent dot product, so the result is bit-identical at any thread
// count.
linalg::Matrix GramFromDense(const std::vector<std::vector<double>>& features) {
  const int n = static_cast<int>(features.size());
  linalg::Matrix k(n, n);
  // Gauge written here, at the serial entry, never inside the ParallelFor.
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  const Status status = ParallelFor(pairs, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const auto [i, j] = UpperTriangleIndex(t, n);
      const double dot = linalg::Dot(features[i], features[j]);
      k(i, j) = dot;
      k(j, i) = dot;
    }
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return k;
}

// Sparse dot of two sorted (key -> count) maps.
template <typename Key>
double MapDot(const std::map<Key, double>& a, const std::map<Key, double>& b) {
  double total = 0.0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->first < j->first) {
      ++i;
    } else if (j->first < i->first) {
      ++j;
    } else {
      total += i->second * j->second;
      ++i;
      ++j;
    }
  }
  return total;
}

// Gram fill over sparse per-graph count maps, parallel over the upper
// triangle. Counts are integral, so the sums of products are exact and the
// matrix is independent of key numbering and summation grouping.
template <typename Key>
linalg::Matrix GramFromCountMaps(
    const std::vector<std::map<Key, double>>& counts) {
  const int n = static_cast<int>(counts.size());
  linalg::Matrix gram(n, n);
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  const Status status = ParallelFor(pairs, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const auto [i, j] = UpperTriangleIndex(t, n);
      const double dot = MapDot(counts[i], counts[j]);
      gram(i, j) = dot;
      gram(j, i) = dot;
    }
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return gram;
}

// Ascending neighbour ids of every vertex of an undirected graph.
std::vector<std::vector<int>> SortedNeighbors(const Graph& g) {
  X2VEC_CHECK(!g.directed());
  std::vector<std::vector<int>> out(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); ++v) {
    for (const graph::Neighbor& nb : g.Neighbors(v)) out[v].push_back(nb.to);
    std::sort(out[v].begin(), out[v].end());
  }
  return out;
}

// The direct product graph G x H of the random-walk kernel as a CSR
// adjacency, with the vertex numbering of graph::DirectProduct: the
// label-matched pairs (u, v) in lexicographic order. Every row lists its
// neighbours in ascending product id.
//
// DiscountedWalkSum reproduces, bit for bit, the dense computation
// `x <- A x` with the generic Dot over each 0/1 row of the adjacency
// matrix: that Dot adds 0 * x_c (= +0.0, a no-op on a non-negative sum)
// or 1 * x_c (= x_c) in column order, so adding just the x_c of the
// row's neighbours in ascending order gives the same double at every
// step, however large the walk counts grow.
class ProductWalk {
 public:
  void Build(const Graph& g, const std::vector<std::vector<int>>& g_neighbors,
             const Graph& h, const std::vector<std::vector<int>>& h_neighbors) {
    const int ng = g.NumVertices();
    const int nh = h.NumVertices();
    id_.assign(static_cast<size_t>(ng) * nh, -1);
    int count = 0;
    for (int u = 0; u < ng; ++u) {
      for (int v = 0; v < nh; ++v) {
        if (g.VertexLabel(u) == h.VertexLabel(v)) {
          id_[static_cast<size_t>(u) * nh + v] = count++;
        }
      }
    }
    row_start_.assign(1, 0);
    columns_.clear();
    for (int u = 0; u < ng; ++u) {
      for (int v = 0; v < nh; ++v) {
        if (id_[static_cast<size_t>(u) * nh + v] < 0) continue;
        for (const int up : g_neighbors[u]) {
          for (const int vp : h_neighbors[v]) {
            const int b = id_[static_cast<size_t>(up) * nh + vp];
            if (b >= 0) columns_.push_back(b);
          }
        }
        row_start_.push_back(static_cast<int>(columns_.size()));
      }
    }
  }

  // sum_{k=0..max_length} lambda^k 1^T A^k 1 over the product graph.
  double DiscountedWalkSum(double lambda, int max_length) {
    const int np = static_cast<int>(row_start_.size()) - 1;
    current_.assign(np, 1.0);
    next_.resize(np);
    double total = np;  // k = 0 term.
    double weight = 1.0;
    for (int step = 1; step <= max_length; ++step) {
      for (int p = 0; p < np; ++p) {
        double s = 0.0;
        for (int c = row_start_[p]; c < row_start_[p + 1]; ++c) {
          s += current_[columns_[c]];
        }
        next_[p] = s;
      }
      current_.swap(next_);
      weight *= lambda;
      double sum = 0.0;
      for (double x : current_) sum += x;
      total += weight * sum;
    }
    return total;
  }

 private:
  std::vector<int> id_;  // u * |V(H)| + v -> product id, or -1.
  std::vector<int> row_start_;
  std::vector<int> columns_;
  std::vector<double> current_;
  std::vector<double> next_;
};

}  // namespace

linalg::Matrix ShortestPathKernelMatrix(const std::vector<Graph>& graphs) {
  // Per-graph feature maps over (label_u, label_v, dist) triples, one
  // independent APSP per graph.
  const auto counts =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        const auto dist = graph::AllPairsShortestPaths(graphs[g]);
        const int n = graphs[g].NumVertices();
        std::map<std::tuple<int, int, int>, double> local;
        for (int u = 0; u < n; ++u) {
          for (int v = u + 1; v < n; ++v) {
            if (dist[u][v] <= 0) continue;
            const int a = std::min(graphs[g].VertexLabel(u),
                                   graphs[g].VertexLabel(v));
            const int b = std::max(graphs[g].VertexLabel(u),
                                   graphs[g].VertexLabel(v));
            local[std::make_tuple(a, b, dist[u][v])] += 1.0;
          }
        }
        return local;
      });
  return GramFromCountMaps(counts);
}

linalg::Matrix RandomWalkKernelMatrix(const std::vector<Graph>& graphs,
                                      double lambda, int max_length) {
  X2VEC_CHECK_GT(lambda, 0.0);
  X2VEC_CHECK_GE(max_length, 0);
  const int n = static_cast<int>(graphs.size());
  const std::vector<std::vector<std::vector<int>>> neighbors =
      ParallelMap(static_cast<int64_t>(n), [&](int64_t g) {
        return SortedNeighbors(graphs[g]);
      });
  linalg::Matrix gram(n, n);
  // Each (i, j) entry walks its own product graph; the upper triangle is
  // the natural parallel decomposition. Scratch is reused across a chunk.
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  const Status status = ParallelFor(pairs, 0, [&](int64_t lo, int64_t hi) {
    ProductWalk walk;
    for (int64_t t = lo; t < hi; ++t) {
      const auto [i, j] = UpperTriangleIndex(t, n);
      walk.Build(graphs[i], neighbors[i], graphs[j], neighbors[j]);
      const double total = walk.DiscountedWalkSum(lambda, max_length);
      gram(i, j) = total;
      gram(j, i) = total;
    }
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return gram;
}

std::vector<double> ThreeGraphletCounts(const Graph& g) {
  X2VEC_CHECK(!g.directed());
  const int n = g.NumVertices();
  // counts = (empty, one edge, path/wedge, triangle) over all C(n,3)
  // vertex triples.
  std::vector<double> counts(4, 0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int c = b + 1; c < n; ++c) {
        const int edges = (g.HasEdge(a, b) ? 1 : 0) +
                          (g.HasEdge(a, c) ? 1 : 0) +
                          (g.HasEdge(b, c) ? 1 : 0);
        counts[edges] += 1.0;
      }
    }
  }
  return counts;
}

linalg::Matrix GraphletKernelMatrix(const std::vector<Graph>& graphs) {
  // O(n^3) triple enumeration per graph — parallel over the dataset.
  const std::vector<std::vector<double>> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        const std::vector<double> counts = ThreeGraphletCounts(graphs[g]);
        // Use the non-empty graphlets (edge+isolated, wedge, triangle),
        // normalised to a distribution so graph size does not dominate; the
        // empty triple would otherwise swamp the histogram on sparse graphs.
        std::vector<double> connected(counts.begin() + 1, counts.end());
        double total = 0.0;
        for (double c : connected) total += c;
        if (total > 0.0) {
          for (double& c : connected) c /= total;
        }
        return connected;
      });
  return GramFromDense(features);
}

linalg::Matrix HomVectorKernelMatrix(const std::vector<Graph>& graphs,
                                     const std::vector<hom::Pattern>& patterns) {
  // One independent homomorphism-vector computation per graph.
  std::vector<std::vector<double>> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        return hom::LogScaledHomVector(graphs[g], patterns);
      });
  // Standardise each pattern coordinate over the dataset (zero mean, unit
  // variance): a single highly discriminative pattern (say C3) should not
  // be drowned by large shared walk counts.
  if (!features.empty()) {
    const size_t dim = features[0].size();
    for (size_t j = 0; j < dim; ++j) {
      double mean = 0.0;
      for (const auto& f : features) mean += f[j];
      mean /= features.size();
      double variance = 0.0;
      for (const auto& f : features) {
        variance += (f[j] - mean) * (f[j] - mean);
      }
      variance /= features.size();
      const double scale = variance > 1e-18 ? 1.0 / std::sqrt(variance) : 0.0;
      for (auto& f : features) f[j] = (f[j] - mean) * scale;
    }
  }
  return GramFromDense(features);
}

linalg::Matrix ScaledHomKernelMatrix(const std::vector<Graph>& graphs,
                                     const std::vector<hom::Pattern>& patterns) {
  // Group patterns by order k; scale hom(F, .) by k^{-k/2} and each order
  // class by 1/sqrt(|F_k|) so the Gram matrix realises eq. (4.1).
  std::map<int, int> order_counts;
  for (const hom::Pattern& p : patterns) ++order_counts[p.graph.NumVertices()];

  const std::vector<std::vector<double>> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        const std::vector<double> raw = hom::HomVector(graphs[g], patterns);
        std::vector<double> scaled(raw.size());
        for (size_t i = 0; i < raw.size(); ++i) {
          const int k = patterns[i].graph.NumVertices();
          const double class_scale = 1.0 / std::sqrt(
              static_cast<double>(order_counts.at(k)));
          scaled[i] = raw[i] * std::pow(static_cast<double>(k), -k / 2.0) *
                      class_scale;
        }
        return scaled;
      });
  return GramFromDense(features);
}

linalg::Matrix NormalizeKernel(const linalg::Matrix& k) {
  X2VEC_CHECK_EQ(k.rows(), k.cols());
  const int n = k.rows();
  std::vector<double> diag(n);
  for (int i = 0; i < n; ++i) diag[i] = k(i, i);
  linalg::Matrix out(n, n);
  for (int i = 0; i < n; ++i) {
    const std::span<const double> in = k.ConstRowSpan(i);
    const std::span<double> normalized = out.RowSpan(i);
    for (int j = 0; j < n; ++j) {
      const double denom = std::sqrt(diag[i] * diag[j]);
      normalized[j] = denom > 0.0 ? in[j] / denom : 0.0;
    }
  }
  return out;
}

linalg::Matrix CenterKernel(const linalg::Matrix& k) {
  X2VEC_CHECK_EQ(k.rows(), k.cols());
  const int n = k.rows();
  linalg::Matrix centering = linalg::Matrix::Identity(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) centering(i, j) -= 1.0 / n;
  }
  return centering * k * centering;
}

bool IsPositiveSemidefinite(const linalg::Matrix& k, double tol) {
  const std::vector<double> spectrum = linalg::Spectrum(k);
  return spectrum.empty() || spectrum.back() >= -tol;
}

}  // namespace x2vec::kernel
