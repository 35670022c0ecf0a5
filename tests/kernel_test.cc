#include <algorithm>
#include <cstring>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"
#include "linalg/kernels_backend.h"
#include "wl/color_refinement.h"

namespace x2vec::kernel {
namespace {

using graph::DisjointUnion;
using graph::Graph;

std::vector<Graph> TestDataset(int count, uint64_t seed) {
  Rng rng = MakeRng(seed);
  std::vector<Graph> graphs;
  for (int i = 0; i < count; ++i) {
    graphs.push_back(graph::ErdosRenyiGnp(6 + i % 4, 0.4, rng));
  }
  return graphs;
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector a{{{1, 2.0}, {3, 1.0}, {7, 4.0}}};
  SparseVector b{{{1, 1.0}, {2, 5.0}, {7, 2.0}}};
  EXPECT_DOUBLE_EQ(a.Dot(b), 2.0 + 8.0);
  EXPECT_DOUBLE_EQ(a.NormSquared(), 4.0 + 1.0 + 16.0);
}

TEST(WlKernelTest, HandComputedOnTinyPair) {
  // P2 (one edge) and P3 at t = 0: every vertex has the same initial colour,
  // so K(G, H) = |G| * |H|.
  const std::vector<Graph> graphs = {Graph::Path(2), Graph::Path(3)};
  const linalg::Matrix k0 = WlSubtreeKernelMatrix(graphs, 0);
  EXPECT_DOUBLE_EQ(k0(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(k0(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(k0(1, 1), 9.0);
  // Round 1 adds degree colours: P2 = {d1: 2}, P3 = {d1: 2, d2: 1}.
  const linalg::Matrix k1 = WlSubtreeKernelMatrix(graphs, 1);
  EXPECT_DOUBLE_EQ(k1(0, 1), 6.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(k1(0, 0), 4.0 + 4.0);
  EXPECT_DOUBLE_EQ(k1(1, 1), 9.0 + 4.0 + 1.0);
}

TEST(WlKernelTest, GramIsSymmetricPsd) {
  const std::vector<Graph> graphs = TestDataset(8, 71);
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 3);
  for (int i = 0; i < k.rows(); ++i) {
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
  EXPECT_TRUE(IsPositiveSemidefinite(k));
}

TEST(WlKernelTest, IsomorphicGraphsHaveEqualRows) {
  Rng rng = MakeRng(72);
  Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(7)};
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 4);
  EXPECT_DOUBLE_EQ(k(0, 0), k(1, 1));
  EXPECT_DOUBLE_EQ(k(0, 0), k(0, 1));  // Full self-similarity.
  EXPECT_DOUBLE_EQ(k(0, 2), k(1, 2));
}

TEST(WlKernelTest, WlIndistinguishablePairLooksIdentical) {
  // C6 vs 2xC3: the WL kernel cannot separate them at any round.
  const std::vector<Graph> graphs = {
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))};
  const linalg::Matrix k = NormalizeKernel(WlSubtreeKernelMatrix(graphs, 5));
  EXPECT_NEAR(k(0, 1), 1.0, 1e-12);
}

TEST(WlKernelTest, FeatureDimensionGrowsWithRounds) {
  const std::vector<Graph> graphs = TestDataset(4, 73);
  const WlFeatureSet f0 = WlSubtreeFeatures(graphs, 0);
  const WlFeatureSet f2 = WlSubtreeFeatures(graphs, 2);
  EXPECT_GT(f2.dimension, f0.dimension);
  EXPECT_EQ(f0.features.size(), graphs.size());
}

TEST(WlKernelTest, DiscountedKernelPsd) {
  const std::vector<Graph> graphs = TestDataset(6, 74);
  EXPECT_TRUE(IsPositiveSemidefinite(DiscountedWlKernelMatrix(graphs, 6)));
}

TEST(WlKernelTest, ShortestPathVariantPsd) {
  const std::vector<Graph> graphs = TestDataset(6, 75);
  EXPECT_TRUE(IsPositiveSemidefinite(WlShortestPathKernelMatrix(graphs, 2)));
}

TEST(ShortestPathKernelTest, HandComputed) {
  // P3 has distances {1,1,2}; P2 has {1}. Unlabelled: features (0,0,d).
  const std::vector<Graph> graphs = {Graph::Path(3), Graph::Path(2)};
  const linalg::Matrix k = ShortestPathKernelMatrix(graphs);
  EXPECT_DOUBLE_EQ(k(0, 0), 4.0 + 1.0);  // 2 dist-1 pairs, 1 dist-2 pair.
  EXPECT_DOUBLE_EQ(k(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 1.0);
}

TEST(RandomWalkKernelTest, ProductGraphCounts) {
  // K(P2, P2): product is 2 disjoint edges; walks of length k from 4
  // vertices: 4 for every k. lambda = 0.5, max 2: 4 + 0.5*4 + 0.25*4 = 7.
  const std::vector<Graph> graphs = {Graph::Path(2)};
  const linalg::Matrix k = RandomWalkKernelMatrix(graphs, 0.5, 2);
  EXPECT_DOUBLE_EQ(k(0, 0), 7.0);
}

TEST(RandomWalkKernelTest, SymmetricPsdOnDataset) {
  const std::vector<Graph> graphs = TestDataset(5, 76);
  const linalg::Matrix k = RandomWalkKernelMatrix(graphs, 0.1, 4);
  double largest_diagonal = 0.0;
  for (int i = 0; i < k.rows(); ++i) {
    largest_diagonal = std::max(largest_diagonal, k(i, i));
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
  EXPECT_TRUE(IsPositiveSemidefinite(k, 1e-10 * largest_diagonal));
}

// The dense walk the sparse kernel replaced: graph::DirectProduct, its
// dense adjacency matrix and one Apply per step, under the generic
// backend. Returns 1^T A^k 1 for k = 0..max_length.
std::vector<double> DenseWalkSums(const Graph& g, const Graph& h,
                                  int max_length) {
  const Graph product = graph::DirectProduct(g, h);
  const int np = product.NumVertices();
  const linalg::Matrix a = product.AdjacencyMatrix();
  std::vector<double> sums = {static_cast<double>(np)};
  std::vector<double> current(np, 1.0);
  for (int step = 1; step <= max_length; ++step) {
    current = a.Apply(current);
    double sum = 0.0;
    for (double x : current) sum += x;
    sums.push_back(sum);
  }
  return sums;
}

// The seed's Gram entry from those sums, in its operation order.
double DiscountedTotal(const std::vector<double>& sums, double lambda,
                       int max_length) {
  double total = sums[0];
  double weight = 1.0;
  for (int step = 1; step <= max_length; ++step) {
    weight *= lambda;
    total += weight * sums[step];
  }
  return total;
}

bool SameBytes(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// Dense labelled graphs (G(n, 0.6), three vertex labels), an edgeless graph
// and a graph with isolated vertices.
std::vector<Graph> DenseAndDegenerateGraphs() {
  Rng rng = MakeRng(77);
  std::vector<Graph> graphs;
  for (const int n : {6, 9, 12, 16}) {
    Graph g = graph::ErdosRenyiGnp(n, 0.6, rng);
    for (int v = 0; v < n; ++v) {
      g.SetVertexLabel(v, static_cast<int>(UniformInt(rng, 0, 2)));
    }
    graphs.push_back(std::move(g));
  }
  graphs.push_back(Graph(5));
  Graph isolated(7);
  isolated.AddEdge(0, 1);
  isolated.AddEdge(1, 2);
  isolated.AddEdge(2, 0);
  isolated.AddEdge(3, 4);
  graphs.push_back(std::move(isolated));
  return graphs;
}

TEST(RandomWalkKernelTest, MatchesDenseProductWalkBitForBit) {
  constexpr int kLongest = 12;
  linalg::SetKernelBackend(linalg::KernelBackend::kGeneric);
  Rng rng = MakeRng(78);
  std::vector<std::vector<Graph>> collections;
  for (data::GraphDataset& dataset :
       data::AllClassificationDatasets(/*per_class=*/4, /*graph_size=*/16,
                                       rng)) {
    collections.push_back(std::move(dataset.graphs));
  }
  collections.push_back(DenseAndDegenerateGraphs());
  for (const std::vector<Graph>& graphs : collections) {
    const int n = static_cast<int>(graphs.size());
    std::vector<std::vector<std::vector<double>>> sums(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j) {
        sums[i].push_back(DenseWalkSums(graphs[i], graphs[j], kLongest));
      }
    }
    for (const double lambda : {0.1, 0.75}) {
      for (const int max_length : {0, 1, 6, kLongest}) {
        linalg::Matrix expected(n, n);
        for (int i = 0; i < n; ++i) {
          for (int j = i; j < n; ++j) {
            const double total =
                DiscountedTotal(sums[i][j - i], lambda, max_length);
            expected(i, j) = total;
            expected(j, i) = total;
          }
        }
        for (const linalg::KernelBackend backend :
             {linalg::KernelBackend::kGeneric,
              linalg::KernelBackend::kVectorized,
              linalg::KernelBackend::kFloat32}) {
          linalg::SetKernelBackend(backend);
          for (const int threads : {1, 4}) {
            SetThreadCount(threads);
            EXPECT_TRUE(SameBytes(
                RandomWalkKernelMatrix(graphs, lambda, max_length), expected))
                << "lambda " << lambda << ", max_length " << max_length
                << ", backend " << static_cast<int>(backend) << ", threads "
                << threads;
          }
        }
        linalg::SetKernelBackend(linalg::KernelBackend::kGeneric);
        SetThreadCount(0);
      }
    }
  }
}

TEST(GraphletTest, TriangleCounts) {
  const std::vector<double> counts = ThreeGraphletCounts(Graph::Complete(4));
  EXPECT_DOUBLE_EQ(counts[3], 4.0);  // All 4 triples are triangles.
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
  const std::vector<double> path = ThreeGraphletCounts(Graph::Path(3));
  EXPECT_DOUBLE_EQ(path[2], 1.0);  // The single wedge.
}

TEST(GraphletTest, CountsSumToTriples) {
  Rng rng = MakeRng(77);
  const Graph g = graph::ErdosRenyiGnp(8, 0.5, rng);
  const std::vector<double> counts = ThreeGraphletCounts(g);
  EXPECT_DOUBLE_EQ(counts[0] + counts[1] + counts[2] + counts[3],
                   8.0 * 7 * 6 / 6);
}

TEST(GraphletTest, KernelPsd) {
  EXPECT_TRUE(IsPositiveSemidefinite(GraphletKernelMatrix(TestDataset(6, 78))));
}

TEST(HomKernelTest, PsdAndInvariant) {
  Rng rng = MakeRng(79);
  Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  Graph p = graph::Permuted(g, RandomPermutation(8, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(8)};
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  const linalg::Matrix k = HomVectorKernelMatrix(graphs, family);
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  EXPECT_NEAR(k(0, 2), k(1, 2), 1e-9);
  const linalg::Matrix scaled = ScaledHomKernelMatrix(graphs, family);
  EXPECT_TRUE(IsPositiveSemidefinite(scaled));
}

TEST(KernelUtilsTest, NormalizeUnitDiagonal) {
  const std::vector<Graph> graphs = TestDataset(5, 80);
  const linalg::Matrix k = NormalizeKernel(WlSubtreeKernelMatrix(graphs, 2));
  for (int i = 0; i < k.rows(); ++i) {
    EXPECT_NEAR(k(i, i), 1.0, 1e-12);
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_LE(k(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(KernelUtilsTest, CenteringZeroesRowSums) {
  const linalg::Matrix k = WlSubtreeKernelMatrix(TestDataset(5, 81), 2);
  const linalg::Matrix c = CenterKernel(k);
  for (int i = 0; i < c.rows(); ++i) {
    double row = 0.0;
    for (int j = 0; j < c.cols(); ++j) row += c(i, j);
    EXPECT_NEAR(row, 0.0, 1e-9);
  }
}

TEST(KernelUtilsTest, PsdDetection) {
  EXPECT_TRUE(IsPositiveSemidefinite(linalg::Matrix{{2, 1}, {1, 2}}));
  EXPECT_FALSE(IsPositiveSemidefinite(linalg::Matrix{{0, 1}, {1, 0}}));
}

}  // namespace
}  // namespace x2vec::kernel
