#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "wl/cfi.h"
#include "wl/color_refinement.h"
#include "wl/fractional.h"
#include "wl/kwl.h"
#include "wl/unfolding_tree.h"
#include "wl/weighted_wl.h"

namespace x2vec::wl {
namespace {

using graph::DisjointUnion;
using graph::Graph;

TEST(ColorRefinementTest, PathStableClasses) {
  // P5 refines to 3 classes: endpoints, their neighbours, the centre.
  const RefinementResult r = ColorRefinement(Graph::Path(5));
  EXPECT_EQ(r.NumStableColors(), 3);
  const std::vector<int>& c = r.StableColors();
  EXPECT_EQ(c[0], c[4]);
  EXPECT_EQ(c[1], c[3]);
  EXPECT_NE(c[0], c[1]);
  EXPECT_NE(c[1], c[2]);
}

TEST(ColorRefinementTest, RegularGraphStaysMonochromatic) {
  const RefinementResult r = ColorRefinement(Graph::Cycle(7));
  EXPECT_EQ(r.NumStableColors(), 1);
  EXPECT_EQ(r.stable_round, 1);  // One confirming round.
}

TEST(ColorRefinementTest, RoundProgressionOnPath) {
  const RefinementResult r = ColorRefinement(Graph::Path(5));
  // Round 0: 1 colour; round 1: degree split (2); round 2: centre splits (3).
  EXPECT_EQ(r.colors_per_round[0], 1);
  EXPECT_EQ(r.colors_per_round[1], 2);
  EXPECT_EQ(r.colors_per_round[2], 3);
}

TEST(ColorRefinementTest, VertexLabelsSeedInitialColoring) {
  Graph g = Graph::Cycle(4);
  g.SetVertexLabel(0, 5);
  const RefinementResult r = ColorRefinement(g);
  EXPECT_GT(r.colors_per_round[0], 1);
  EXPECT_EQ(r.NumStableColors(), 3);  // {0}, {1,3}, {2}.
}

TEST(ColorRefinementTest, C6VersusTwoTrianglesIndistinguishable) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(graph::AreIsomorphic(c6, triangles));
  EXPECT_TRUE(WlIndistinguishable(c6, triangles));
}

TEST(ColorRefinementTest, PathVersusStarDistinguished) {
  const JointRefinementResult joint =
      RefineTogether(Graph::Path(4), Graph::Star(3));
  EXPECT_TRUE(joint.distinguishes);
  EXPECT_EQ(joint.distinguishing_round, 1);  // Degrees differ already.
}

TEST(ColorRefinementTest, MaxRoundsCutsOffEarly) {
  RefinementOptions options;
  options.max_rounds = 1;
  const RefinementResult r = ColorRefinement(Graph::Path(6), options);
  // Initial + exactly one refinement round.
  EXPECT_EQ(r.round_colors.size(), 2u);
  EXPECT_EQ(r.colors_per_round[1], 2);  // Degree split only.
}

TEST(ColorRefinementTest, InvariantUnderPermutation) {
  Rng rng = MakeRng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(9, 0.4, rng);
    const Graph p = graph::Permuted(g, RandomPermutation(9, rng));
    EXPECT_TRUE(WlIndistinguishable(g, p));
  }
}

TEST(ColorRefinementTest, EdgeLabelsRefine) {
  // Two 4-cycles with different edge-label arrangements.
  Graph a = Graph(4);
  a.AddEdge(0, 1, 1.0, /*label=*/1);
  a.AddEdge(1, 2, 1.0, 1);
  a.AddEdge(2, 3, 1.0, 0);
  a.AddEdge(3, 0, 1.0, 0);
  Graph b = Graph(4);
  b.AddEdge(0, 1, 1.0, 1);
  b.AddEdge(1, 2, 1.0, 0);
  b.AddEdge(2, 3, 1.0, 1);
  b.AddEdge(3, 0, 1.0, 0);
  EXPECT_FALSE(WlIndistinguishable(a, b));
  RefinementOptions ignore_edges;
  ignore_edges.use_edge_labels = false;
  EXPECT_TRUE(WlIndistinguishable(a, b, ignore_edges));
}

TEST(ColorRefinementTest, DirectedOrientationMatters) {
  Graph a(3, /*directed=*/true);  // Directed path 0->1->2.
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  Graph b(3, /*directed=*/true);  // Out-star 0->1, 0->2.
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  EXPECT_FALSE(WlIndistinguishable(a, b));
}

TEST(StableColoringFastTest, MatchesHashRefinementPartition) {
  Rng rng = MakeRng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(12, 0.3, rng);
    RefinementOptions plain;
    plain.use_vertex_labels = false;
    const std::vector<int> slow = ColorRefinement(g, plain).StableColors();
    const std::vector<int> fast = StableColoringFast(g);
    // Same partition up to renaming: the colour-pair maps are bijective.
    std::map<int, int> fwd;
    std::map<int, int> bwd;
    for (int v = 0; v < 12; ++v) {
      auto [it1, ins1] = fwd.emplace(slow[v], fast[v]);
      EXPECT_EQ(it1->second, fast[v]);
      auto [it2, ins2] = bwd.emplace(fast[v], slow[v]);
      EXPECT_EQ(it2->second, slow[v]);
    }
  }
}

TEST(StableColoringFastTest, PathClasses) {
  const std::vector<int> colors = StableColoringFast(Graph::Path(5));
  EXPECT_EQ(colors[0], colors[4]);
  EXPECT_EQ(colors[1], colors[3]);
  EXPECT_NE(colors[0], colors[1]);
  EXPECT_NE(colors[1], colors[2]);
}

TEST(ColorUtilsTest, ClassesAndHistogram) {
  const std::vector<int> colors = {0, 1, 0, 2, 1};
  const auto classes = ColorClasses(colors);
  EXPECT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(ColorHistogram(colors), (std::vector<int>{2, 2, 1}));
}

TEST(WeightedWlTest, WeightsSplitWhereCountsDoNot) {
  // Two weighted 4-cycles with equal degree structure but different weight
  // sums around each vertex.
  Graph a(4);
  a.AddEdge(0, 1, 2.0);
  a.AddEdge(1, 2, 2.0);
  a.AddEdge(2, 3, 1.0);
  a.AddEdge(3, 0, 1.0);
  Graph b(4);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 2.0);
  b.AddEdge(3, 0, 1.0);
  EXPECT_TRUE(WeightedWlDistinguishes(a, b));
}

TEST(WeightedWlTest, AgreesWithUnweightedOnPlainGraphs) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(WeightedWlDistinguishes(c6, triangles));
  EXPECT_TRUE(WeightedWlDistinguishes(Graph::Path(4), Graph::Star(3)));
}

TEST(WeightedWlTest, RefinementOnWeightedStar) {
  Graph g = Graph::Star(3);
  // Give one spoke a different weight: that leaf must split off.
  Graph h(4);
  h.AddEdge(0, 1, 5.0);
  h.AddEdge(0, 2, 1.0);
  h.AddEdge(0, 3, 1.0);
  const WeightedRefinementResult r = WeightedColorRefinement(h);
  EXPECT_EQ(r.NumStableColors(), 3);  // Centre, heavy leaf, light leaves.
  const WeightedRefinementResult plain = WeightedColorRefinement(g);
  EXPECT_EQ(plain.NumStableColors(), 2);
}

TEST(MatrixWlTest, CirculantMatrixCollapsesToOneClass) {
  linalg::Matrix a = {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}};
  const MatrixWlResult r = MatrixWl(a);
  EXPECT_EQ(r.num_row_colors, 1);
  EXPECT_EQ(r.num_col_colors, 1);
  const linalg::Matrix reduced = ReduceMatrixByWl(a, r);
  EXPECT_EQ(reduced.rows(), 1);
  EXPECT_DOUBLE_EQ(reduced(0, 0), 2.0);  // Row sum.
}

TEST(MatrixWlTest, BlockStructureIsRecovered) {
  // Two row blocks with different totals into two column blocks.
  linalg::Matrix a = {
      {3, 3, 0, 0},
      {3, 3, 0, 0},
      {0, 0, 7, 7},
      {0, 0, 7, 7},
  };
  const MatrixWlResult r = MatrixWl(a);
  EXPECT_EQ(r.num_row_colors, 2);
  EXPECT_EQ(r.num_col_colors, 2);
  EXPECT_EQ(r.row_colors[0], r.row_colors[1]);
  EXPECT_NE(r.row_colors[0], r.row_colors[2]);
  const linalg::Matrix reduced = ReduceMatrixByWl(a, r);
  EXPECT_EQ(reduced.rows(), 2);
  // One block contributes 6 per row, the other 14.
  std::multiset<double> totals = {reduced(0, 0) + reduced(0, 1),
                                  reduced(1, 0) + reduced(1, 1)};
  EXPECT_EQ(totals, (std::multiset<double>{6.0, 14.0}));
}

TEST(KwlTest, DimensionOneMatchesColorRefinement) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(KwlDistinguishes(c6, triangles, 1));
  EXPECT_TRUE(KwlDistinguishes(Graph::Path(4), Graph::Star(3), 1));
}

TEST(KwlTest, DimensionTwoSeparatesC6FromTriangles) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_TRUE(KwlDistinguishes(c6, triangles, 2));
}

TEST(KwlTest, InvariantUnderPermutation) {
  Rng rng = MakeRng(43);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(6, rng));
  EXPECT_FALSE(KwlDistinguishes(g, p, 2));
}

TEST(KwlTest, DifferentOrdersAreDistinguished) {
  EXPECT_TRUE(KwlDistinguishes(Graph::Path(3), Graph::Path(4), 2));
}

// The two-graph k-WL the joint engine replaced: std::map dictionaries
// over vector signatures that also carry w's relation to every position.
// Kept as the reference, without its budget.
std::vector<int> ReferenceAtomicType(const Graph& g,
                                     const std::vector<int>& tuple) {
  const int k = static_cast<int>(tuple.size());
  std::vector<int> type;
  for (int i = 0; i < k; ++i) type.push_back(g.VertexLabel(tuple[i]));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      type.push_back(tuple[i] == tuple[j] ? 2
                     : g.HasEdge(tuple[i], tuple[j]) ? 1
                                                     : 0);
    }
  }
  return type;
}

void ReferenceDecode(int64_t index, int n, std::vector<int>& tuple) {
  for (int i = static_cast<int>(tuple.size()) - 1; i >= 0; --i) {
    tuple[i] = static_cast<int>(index % n);
    index /= n;
  }
}

std::vector<std::vector<int>> ReferenceExtensionMultiset(
    const Graph& g, const std::vector<int>& colors, int64_t index, int n,
    int k) {
  std::vector<int> tuple(k);
  ReferenceDecode(index, n, tuple);
  std::vector<int64_t> stride(k, 1);
  for (int i = k - 2; i >= 0; --i) stride[i] = stride[i + 1] * n;
  std::vector<std::vector<int>> rows;
  for (int w = 0; w < n; ++w) {
    std::vector<int> row(2 * k);
    for (int i = 0; i < k; ++i) {
      row[i] = colors[index + (w - tuple[i]) * stride[i]];
      row[k + i] = w == tuple[i] ? 2 : g.HasEdge(w, tuple[i]) ? 1 : 0;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

KwlResult ReferenceKwlCompare(const Graph& g, const Graph& h, int k) {
  KwlResult result;
  if (g.NumVertices() != h.NumVertices()) {
    result.distinguishes = true;
    result.distinguishing_round = 0;
    return result;
  }
  const int n = g.NumVertices();
  int64_t tuples = 1;
  for (int i = 0; i < k; ++i) tuples *= n;
  std::vector<int> colors_g(tuples);
  std::vector<int> colors_h(tuples);
  {
    std::map<std::vector<int>, int> type_to_color;
    std::vector<std::vector<int>> types_g(tuples);
    std::vector<std::vector<int>> types_h(tuples);
    std::vector<int> tuple(k);
    for (int64_t t = 0; t < tuples; ++t) {
      ReferenceDecode(t, n, tuple);
      types_g[t] = ReferenceAtomicType(g, tuple);
      types_h[t] = ReferenceAtomicType(h, tuple);
      type_to_color.emplace(types_g[t], 0);
      type_to_color.emplace(types_h[t], 0);
    }
    int next = 0;
    for (auto& [type, color] : type_to_color) color = next++;
    for (int64_t t = 0; t < tuples; ++t) {
      colors_g[t] = type_to_color.at(types_g[t]);
      colors_h[t] = type_to_color.at(types_h[t]);
    }
    result.num_colors = next;
  }
  const auto histograms_differ = [&]() {
    std::vector<int64_t> hist_g(result.num_colors, 0);
    std::vector<int64_t> hist_h(result.num_colors, 0);
    for (int64_t t = 0; t < tuples; ++t) {
      ++hist_g[colors_g[t]];
      ++hist_h[colors_h[t]];
    }
    return hist_g != hist_h;
  };
  if (histograms_differ()) {
    result.distinguishes = true;
    result.distinguishing_round = 0;
    return result;
  }
  using Signature = std::pair<int, std::vector<std::vector<int>>>;
  for (int round = 1; round <= tuples; ++round) {
    std::map<Signature, int> signature_to_color;
    std::vector<Signature> sigs_g(tuples);
    std::vector<Signature> sigs_h(tuples);
    for (int64_t t = 0; t < tuples; ++t) {
      sigs_g[t] = {colors_g[t], ReferenceExtensionMultiset(g, colors_g, t, n, k)};
      sigs_h[t] = {colors_h[t], ReferenceExtensionMultiset(h, colors_h, t, n, k)};
      signature_to_color.emplace(sigs_g[t], 0);
      signature_to_color.emplace(sigs_h[t], 0);
    }
    int next = 0;
    for (auto& [sig, color] : signature_to_color) color = next++;
    const int previous = result.num_colors;
    for (int64_t t = 0; t < tuples; ++t) {
      colors_g[t] = signature_to_color.at(sigs_g[t]);
      colors_h[t] = signature_to_color.at(sigs_h[t]);
    }
    result.num_colors = next;
    if (histograms_differ()) {
      result.distinguishes = true;
      result.distinguishing_round = round;
      return result;
    }
    if (next == previous) {
      result.rounds_to_stable = round;
      return result;
    }
  }
  result.rounds_to_stable = static_cast<int>(tuples);
  return result;
}

Graph RandomLabelled(int n, double p, int labels, Rng& rng) {
  Graph g = graph::ErdosRenyiGnp(n, p, rng);
  for (int v = 0; v < n; ++v) {
    g.SetVertexLabel(v, static_cast<int>(UniformInt(rng, 0, labels - 1)));
  }
  return g;
}

TEST(KwlTest, MatchesMapReferenceFieldForField) {
  Rng rng = MakeRng(46);
  std::vector<std::pair<Graph, Graph>> pairs;
  for (const Graph& base : {Graph::Cycle(3), Graph::Cycle(4), Graph::Cycle(5),
                            Graph::Complete(4)}) {
    CfiPair cfi = BuildCfiPair(base);
    pairs.emplace_back(cfi.untwisted, cfi.twisted);
  }
  pairs.emplace_back(Graph::Cycle(6),
                     DisjointUnion(Graph::Cycle(3), Graph::Cycle(3)));
  pairs.emplace_back(Graph::Path(3), Graph::Path(4));
  pairs.emplace_back(Graph::Cycle(5), Graph::Complete(6));
  pairs.emplace_back(Graph(0), Graph(0));
  pairs.emplace_back(Graph(1), Graph(1));
  for (int i = 0; i < 4; ++i) {
    const Graph g = RandomLabelled(7, 0.45, 1 + i % 2, rng);
    pairs.emplace_back(g, graph::Permuted(g, RandomPermutation(7, rng)));
    pairs.emplace_back(g, RandomLabelled(7, 0.45, 1 + i % 2, rng));
  }
  // Directed: the k >= 2 rows drop w's relation to the tuple, which the
  // substituted tuples' atomic types already hold in both directions.
  Graph directed(6, /*directed=*/true);
  Graph reversed(6, /*directed=*/true);
  for (int v = 0; v < 6; ++v) {
    directed.AddEdge(v, (v + 1) % 6);
    reversed.AddEdge((v + 1) % 6, v);
  }
  directed.AddEdge(0, 3);
  reversed.AddEdge(3, 0);
  pairs.emplace_back(directed, reversed);
  pairs.emplace_back(directed, graph::Permuted(directed, RandomPermutation(6, rng)));

  for (const auto& [g, h] : pairs) {
    for (int k = 1; k <= 3; ++k) {
      const KwlResult expected = ReferenceKwlCompare(g, h, k);
      const KwlResult actual = KwlCompare(g, h, k);
      EXPECT_EQ(actual.distinguishes, expected.distinguishes)
          << g.ToString() << " vs " << h.ToString() << ", k " << k;
      EXPECT_EQ(actual.distinguishing_round, expected.distinguishing_round)
          << g.ToString() << " vs " << h.ToString() << ", k " << k;
      EXPECT_EQ(actual.rounds_to_stable, expected.rounds_to_stable)
          << g.ToString() << " vs " << h.ToString() << ", k " << k;
      EXPECT_EQ(actual.num_colors, expected.num_colors)
          << g.ToString() << " vs " << h.ToString() << ", k " << k;
    }
  }
}

TEST(CfiTest, TrianglePairSeparatedAtDimensionTwo) {
  const CfiPair pair = BuildCfiPair(Graph::Cycle(3));
  EXPECT_EQ(pair.untwisted.NumVertices(), 6);
  EXPECT_EQ(pair.twisted.NumVertices(), 6);
  EXPECT_FALSE(graph::AreIsomorphic(pair.untwisted, pair.twisted));
  EXPECT_TRUE(WlIndistinguishable(pair.untwisted, pair.twisted));
  EXPECT_TRUE(KwlDistinguishes(pair.untwisted, pair.twisted, 2));
}

TEST(CfiTest, GadgetSizesMatchEvenSubsetCounts) {
  const CfiPair pair = BuildCfiPair(graph::Graph::Complete(4));
  // Each K4 vertex has degree 3: 4 even subsets -> 16 gadget vertices.
  EXPECT_EQ(pair.untwisted.NumVertices(), 16);
  EXPECT_EQ(pair.untwisted.NumEdges(), 48);
  EXPECT_FALSE(graph::AreIsomorphic(pair.untwisted, pair.twisted));
}

TEST(UnfoldingTreeTest, SizesOnPath) {
  const Graph p3 = Graph::Path(3);
  const RootedGraph t0 = UnfoldingTree(p3, 1, 0);
  EXPECT_EQ(t0.graph.NumVertices(), 1);
  const RootedGraph t1 = UnfoldingTree(p3, 1, 1);
  EXPECT_EQ(t1.graph.NumVertices(), 3);
  // Depth 2 from the centre: each endpoint child walks back to the centre.
  const RootedGraph t2 = UnfoldingTree(p3, 1, 2);
  EXPECT_EQ(t2.graph.NumVertices(), 5);
  EXPECT_TRUE(graph::IsTree(t2.graph));
}

TEST(UnfoldingTreeTest, StringMatchesWlColorEquality) {
  Rng rng = MakeRng(44);
  const Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  RefinementOptions plain;
  plain.use_vertex_labels = false;
  const RefinementResult r = ColorRefinement(g, plain);
  for (int depth = 0; depth < static_cast<int>(r.round_colors.size());
       ++depth) {
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        const bool same_color =
            r.round_colors[depth][u] == r.round_colors[depth][v];
        const bool same_tree = UnfoldingTreeString(g, u, depth) ==
                               UnfoldingTreeString(g, v, depth);
        EXPECT_EQ(same_color, same_tree)
            << "depth " << depth << " u " << u << " v " << v;
      }
    }
  }
}

TEST(FractionalTest, WitnessIsDoublyStochasticAndCommutes) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  const auto x = FractionalIsomorphism(c6, triangles);
  ASSERT_TRUE(x.has_value());
  for (int i = 0; i < 6; ++i) {
    double row = 0.0;
    double col = 0.0;
    for (int j = 0; j < 6; ++j) {
      row += (*x)(i, j);
      col += (*x)(j, i);
      EXPECT_GE((*x)(i, j), 0.0);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
    EXPECT_NEAR(col, 1.0, 1e-12);
  }
  EXPECT_NEAR(FractionalResidual(c6, triangles, *x), 0.0, 1e-12);
}

TEST(FractionalTest, DistinguishablePairsHaveNoWitness) {
  EXPECT_FALSE(FractionalIsomorphism(Graph::Path(4), Graph::Star(3)).has_value());
  EXPECT_FALSE(AreFractionallyIsomorphic(Graph::Path(3), Graph::Path(4)));
}

TEST(FractionalTest, IsomorphicGraphsAreFractionallyIsomorphic) {
  Rng rng = MakeRng(45);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  EXPECT_TRUE(AreFractionallyIsomorphic(g, p));
  const auto x = FractionalIsomorphism(g, p);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(FractionalResidual(g, p, *x), 0.0, 1e-12);
}

}  // namespace
}  // namespace x2vec::wl
