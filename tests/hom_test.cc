#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "graph/enumeration.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "hom/brute_force.h"
#include "hom/embeddings.h"
#include "hom/indistinguishability.h"
#include "hom/path_cycle.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"
#include "wl/color_refinement.h"

namespace x2vec::hom {
namespace {

using graph::DisjointUnion;
using graph::Graph;

int64_t ToInt64(__int128 x) { return static_cast<int64_t>(x); }

TEST(BruteForceTest, EdgeIntoCompleteGraph) {
  // hom(K2, K_n) = n(n-1).
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Path(2), Graph::Complete(4)),
            12);
}

TEST(BruteForceTest, StarFormula) {
  // Example 4.1: hom(S_k, G) = sum_v deg(v)^k.
  Rng rng = MakeRng(51);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  for (int k = 1; k <= 3; ++k) {
    int64_t expected = 0;
    for (int v = 0; v < 7; ++v) {
      int64_t power = 1;
      for (int i = 0; i < k; ++i) power *= g.Degree(v);
      expected += power;
    }
    EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Star(k), g), expected)
        << "k=" << k;
  }
}

TEST(BruteForceTest, OddCycleIntoBipartiteIsZero) {
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Cycle(3),
                                         Graph::CompleteBipartite(2, 3)),
            0);
}

TEST(BruteForceTest, RootedCountsSumToTotal) {
  Rng rng = MakeRng(52);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph f = Graph::Path(4);
  int64_t total = 0;
  for (int v = 0; v < 6; ++v) {
    total += CountRootedHomomorphismsBruteForce(f, 0, g, v);
  }
  EXPECT_EQ(total, CountHomomorphismsBruteForce(f, g));
}

TEST(BruteForceTest, EmbeddingsOfPathIntoTriangle) {
  // Injective maps of P3 into K3: 3! = 6.
  EXPECT_EQ(CountEmbeddingsBruteForce(Graph::Path(3), Graph::Complete(3)), 6);
  // But homomorphisms include the folding walks: 2 edges * ... = 12.
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Path(3), Graph::Complete(3)),
            12);
}

TEST(BruteForceTest, EpimorphismDecomposition) {
  // Theorem 4.2's identity hom(F, F') = sum_{F''} epi(F, F'') *
  // emb(F'', F') / aut(F'') — spot check: hom(P3, P2).
  const Graph p3 = Graph::Path(3);
  const Graph p2 = Graph::Path(2);
  // P3 -> P2 maps fold the path onto the edge: hom = 2.
  EXPECT_EQ(CountHomomorphismsBruteForce(p3, p2), 2);
  EXPECT_EQ(CountEpimorphismsBruteForce(p3, p2), 2);
  // Images of P3 in P2 can only be P2 itself.
  EXPECT_EQ(CountEmbeddingsBruteForce(p2, p2), 2);
  EXPECT_EQ(graph::CountAutomorphisms(p2), 2);
  // hom = epi(P3,P2) * emb(P2,P2) / aut(P2) = 2 * 2 / 2 = 2.
}

TEST(BruteForceTest, LabelsRestrictHoms) {
  Graph f = Graph::Path(2);
  f.SetVertexLabel(0, 1);
  Graph g = Graph::Path(3);
  g.SetVertexLabel(1, 1);
  // Only maps sending f's labelled end to g's centre: 2 homs.
  EXPECT_EQ(CountHomomorphismsBruteForce(f, g), 2);
}

TEST(TreeHomTest, MatchesBruteForceOnRandomTrees) {
  Rng rng = MakeRng(53);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph tree = graph::RandomTree(2 + trial % 5, rng);
    const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
    EXPECT_EQ(ToInt64(CountTreeHoms(tree, g)),
              CountHomomorphismsBruteForce(tree, g))
        << "trial " << trial;
  }
}

TEST(TreeHomTest, RootedVectorMatchesBruteForce) {
  Rng rng = MakeRng(54);
  const Graph tree = graph::RandomTree(5, rng);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const std::vector<__int128> rooted = RootedTreeHomVector(tree, 2, g);
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(ToInt64(rooted[v]),
              CountRootedHomomorphismsBruteForce(tree, 2, g, v));
  }
}

TEST(TreeHomTest, DoubleVariantAgrees) {
  Rng rng = MakeRng(55);
  const Graph tree = graph::RandomTree(6, rng);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  EXPECT_DOUBLE_EQ(CountTreeHomsDouble(tree, g),
                   static_cast<double>(ToInt64(CountTreeHoms(tree, g))));
}

TEST(TreeHomTest, WeightedReducesToCountOnUnitWeights) {
  Rng rng = MakeRng(56);
  const Graph tree = graph::RandomTree(4, rng);
  const Graph g = graph::ErdosRenyiGnp(6, 0.6, rng);
  EXPECT_DOUBLE_EQ(WeightedTreeHom(tree, g),
                   static_cast<double>(ToInt64(CountTreeHoms(tree, g))));
}

TEST(TreeHomTest, WeightedMatchesBruteForce) {
  Rng rng = MakeRng(57);
  Graph g(5);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      if (Coin(rng, 0.6)) {
        g.AddEdge(u, v, static_cast<double>(UniformInt(rng, 1, 3)));
      }
    }
  }
  const Graph tree = Graph::Path(4);
  EXPECT_NEAR(WeightedTreeHom(tree, g), WeightedHomomorphismBruteForce(tree, g),
              1e-9);
}

TEST(TreeHomTest, ForestMultiplicativity) {
  Rng rng = MakeRng(58);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph forest = DisjointUnion(Graph::Path(3), Graph::Star(2));
  EXPECT_EQ(ToInt64(CountForestHoms(forest, g)),
            ToInt64(CountTreeHoms(Graph::Path(3), g)) *
                ToInt64(CountTreeHoms(Graph::Star(2), g)));
  EXPECT_EQ(ToInt64(CountForestHoms(forest, g)),
            CountHomomorphismsBruteForce(forest, g));
}

TEST(PathCycleTest, PathHomsMatchBruteForce) {
  Rng rng = MakeRng(59);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  for (int k = 1; k <= 5; ++k) {
    EXPECT_EQ(ToInt64(CountPathHoms(k, g)),
              CountHomomorphismsBruteForce(Graph::Path(k), g))
        << "k=" << k;
  }
}

TEST(PathCycleTest, CycleHomsMatchBruteForce) {
  Rng rng = MakeRng(60);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(CountCycleHoms(k, g)),
              CountHomomorphismsBruteForce(Graph::Cycle(k), g))
        << "k=" << k;
  }
}

TEST(PathCycleTest, VectorsMatchScalars) {
  Rng rng = MakeRng(61);
  const Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
  const std::vector<__int128> paths = PathHomVector(g, 6);
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(paths[k - 1]), ToInt64(CountPathHoms(k, g)));
  }
  const std::vector<__int128> cycles = CycleHomVector(g, 6);
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(cycles[k - 3]), ToInt64(CountCycleHoms(k, g)));
  }
}

TEST(PathCycleTest, LabelledTracesMatchExactCycleVector) {
  Rng rng = MakeRng(62);
  const Graph g = graph::ErdosRenyiGnp(9, 0.5, rng);
  const std::vector<__int128> exact = CycleHomVector(g, 10);
  const std::vector<int64_t> traces = LabelledCycleTraces(g, 0, 0, 10);
  ASSERT_EQ(traces.size(), exact.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i], ToInt64(exact[i])) << "k=" << i + 3;
  }
  // K_60: tr(A^9) = 59^9 - 59 is below 2^53, tr(A^10) = 59^10 + 59 is not.
  const std::vector<int64_t> dense =
      LabelledCycleTraces(Graph::Complete(60), 0, 0, 12);
  EXPECT_EQ(dense[9 - 3], ToInt64(CountCycleHoms(9, Graph::Complete(60))));
  for (int k = 10; k <= 12; ++k) EXPECT_EQ(dense[k - 3], -1) << "k=" << k;
}

TEST(TreewidthTest, KnownWidths) {
  EXPECT_EQ(ExactTreewidth(Graph::Path(6), nullptr), 1);
  EXPECT_EQ(ExactTreewidth(Graph::Star(5), nullptr), 1);
  EXPECT_EQ(ExactTreewidth(Graph::Cycle(6), nullptr), 2);
  EXPECT_EQ(ExactTreewidth(Graph::Complete(4), nullptr), 3);
  EXPECT_EQ(ExactTreewidth(Graph::Grid(2, 3), nullptr), 2);
  EXPECT_EQ(ExactTreewidth(Graph::CompleteBipartite(3, 3), nullptr), 3);
}

TEST(TreewidthTest, MinFillIsOptimalOnEasyPatterns) {
  for (const Graph& f :
       {Graph::Path(5), Graph::Cycle(5), Graph::Complete(4)}) {
    const std::vector<int> order = MinFillEliminationOrder(f);
    EXPECT_EQ(WidthOfEliminationOrder(f, order),
              ExactTreewidth(f, nullptr));
  }
}

TEST(EliminationTest, MatchesBruteForceOnPatternZoo) {
  Rng rng = MakeRng(62);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const std::vector<Graph> patterns = {
      Graph::Path(4),  Graph::Cycle(4),          Graph::Cycle(5),
      Graph::Star(3),  Graph::Complete(3),       Graph::Complete(4),
      Graph::Grid(2, 2), Graph::CompleteBipartite(2, 2),
  };
  for (const Graph& f : patterns) {
    EXPECT_EQ(ToInt64(CountHoms(f, g)), CountHomomorphismsBruteForce(f, g))
        << f.ToString();
  }
}

TEST(EliminationTest, DisconnectedPatternsMultiply) {
  Rng rng = MakeRng(63);
  const Graph g = graph::ErdosRenyiGnp(5, 0.6, rng);
  const Graph f = DisjointUnion(Graph::Cycle(3), Graph::Path(2));
  EXPECT_EQ(ToInt64(CountHoms(f, g)),
            ToInt64(CountHoms(Graph::Cycle(3), g)) *
                ToInt64(CountHoms(Graph::Path(2), g)));
}

TEST(EliminationTest, RespectsVertexLabels) {
  Graph f = Graph::Path(2);
  f.SetVertexLabel(0, 1);
  Graph g = Graph::Path(3);
  g.SetVertexLabel(1, 1);
  EXPECT_EQ(ToInt64(CountHoms(f, g)), 2);
}

TEST(EliminationTest, DoubleVariantAgrees) {
  Rng rng = MakeRng(64);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph f = Graph::Cycle(5);
  EXPECT_DOUBLE_EQ(CountHomsDouble(f, g),
                   static_cast<double>(ToInt64(CountHoms(f, g))));
}

// --- The indistinguishability ladder on the paper's key pairs. ---

TEST(IndistinguishabilityTest, CospectralPairOfFigure6) {
  // Figure 6 / Example 4.7: K_{1,4} and C_4 + K_1 are co-spectral but
  // hom(P_3, .) = 20 vs 16.
  const Graph star = Graph::Star(4);
  const Graph cycle_plus = DisjointUnion(Graph::Cycle(4), Graph(1));
  EXPECT_EQ(ToInt64(CountPathHoms(3, star)), 20);
  EXPECT_EQ(ToInt64(CountPathHoms(3, cycle_plus)), 16);
  EXPECT_TRUE(HomIndistinguishableCycles(star, cycle_plus));
  EXPECT_FALSE(HomIndistinguishablePaths(star, cycle_plus));
  EXPECT_FALSE(HomIndistinguishableTrees(star, cycle_plus));
  EXPECT_FALSE(HomIndistinguishableAllGraphs(star, cycle_plus));
}

TEST(IndistinguishabilityTest, C6VersusTrianglesLadder) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_TRUE(HomIndistinguishableTrees(c6, triangles));
  EXPECT_TRUE(HomIndistinguishablePaths(c6, triangles));
  EXPECT_FALSE(HomIndistinguishableCycles(c6, triangles));
  EXPECT_FALSE(HomIndistinguishableAllGraphs(c6, triangles));
}

TEST(IndistinguishabilityTest, TheoremFourFourOnSmallGraphs) {
  // Hom_T equality (trees up to 6 vertices) coincides with 1-WL on all
  // pairs of 5-vertex graphs.
  const std::vector<Graph> graphs = graph::AllGraphs(5);
  int checked = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = i + 1; j < graphs.size(); ++j) {
      const bool wl = wl::WlIndistinguishable(graphs[i], graphs[j]);
      const bool trees = TreeHomVectorsEqual(graphs[i], graphs[j], 6);
      EXPECT_EQ(wl, trees) << "pair " << i << "," << j;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 34 * 33 / 2);
}

TEST(IndistinguishabilityTest, TheoremFourSixOnRandomPairs) {
  // The exact path decider agrees with truncated path-hom vectors at
  // length n + m (sufficient by Cayley–Hamilton).
  Rng rng = MakeRng(65);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(5, 0.5, rng);
    const Graph h = graph::ErdosRenyiGnp(5, 0.5, rng);
    EXPECT_EQ(HomIndistinguishablePaths(g, h),
              PathHomVectorsEqual(g, h, 10))
        << "trial " << trial;
  }
}

TEST(IndistinguishabilityTest, IsomorphicPairsPassEverything) {
  Rng rng = MakeRng(66);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph h = graph::Permuted(g, RandomPermutation(7, rng));
  EXPECT_TRUE(HomIndistinguishableTrees(g, h));
  EXPECT_TRUE(HomIndistinguishablePaths(g, h));
  EXPECT_TRUE(HomIndistinguishableCycles(g, h));
  EXPECT_TRUE(HomIndistinguishableAllGraphs(g, h));
}

TEST(IndistinguishabilityTest, WeightedTreeVectorsOnIsomorphicWeighted) {
  Rng rng = MakeRng(67);
  Graph g(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      if (Coin(rng, 0.5)) {
        g.AddEdge(u, v, static_cast<double>(UniformInt(rng, 1, 4)));
      }
    }
  }
  const Graph h = graph::Permuted(g, RandomPermutation(6, rng));
  EXPECT_TRUE(WeightedTreeHomVectorsEqual(g, h, 5));
  // Change one weight: some tree partition function must move.
  Graph damaged = g;
  // Rebuild with one modified weight.
  Graph modified(6);
  bool changed = false;
  for (const graph::Edge& e : g.Edges()) {
    double w = e.weight;
    if (!changed) {
      w += 1.0;
      changed = true;
    }
    modified.AddEdge(e.u, e.v, w);
  }
  ASSERT_TRUE(changed);
  EXPECT_FALSE(WeightedTreeHomVectorsEqual(g, modified, 5));
}

TEST(EmbeddingsTest, DefaultFamilyShape) {
  const std::vector<Pattern> family = DefaultPatternFamily(20);
  EXPECT_EQ(family.size(), 20u);
  int trees = 0;
  int cycles = 0;
  for (const Pattern& p : family) {
    if (graph::IsTree(p.graph)) {
      ++trees;
    } else {
      ++cycles;
    }
  }
  EXPECT_GT(trees, 5);
  EXPECT_GT(cycles, 5);
}

TEST(EmbeddingsTest, LogScaledVectorIsFiniteAndInvariant) {
  Rng rng = MakeRng(68);
  const Graph g = graph::ErdosRenyiGnp(10, 0.4, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(10, rng));
  const std::vector<Pattern> family = DefaultPatternFamily(20);
  const std::vector<double> vg = LogScaledHomVector(g, family);
  const std::vector<double> vp = LogScaledHomVector(p, family);
  ASSERT_EQ(vg.size(), 20u);
  for (size_t i = 0; i < vg.size(); ++i) {
    EXPECT_TRUE(std::isfinite(vg[i]));
    EXPECT_NEAR(vg[i], vp[i], 1e-9);
  }
}

// Bit patterns, so that a 2^53 fallback's rounding is compared too.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

TEST(EmbeddingsTest, HomVectorMatchesEliminationBitForBit) {
  // The default family plus labelled cycles (fast path), a cycle with mixed
  // vertex labels and two disjoint triangles (both eliminated).
  std::vector<Pattern> patterns = DefaultPatternFamily(24);
  Graph labelled_cycle = Graph::Cycle(5);
  for (int v = 0; v < 5; ++v) labelled_cycle.SetVertexLabel(v, 1);
  patterns.push_back({labelled_cycle, "C5@1"});
  Graph edge_labelled_cycle(4);
  for (int v = 0; v < 4; ++v) {
    edge_labelled_cycle.AddEdge(v, (v + 1) % 4, 1.0, /*label=*/2);
  }
  patterns.push_back({edge_labelled_cycle, "C4/2"});
  Graph mixed_cycle = Graph::Cycle(6);
  mixed_cycle.SetVertexLabel(0, 1);
  patterns.push_back({mixed_cycle, "C6 mixed"});
  patterns.push_back(
      {DisjointUnion(Graph::Cycle(3), Graph::Cycle(3)), "2xC3"});

  Rng rng = MakeRng(69);
  std::vector<Graph> graphs;
  Graph vertex_labelled = graph::ErdosRenyiGnp(14, 0.5, rng);
  for (int v = 0; v < 14; ++v) {
    vertex_labelled.SetVertexLabel(v, static_cast<int>(UniformInt(rng, 0, 1)));
  }
  graphs.push_back(std::move(vertex_labelled));
  Graph edge_labelled(12);
  Graph weighted(12);
  for (int u = 0; u < 12; ++u) {
    for (int v = u + 1; v < 12; ++v) {
      if (UniformInt(rng, 0, 1) == 0) continue;
      edge_labelled.AddEdge(u, v, 1.0, static_cast<int>(UniformInt(rng, 0, 2)));
      weighted.AddEdge(u, v, 0.5 + UniformInt(rng, 0, 3));
    }
  }
  graphs.push_back(std::move(edge_labelled));
  graphs.push_back(std::move(weighted));
  graphs.push_back(Graph::Complete(60));  // C10..C12 need the fallback.

  for (const Graph& g : graphs) {
    std::vector<double> expected;
    for (const Pattern& p : patterns) {
      expected.push_back(graph::IsTree(p.graph)
                             ? CountTreeHomsDouble(p.graph, g)
                             : CountHomsDouble(p.graph, g));
    }
    EXPECT_EQ(Bits(HomVector(g, patterns)), Bits(expected)) << g.ToString();
  }
}

TEST(EmbeddingsTest, RootedTreesDeduplicateRootOrbits) {
  // P3 has 2 root orbits (end, centre); P2 has 1; single vertex has 1.
  const std::vector<RootedPattern> patterns = RootedTreesUpTo(3);
  EXPECT_EQ(patterns.size(), 1u + 1u + 2u);
}

TEST(EmbeddingsTest, NodeKernelIsPsdWithWlBlockStructure) {
  const Graph p5 = Graph::Path(5);
  const linalg::Matrix k = RootedHomNodeKernel(p5, RootedTreesUpTo(4));
  // PSD (Gram of explicit features) and WL-equal vertices give equal rows.
  EXPECT_TRUE(k.AllClose(k.Transposed(), 1e-12));
  EXPECT_DOUBLE_EQ(k(0, 0), k(4, 4));
  EXPECT_DOUBLE_EQ(k(0, 2), k(4, 2));
  EXPECT_NE(k(0, 0), k(2, 2));
}

TEST(EmbeddingsTest, NodeEmbeddingSeparatesWlClasses) {
  // Theorem 4.14 in action on P5: rows agree exactly for vertices with the
  // same stable WL colour and differ otherwise.
  const Graph p5 = Graph::Path(5);
  const linalg::Matrix emb =
      RootedHomNodeEmbedding(p5, RootedTreesUpTo(5));
  const std::vector<int> colors =
      wl::ColorRefinement(p5).StableColors();
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      const double diff =
          linalg::Distance2(emb.Row(u), emb.Row(v));
      if (colors[u] == colors[v]) {
        EXPECT_NEAR(diff, 0.0, 1e-12) << u << "," << v;
      } else {
        EXPECT_GT(diff, 1e-9) << u << "," << v;
      }
    }
  }
}

}  // namespace
}  // namespace x2vec::hom
