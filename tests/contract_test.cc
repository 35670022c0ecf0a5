// Contract tests: programmer errors must fail fast and loudly via
// X2VEC_CHECK (the library is exception-free), and boundary inputs must be
// handled deliberately.

#include <string>
#include <vector>

#include "base/rng.h"
#include "graph/graph.h"
#include "graph/graph6.h"
#include "gtest/gtest.h"
#include "hom/tree_hom.h"
#include "linalg/matrix.h"
#include "linalg/rational.h"
#include "ml/validation.h"
#include "wl/cfi.h"

namespace x2vec {
namespace {

using graph::Graph;

TEST(GraphContractTest, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_DEATH(g.AddEdge(0, 0), "self-loops");
  EXPECT_DEATH(g.AddEdge(1, 0), "duplicate edge");
  EXPECT_DEATH(g.AddEdge(0, 7), "bad endpoint");
}

TEST(GraphContractTest, CycleNeedsThreeVertices) {
  EXPECT_DEATH(Graph::Cycle(2), "at least 3");
}

TEST(GraphContractTest, WeightedGraphRejectsIntAdjacency) {
  Graph g(2);
  g.AddEdge(0, 1, 2.5);
  EXPECT_DEATH(g.IntAdjacencyMatrix(), "unweighted");
}

TEST(MatrixContractTest, ShapeMismatchesAbort) {
  linalg::Matrix a(2, 3);
  linalg::Matrix b(2, 3);
  EXPECT_DEATH(a * b, "shape mismatch");
  EXPECT_DEATH(a.Trace(), "");
  const std::vector<double> wrong_length = {1.0, 2.0};
  EXPECT_DEATH(a.Apply(wrong_length), "");
}

TEST(MatrixContractTest, RaggedInitializerAborts) {
  EXPECT_DEATH((linalg::Matrix{{1, 2}, {3}}), "ragged");
}

TEST(RationalContractTest, ZeroDenominatorAndDivision) {
  EXPECT_DEATH(linalg::Rational(1, 0), "zero denominator");
  EXPECT_DEATH(linalg::Rational(1, 2) / linalg::Rational(0),
               "division by zero");
}

TEST(RationalContractTest, OverflowIsFatalNotSilent) {
  const linalg::Rational huge(INT64_MAX / 2, 1);
  EXPECT_DEATH(huge * huge, "overflow");
}

TEST(RngContractTest, AliasTableRejectsBadWeights) {
  EXPECT_DEATH(AliasTable(std::vector<double>{}), "");
  EXPECT_DEATH(AliasTable(std::vector<double>{0.0, 0.0}), "positive total");
  EXPECT_DEATH(AliasTable(std::vector<double>{-1.0, 2.0}), "");
}

TEST(TreeHomContractTest, RequiresTreePattern) {
  EXPECT_DEATH(hom::CountTreeHoms(Graph::Cycle(3), Graph::Complete(3)),
               "tree pattern");
}

TEST(CfiContractTest, RequiresConnectedBase) {
  const Graph disconnected =
      graph::DisjointUnion(Graph::Path(2), Graph::Path(2));
  EXPECT_DEATH(wl::BuildCfiPair(disconnected), "connected");
}

TEST(ValidationContractTest, FoldCountBounds) {
  Rng rng = MakeRng(1);
  std::vector<int> labels = {0, 1};
  EXPECT_DEATH(ml::StratifiedKFold(labels, 1, rng), "");
  EXPECT_DEATH(ml::StratifiedKFold(labels, 5, rng), "");
}

TEST(BoundaryTest, SingleVertexAndEmptyGraphs) {
  // Boundary cases that must work, not die.
  const Graph one(1);
  EXPECT_EQ(static_cast<int64_t>(hom::CountTreeHoms(Graph(1), one)), 1);
  EXPECT_TRUE(graph::IsConnected(Graph(0)));
  EXPECT_EQ(Graph::Path(1).NumEdges(), 0);
  EXPECT_EQ(Graph::Star(0).NumVertices(), 1);
  EXPECT_EQ(graph::ToGraph6(Graph(1)), "@");
  const StatusOr<Graph> decoded = graph::FromGraph6("@");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->NumVertices(), 1);
}

TEST(BoundaryTest, Graph6DecodeIsTypedErrorOrExactRoundTrip) {
  // Every short string for n=2 ("A", 5 padding bits), n=3 ("B", 3) and
  // n=5 ("D", 2 in the second character), over all printable bytes: the
  // decoder either rejects it with kInvalidArgument or returns a graph
  // that re-encodes to exactly the input, so nonzero padding bits must be
  // rejected ("A`" and "A_" would otherwise decode to the same graph).
  std::vector<std::string> inputs;
  for (char body = 32; body < 127; ++body) {
    inputs.push_back(std::string("A") + body);
    inputs.push_back(std::string("B") + body);
    for (char second = 32; second < 127; ++second) {
      inputs.push_back(std::string("D") + body + second);
    }
  }
  int accepted = 0;
  for (const std::string& encoded : inputs) {
    const StatusOr<Graph> decoded = graph::FromGraph6(encoded);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << encoded;
      continue;
    }
    ++accepted;
    EXPECT_EQ(graph::ToGraph6(*decoded), encoded);
  }
  // One string per graph: 2^1 + 2^3 + 2^10 labelled graphs.
  EXPECT_EQ(accepted, 2 + 8 + 1024);
}

}  // namespace
}  // namespace x2vec
