// Hand-computed cases for the reference code and the order statistics:
// `x2vec_perfbench --self-test` exits 0 only when every case holds.

#include <cstdio>
#include <string>

#include "common.h"
#include "reference.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test failed: %s\n", what.c_str());
  }
}

ref::Adjacency Complete(int n) {
  ref::Adjacency g(static_cast<size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v) g[static_cast<size_t>(u)].push_back(v);
    }
  }
  return g;
}

ref::Adjacency Path(int n) {
  ref::Adjacency g(static_cast<size_t>(n));
  for (int v = 0; v + 1 < n; ++v) {
    g[static_cast<size_t>(v)].push_back(v + 1);
    g[static_cast<size_t>(v) + 1].push_back(v);
  }
  return g;
}

ref::Adjacency Cycle(int n) {
  ref::Adjacency g = Path(n);
  g[0].push_back(n - 1);
  g[static_cast<size_t>(n) - 1].push_back(0);
  return g;
}

ref::Adjacency Star(int leaves) {
  ref::Adjacency g(static_cast<size_t>(leaves) + 1);
  for (int v = 1; v <= leaves; ++v) {
    g[0].push_back(v);
    g[static_cast<size_t>(v)].push_back(0);
  }
  return g;
}

void HomCounts() {
  const ref::Adjacency k3 = Complete(3);
  Expect(ref::CycleHoms(k3, 3) == 6, "hom(C3, K3) = 6");
  // Eigenvalues of K3 are 2, -1, -1: tr A^4 = 16 + 1 + 1.
  Expect(ref::CycleHoms(k3, 4) == 18, "hom(C4, K3) = 18");
  // Eigenvalues of C4 are 2, 0, 0, -2: tr A^4 = 16 + 16.
  Expect(ref::CycleHoms(Cycle(4), 4) == 32, "hom(C4, C4) = 32");
  Expect(ref::CycleHoms(Path(3), 3) == 0, "hom(C3, P3) = 0 (bipartite)");
  Expect(ref::PathHoms(k3, 1) == 3, "hom(P1, K3) = 3");
  Expect(ref::PathHoms(k3, 2) == 6, "hom(P2, K3) = 6");
  Expect(ref::PathHoms(k3, 3) == 12, "hom(P3, K3) = 3 * 2 * 2");
  Expect(ref::PathHoms(Path(3), 3) == 6, "hom(P3, P3) = 1 + 4 + 1");
  Expect(ref::TreeHoms(Path(3), k3) == 12, "tree DP agrees on hom(P3, K3)");
  // hom(S_leaves, G) = sum over v of deg(v)^leaves.
  Expect(ref::TreeHoms(Star(3), k3) == 24, "hom(S3, K3) = 3 * 2^3");
  Expect(ref::TreeHoms(Star(2), Path(3)) == 6, "hom(S2, P3) = 1 + 4 + 1");
  Expect(ref::TreeHoms(Path(4), Cycle(5)) == ref::PathHoms(Cycle(5), 4),
         "tree DP equals 1^T A^3 1 on C5");
}

void Walks() {
  // Triangle 0-1-2 with a pendant 3 on vertex 2.
  const ref::Adjacency g = {{1, 2}, {0, 2}, {0, 1, 3}, {2}};
  Expect(ref::ValidateWalk(g, {0, 1, 2, 3, 2}, 5).empty(), "valid walk");
  Expect(!ref::ValidateWalk(g, {0, 1, 3}, 3).empty(), "1 -> 3 is no edge");
  Expect(!ref::ValidateWalk(g, {0, 1}, 3).empty(), "short walk rejected");
  Expect(!ref::ValidateWalk(g, {0, 4}, 2).empty(), "out-of-range vertex");

  ref::PlantedPartition planted;
  planted.n = 60;
  planted.blocks = 6;
  planted.edges = 300;
  planted.in_block = 1.0;
  planted.skew = 2.0;
  planted.seed = 5;
  bool ok = true;
  for (int64_t i = 0; i < planted.edges; ++i) {
    const auto [u, v] = planted.Edge(i);
    ok = ok && u != v && u >= 0 && v >= 0 && u < 60 && v < 60 &&
         planted.Block(u) == planted.Block(v) &&
         planted.Edge(i) == planted.Edge(i);
    if (i < planted.n) ok = ok && u == i;
  }
  Expect(ok, "planted edges: in range, no loops, in-block, regenerable");
}

void Ranking() {
  // Rows (1,0), (0,1), (1,1), (2,0); query (1,0).
  const std::vector<double> rows = {1, 0, 0, 1, 1, 1, 2, 0};
  const std::vector<ref::Hit> top = ref::CosineTopK(rows, 4, 2, {1, 0}, 3, {});
  Expect(top.size() == 3 && top[0].id == 0 && top[1].id == 3 &&
             top[2].id == 2,
         "ties at cosine 1 break on ascending id");
  const std::vector<ref::Hit> excluded =
      ref::CosineTopK(rows, 4, 2, {1, 0}, 3, {0});
  Expect(excluded.size() == 3 && excluded[0].id == 3 &&
             excluded[1].id == 2 && excluded[2].id == 1 &&
             excluded[2].score == 0.0,
         "excluded ids never ranked");
  Expect(ref::SameBlockRate({1, 0, 0, 1, 1, 0, 0, 1}, 4, 2, 2) == 1.0,
         "same-block rate 1 when blocks are orthogonal");
  Expect(ref::CheckCauchySchwarz({1, 0.5, 0.5, 1}, 2).empty(),
         "PSD 2x2 passes Cauchy-Schwarz");
  Expect(!ref::CheckCauchySchwarz({1, 2, 2, 1}, 2).empty(),
         "K12^2 > K11 K22 is caught");
}

void Statistics() {
  Expect(Median({3, 1, 2}) == 2.0, "median of three");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of four");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(Percentile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  Expect(Percentile({7, 9}, 0.99) == 9.0, "p99 of two is the max");
  Expect(P99OrMedian({4, 1, 3, 2}) == 2.0, "no tail below 1000 samples");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Expect(P99OrMedian(thousand) == 990.0, "p99 with ten samples beyond");
}

}  // namespace

int RunSelfTest() {
  HomCounts();
  Walks();
  Ranking();
  Statistics();
  if (failures == 0) std::fprintf(stderr, "self-test: all cases hold\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
