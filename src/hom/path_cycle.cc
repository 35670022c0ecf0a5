#include "hom/path_cycle.h"

namespace x2vec::hom {

using linalg::IntMatrix;

namespace {

// Integers at or above this bound are not all exact doubles.
constexpr int64_t kExactDoubleBound = int64_t{1} << 53;

}  // namespace

__int128 CountPathHoms(int k, const graph::Graph& g) {
  X2VEC_CHECK_GE(k, 1);
  if (g.NumVertices() == 0) return 0;
  IntMatrix power = IntMatrix::Identity(g.NumVertices());
  const IntMatrix a = g.IntAdjacencyMatrix();
  for (int step = 0; step < k - 1; ++step) power = power.Multiply(a);
  return power.Sum();
}

__int128 CountCycleHoms(int k, const graph::Graph& g) {
  X2VEC_CHECK_GE(k, 3);
  if (g.NumVertices() == 0) return 0;
  const IntMatrix a = g.IntAdjacencyMatrix();
  IntMatrix power = a;
  for (int step = 1; step < k; ++step) power = power.Multiply(a);
  return power.Trace();
}

std::vector<__int128> PathHomVector(const graph::Graph& g, int max_k) {
  X2VEC_CHECK_GE(max_k, 1);
  std::vector<__int128> out;
  out.reserve(max_k);
  if (g.NumVertices() == 0) {
    out.assign(max_k, 0);
    return out;
  }
  const IntMatrix a = g.IntAdjacencyMatrix();
  IntMatrix power = IntMatrix::Identity(g.NumVertices());
  out.push_back(power.Sum());  // hom(P_1, G) = n.
  for (int k = 2; k <= max_k; ++k) {
    power = power.Multiply(a);
    out.push_back(power.Sum());
  }
  return out;
}

std::vector<__int128> CycleHomVector(const graph::Graph& g, int max_k) {
  X2VEC_CHECK_GE(max_k, 3);
  std::vector<__int128> out;
  out.reserve(max_k - 2);
  if (g.NumVertices() == 0) {
    out.assign(max_k - 2, 0);
    return out;
  }
  const IntMatrix a = g.IntAdjacencyMatrix();
  IntMatrix power = a.Multiply(a);
  for (int k = 3; k <= max_k; ++k) {
    power = power.Multiply(a);
    out.push_back(power.Trace());
  }
  return out;
}

std::vector<int64_t> LabelledCycleTraces(const graph::Graph& g,
                                         int vertex_label, int edge_label,
                                         int max_k) {
  X2VEC_CHECK(!g.directed());
  X2VEC_CHECK_GE(max_k, 3);
  // B over the kept vertices, renumbered 0..m-1, as neighbour lists.
  std::vector<int> id(g.NumVertices(), -1);
  int m = 0;
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (g.VertexLabel(v) == vertex_label) id[v] = m++;
  }
  std::vector<std::vector<int>> neighbors(m);
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (id[v] < 0) continue;
    for (const graph::Neighbor& nb : g.Neighbors(v)) {
      if (nb.label == edge_label && id[nb.to] >= 0) {
        neighbors[id[v]].push_back(id[nb.to]);
      }
    }
  }
  // power = B^j, dense row-major, starting from B^0 = I. Each entry stays
  // below the bound, so a sum of such entries that crosses it is caught
  // before it can overflow.
  const size_t mm = static_cast<size_t>(m);
  std::vector<int64_t> power(mm * mm, 0);
  std::vector<int64_t> next(mm * mm);
  for (size_t x = 0; x < mm; ++x) power[x * mm + x] = 1;
  std::vector<int64_t> out(max_k - 2, -1);
  for (int j = 1; j <= max_k; ++j) {
    // (B^{j-1} B)[x][y] = sum over the neighbours w of y of B^{j-1}[x][w].
    for (size_t x = 0; x < mm; ++x) {
      for (size_t y = 0; y < mm; ++y) {
        int64_t entry = 0;
        for (const int w : neighbors[y]) {
          entry += power[x * mm + w];
          if (entry >= kExactDoubleBound) return out;
        }
        next[x * mm + y] = entry;
      }
    }
    power.swap(next);
    if (j < 3) continue;
    int64_t trace = 0;
    for (size_t x = 0; x < mm; ++x) {
      trace += power[x * mm + x];
      if (trace >= kExactDoubleBound) return out;
    }
    out[j - 3] = trace;
  }
  return out;
}

}  // namespace x2vec::hom
