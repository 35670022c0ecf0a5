#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench::ref {

namespace {

Count Add(Count a, Count b) {
  Count sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    std::fprintf(stderr, "reference hom count overflows 127 bits\n");
    std::abort();
  }
  return sum;
}

Count Mul(Count a, Count b) {
  Count product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    std::fprintf(stderr, "reference hom count overflows 127 bits\n");
    std::abort();
  }
  return product;
}

// y = A x over the adjacency lists (repeated entries count twice).
std::vector<Count> Step(const Adjacency& g, const std::vector<Count>& x) {
  std::vector<Count> y(g.size(), 0);
  for (size_t v = 0; v < g.size(); ++v) {
    for (int u : g[v]) y[v] = Add(y[v], x[static_cast<size_t>(u)]);
  }
  return y;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::pair<int, int> PlantedPartition::Edge(int64_t i) const {
  Draws draws(seed, static_cast<uint64_t>(i));
  int64_t u = i % n;
  if (i >= n && skew > 0.0) {
    // Quantile x of the skewed start distribution, fixed by i alone, so the
    // start-side degrees (and the hubs) are the same for every seed.
    const double x = (static_cast<double>(i - n) + 0.5) /
                     static_cast<double>(edges - n);
    u = std::min<int64_t>(n - 1, static_cast<int64_t>(static_cast<double>(n) *
                                                      std::pow(x, skew)));
  }
  int64_t v = 0;
  if (draws.Uniform() < in_block) {
    const int64_t per_block = n / blocks;
    v = Block(static_cast<int>(u)) + blocks * draws.Below(per_block);
  } else {
    v = draws.Below(n);
  }
  if (v == u) v = (u + blocks) % n;  // Same block, never a self-loop.
  return {static_cast<int>(u), static_cast<int>(v)};
}

Adjacency AdjacencyOf(const PlantedPartition& graph) {
  Adjacency adjacency(static_cast<size_t>(graph.n));
  for (int64_t i = 0; i < graph.edges; ++i) {
    const auto [u, v] = graph.Edge(i);
    adjacency[static_cast<size_t>(u)].push_back(v);
    adjacency[static_cast<size_t>(v)].push_back(u);
  }
  for (std::vector<int>& list : adjacency) std::sort(list.begin(), list.end());
  return adjacency;
}

std::string ValidateWalk(const Adjacency& adjacency,
                         const std::vector<int>& walk, int length) {
  if (static_cast<int>(walk.size()) != length) {
    return "walk has " + std::to_string(walk.size()) + " vertices, expected " +
           std::to_string(length);
  }
  for (size_t t = 0; t < walk.size(); ++t) {
    const int v = walk[t];
    if (v < 0 || v >= static_cast<int>(adjacency.size())) {
      return "vertex " + std::to_string(v) + " out of range";
    }
    if (t == 0) continue;
    const std::vector<int>& list = adjacency[static_cast<size_t>(walk[t - 1])];
    if (!std::binary_search(list.begin(), list.end(), v)) {
      return "step " + std::to_string(walk[t - 1]) + " -> " +
             std::to_string(v) + " is not an edge";
    }
  }
  return "";
}

double Cosine(const double* a, const double* b, int dim) {
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (int j = 0; j < dim; ++j) {
    dot += a[j] * b[j];
    norm_a += a[j] * a[j];
    norm_b += b[j] * b[j];
  }
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double SameBlockRate(const std::vector<double>& rows, int n, int dim,
                     int blocks) {
  std::vector<double> unit(rows.size(), 0.0);
  for (int v = 0; v < n; ++v) {
    const double* row = rows.data() + static_cast<size_t>(v) * dim;
    double norm = 0.0;
    for (int j = 0; j < dim; ++j) norm += row[j] * row[j];
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    for (int j = 0; j < dim; ++j) {
      unit[static_cast<size_t>(v) * dim + j] = row[j] / norm;
    }
  }
  int same = 0;
  for (int v = 0; v < n; ++v) {
    const double* row_v = unit.data() + static_cast<size_t>(v) * dim;
    int best = -1;
    double best_score = -2.0;
    for (int u = 0; u < n; ++u) {
      if (u == v) continue;
      const double* row_u = unit.data() + static_cast<size_t>(u) * dim;
      double score = 0.0;
      for (int j = 0; j < dim; ++j) score += row_v[j] * row_u[j];
      if (score > best_score) {
        best_score = score;
        best = u;
      }
    }
    if (best >= 0 && best % blocks == v % blocks) ++same;
  }
  return static_cast<double>(same) / n;
}

Count PathHoms(const Adjacency& g, int k) {
  std::vector<Count> x(g.size(), 1);
  for (int step = 1; step < k; ++step) x = Step(g, x);
  Count total = 0;
  for (Count value : x) total = Add(total, value);
  return total;
}

Count CycleHoms(const Adjacency& g, int k) {
  Count trace = 0;
  for (size_t v = 0; v < g.size(); ++v) {
    std::vector<Count> x(g.size(), 0);
    x[v] = 1;
    for (int step = 0; step < k; ++step) x = Step(g, x);
    trace = Add(trace, x[v]);
  }
  return trace;
}

Count TreeHoms(const Adjacency& tree, const Adjacency& g) {
  // Root at 0; order vertices so that every child follows its parent.
  const size_t t = tree.size();
  std::vector<int> parent(t, -1);
  std::vector<int> order = {0};
  std::vector<bool> seen(t, false);
  seen[0] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    for (int c : tree[static_cast<size_t>(order[i])]) {
      if (!seen[static_cast<size_t>(c)]) {
        seen[static_cast<size_t>(c)] = true;
        parent[static_cast<size_t>(c)] = order[i];
        order.push_back(c);
      }
    }
  }
  // f[x][v]: homs of the subtree below x with x mapped to v.
  std::vector<std::vector<Count>> f(t, std::vector<Count>(g.size(), 1));
  for (size_t i = order.size(); i-- > 1;) {
    const int child = order[i];
    const std::vector<Count> lifted = Step(g, f[static_cast<size_t>(child)]);
    std::vector<Count>& up =
        f[static_cast<size_t>(parent[static_cast<size_t>(child)])];
    for (size_t v = 0; v < g.size(); ++v) up[v] = Mul(up[v], lifted[v]);
  }
  Count total = 0;
  for (Count value : f[0]) total = Add(total, value);
  return total;
}

std::vector<Hit> CosineTopK(const std::vector<double>& rows, int n, int dim,
                            const std::vector<double>& query, int k,
                            const std::vector<int>& excludes) {
  std::vector<Hit> hits;
  for (int id = 0; id < n; ++id) {
    if (std::find(excludes.begin(), excludes.end(), id) != excludes.end()) {
      continue;
    }
    hits.push_back(
        {id, Cosine(query.data(), rows.data() + static_cast<size_t>(id) * dim,
                    dim)});
  }
  const auto before = [](const Hit& a, const Hit& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const size_t keep = std::min(hits.size(), static_cast<size_t>(k));
  std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(), before);
  hits.resize(keep);
  return hits;
}

std::string CheckCauchySchwarz(const std::vector<double>& gram, int n) {
  const auto at = [&](int i, int j) {
    return gram[static_cast<size_t>(i) * n + j];
  };
  for (int i = 0; i < n; ++i) {
    if (at(i, i) < -1e-12) {
      return "negative diagonal at " + std::to_string(i);
    }
    for (int j = i + 1; j < n; ++j) {
      const double lhs = at(i, j) * at(i, j);
      const double rhs = at(i, i) * at(j, j);
      if (lhs > rhs * (1.0 + 1e-9) + 1e-12) {
        return "K(" + std::to_string(i) + "," + std::to_string(j) +
               ")^2 exceeds K(i,i) K(j,j)";
      }
    }
  }
  return "";
}

}  // namespace perfbench::ref
