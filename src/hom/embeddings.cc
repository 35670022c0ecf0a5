#include "hom/embeddings.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "graph/enumeration.h"
#include "hom/path_cycle.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"

namespace x2vec::hom {
namespace {

using graph::Graph;

// Complete binary tree with `levels` levels (levels >= 1; 2^levels - 1
// vertices).
Graph CompleteBinaryTree(int levels) {
  const int n = (1 << levels) - 1;
  Graph t(n);
  for (int v = 1; v < n; ++v) t.AddEdge((v - 1) / 2, v);
  return t;
}

// Spider: one centre with `legs` paths of length `leg_length` attached.
Graph Spider(int legs, int leg_length) {
  Graph t(1 + legs * leg_length);
  int next = 1;
  for (int leg = 0; leg < legs; ++leg) {
    int previous = 0;
    for (int step = 0; step < leg_length; ++step) {
      t.AddEdge(previous, next);
      previous = next++;
    }
  }
  return t;
}

// Rooted canonical string (children multisets, labels ignored) for root
// orbit deduplication.
std::string RootedCanonical(const Graph& tree, int v, int parent) {
  std::vector<std::string> children;
  for (const graph::Neighbor& nb : tree.Neighbors(v)) {
    if (nb.to != parent) children.push_back(RootedCanonical(tree, nb.to, v));
  }
  std::sort(children.begin(), children.end());
  std::string out = "(";
  for (const std::string& c : children) out += c;
  out += ")";
  return out;
}

// A connected 2-regular undirected pattern (the cycle C_length) whose
// vertices share one label and whose edges share one label.
struct CycleShape {
  int length = 0;
  int vertex_label = 0;
  int edge_label = 0;
};

std::optional<CycleShape> UniformCycleShape(const Graph& f) {
  const int n = f.NumVertices();
  if (f.directed() || n < 3) return std::nullopt;
  for (int v = 0; v < n; ++v) {
    if (f.Degree(v) != 2 || f.VertexLabel(v) != f.VertexLabel(0)) {
      return std::nullopt;
    }
  }
  for (const graph::Edge& e : f.Edges()) {
    if (e.label != f.Edges()[0].label) return std::nullopt;
  }
  if (!graph::IsConnected(f)) return std::nullopt;
  return CycleShape{n, f.VertexLabel(0), f.Edges()[0].label};
}

}  // namespace

std::vector<Pattern> DefaultPatternFamily(int count) {
  X2VEC_CHECK_GE(count, 1);
  std::vector<Pattern> family;
  // Trees: paths, stars, binary trees, spiders (treewidth 1) ...
  family.push_back({Graph::Path(2), "P2"});
  family.push_back({Graph::Path(3), "P3"});
  family.push_back({Graph::Path(4), "P4"});
  family.push_back({Graph::Path(5), "P5"});
  family.push_back({Graph::Path(7), "P7"});
  family.push_back({Graph::Star(3), "S3"});
  family.push_back({Graph::Star(4), "S4"});
  family.push_back({Graph::Star(5), "S5"});
  family.push_back({CompleteBinaryTree(2), "B2"});
  family.push_back({CompleteBinaryTree(3), "B3"});
  family.push_back({Spider(3, 2), "Spider3x2"});
  family.push_back({Spider(4, 2), "Spider4x2"});
  // ... and cycles (treewidth 2).
  family.push_back({Graph::Cycle(3), "C3"});
  family.push_back({Graph::Cycle(4), "C4"});
  family.push_back({Graph::Cycle(5), "C5"});
  family.push_back({Graph::Cycle(6), "C6"});
  family.push_back({Graph::Cycle(7), "C7"});
  family.push_back({Graph::Cycle(8), "C8"});
  family.push_back({Graph::Cycle(9), "C9"});
  family.push_back({Graph::Cycle(10), "C10"});
  // Extend with longer paths/cycles if more were requested.
  int extra_path = 8;
  int extra_cycle = 11;
  while (static_cast<int>(family.size()) < count) {
    if (family.size() % 2 == 0) {
      family.push_back(
          {Graph::Path(extra_path), "P" + std::to_string(extra_path)});
      ++extra_path;
    } else {
      family.push_back(
          {Graph::Cycle(extra_cycle), "C" + std::to_string(extra_cycle)});
      ++extra_cycle;
    }
  }
  family.resize(count);
  return family;
}

std::vector<double> HomVector(const Graph& g,
                              const std::vector<Pattern>& patterns) {
  // Uniformly labelled cycle patterns, grouped by their labels, share one
  // adjacency-power sequence per group; an entry of -1 (a count at or
  // above 2^53) falls back to elimination, which then rounds as before.
  std::vector<std::optional<CycleShape>> cycles(patterns.size());
  std::map<std::pair<int, int>, int> longest;
  if (!g.directed()) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      cycles[i] = UniformCycleShape(patterns[i].graph);
      if (!cycles[i]) continue;
      int& k = longest[{cycles[i]->vertex_label, cycles[i]->edge_label}];
      k = std::max(k, cycles[i]->length);
    }
  }
  std::map<std::pair<int, int>, std::vector<int64_t>> traces;
  for (const auto& [labels, k] : longest) {
    traces[labels] = LabelledCycleTraces(g, labels.first, labels.second, k);
  }
  std::vector<double> out;
  out.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Graph& f = patterns[i].graph;
    if (cycles[i]) {
      const int64_t trace =
          traces.at({cycles[i]->vertex_label, cycles[i]->edge_label})
              [cycles[i]->length - 3];
      if (trace >= 0) {
        out.push_back(static_cast<double>(trace));
        continue;
      }
    }
    out.push_back(graph::IsTree(f) ? CountTreeHomsDouble(f, g)
                                   : CountHomsDouble(f, g));
  }
  return out;
}

std::vector<double> LogScaledHomVector(const Graph& g,
                                       const std::vector<Pattern>& patterns) {
  std::vector<double> raw = HomVector(g, patterns);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = std::log1p(raw[i]) / patterns[i].graph.NumVertices();
  }
  return raw;
}

std::vector<RootedPattern> RootedTreesUpTo(int max_size) {
  std::vector<RootedPattern> out;
  std::set<std::string> seen;
  int index = 0;
  for (const Graph& tree : graph::TreesUpTo(max_size)) {
    ++index;
    for (int r = 0; r < tree.NumVertices(); ++r) {
      const std::string canon = RootedCanonical(tree, r, -1);
      if (seen.insert(canon).second) {
        out.push_back({tree, r,
                       "T" + std::to_string(tree.NumVertices()) + "#" +
                           std::to_string(index) + "@" + std::to_string(r)});
      }
    }
  }
  return out;
}

linalg::Matrix RootedHomNodeEmbedding(
    const Graph& g, const std::vector<RootedPattern>& patterns) {
  const int n = g.NumVertices();
  linalg::Matrix embedding(n, static_cast<int>(patterns.size()));
  for (size_t j = 0; j < patterns.size(); ++j) {
    const std::vector<__int128> counts =
        RootedTreeHomVector(patterns[j].graph, patterns[j].root, g);
    const double scale = 1.0 / patterns[j].graph.NumVertices();
    for (int v = 0; v < n; ++v) {
      embedding(v, static_cast<int>(j)) =
          std::log1p(static_cast<double>(counts[v])) * scale;
    }
  }
  return embedding;
}

linalg::Matrix RootedHomNodeKernel(const Graph& g,
                                   const std::vector<RootedPattern>& patterns) {
  const linalg::Matrix embedding = RootedHomNodeEmbedding(g, patterns);
  return embedding * embedding.Transposed();
}

}  // namespace x2vec::hom
