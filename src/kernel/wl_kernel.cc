#include "kernel/wl_kernel.h"

#include <algorithm>
#include <cmath>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "graph/algorithms.h"
#include "wl/color_refinement.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

// Joint refinement over a whole dataset: colours are computed on the
// disjoint union so ids line up across graphs. Returns per-round colours
// restricted to each graph plus the per-round colour counts.
struct JointColors {
  // colors[g][round][v].
  std::vector<std::vector<std::vector<int>>> colors;
  std::vector<int> colors_per_round;
};

JointColors RefineDataset(const std::vector<Graph>& graphs, int rounds) {
  X2VEC_CHECK(!graphs.empty());
  Graph joint = graphs[0];
  std::vector<int> offsets = {0};
  for (size_t i = 1; i < graphs.size(); ++i) {
    offsets.push_back(joint.NumVertices());
    joint = graph::DisjointUnion(joint, graphs[i]);
  }
  wl::RefinementOptions options;
  options.max_rounds = rounds;
  const wl::RefinementResult refinement = wl::ColorRefinement(joint, options);

  JointColors out;
  out.colors_per_round = refinement.colors_per_round;
  out.colors.resize(graphs.size());
  // Restricting the joint colouring to each graph is independent per graph.
  const Status status = ParallelFor(
      static_cast<int64_t>(graphs.size()), 0, [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi; ++g) {
          out.colors[g].resize(refinement.round_colors.size());
          for (size_t r = 0; r < refinement.round_colors.size(); ++r) {
            const std::vector<int>& round = refinement.round_colors[r];
            out.colors[g][r].assign(
                round.begin() + offsets[g],
                round.begin() + offsets[g] + graphs[g].NumVertices());
          }
        }
        return Status::Ok();
      });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return out;
}

SparseVector FromCounts(const std::map<int64_t, double>& counts) {
  SparseVector v;
  v.entries.assign(counts.begin(), counts.end());
  return v;
}

}  // namespace

linalg::Matrix GramFromSparse(const std::vector<SparseVector>& features) {
  trace::Span span("kernel.gram_from_sparse");
  const int n = static_cast<int>(features.size());
  linalg::Matrix k(n, n);
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  const Status status = ParallelFor(pairs, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const auto [i, j] = UpperTriangleIndex(t, n);
      const double dot = features[i].Dot(features[j]);
      k(i, j) = dot;
      k(j, i) = dot;
    }
    X2VEC_METRIC_COUNT("kernel.gram_entries", hi - lo);
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  span.AddWork(pairs);
  return k;
}

double SparseVector::Dot(const SparseVector& other) const {
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < entries.size() && j < other.entries.size()) {
    if (entries[i].first < other.entries[j].first) {
      ++i;
    } else if (entries[i].first > other.entries[j].first) {
      ++j;
    } else {
      total += entries[i].second * other.entries[j].second;
      ++i;
      ++j;
    }
  }
  return total;
}

WlFeatureSet WlSubtreeFeatures(const std::vector<Graph>& graphs, int rounds) {
  X2VEC_CHECK_GE(rounds, 0);
  const JointColors joint = RefineDataset(graphs, rounds);
  WlFeatureSet out;
  out.rounds = rounds;
  // Feature id = round * kRoundStride + colour; colour counts never exceed
  // total vertices so a fixed stride is safe.
  int64_t stride = 1;
  for (int count : joint.colors_per_round) {
    stride = std::max<int64_t>(stride, count + 1);
  }
  const int usable_rounds = static_cast<int>(joint.colors_per_round.size());
  // Per-graph colour histograms are independent across the dataset.
  out.features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        std::map<int64_t, double> counts;
        for (int r = 0; r < std::min(rounds + 1, usable_rounds); ++r) {
          for (int color : joint.colors[g][r]) {
            counts[static_cast<int64_t>(r) * stride + color] += 1.0;
          }
        }
        return FromCounts(counts);
      });
  out.dimension = stride * usable_rounds;
  return out;
}

linalg::Matrix WlSubtreeKernelMatrix(const std::vector<Graph>& graphs,
                                     int rounds) {
  return GramFromSparse(WlSubtreeFeatures(graphs, rounds).features);
}

linalg::Matrix DiscountedWlKernelMatrix(const std::vector<Graph>& graphs,
                                        int max_rounds) {
  const JointColors joint = RefineDataset(graphs, max_rounds);
  const int usable_rounds = static_cast<int>(joint.colors_per_round.size());
  int64_t stride = 1;
  for (int count : joint.colors_per_round) {
    stride = std::max<int64_t>(stride, count + 1);
  }
  // Per-round sqrt(2^-r) weights (split across the two Gram factors),
  // precomputed once so every graph applies identical values.
  const int counted_rounds = std::min(max_rounds + 1, usable_rounds);
  std::vector<double> round_weight(counted_rounds);
  double weight = 1.0;
  for (int r = 0; r < counted_rounds; ++r) {
    round_weight[r] = std::sqrt(weight);
    weight /= 2.0;
  }
  const std::vector<SparseVector> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        std::map<int64_t, double> counts;
        for (int r = 0; r < counted_rounds; ++r) {
          for (int color : joint.colors[g][r]) {
            counts[static_cast<int64_t>(r) * stride + color] +=
                round_weight[r];
          }
        }
        return FromCounts(counts);
      });
  return GramFromSparse(features);
}

linalg::Matrix WlShortestPathKernelMatrix(const std::vector<Graph>& graphs,
                                          int rounds) {
  const JointColors joint = RefineDataset(graphs, rounds);
  const int last = static_cast<int>(joint.colors[0].size()) - 1;
  int64_t colors = 1;
  for (int count : joint.colors_per_round) {
    colors = std::max<int64_t>(colors, count + 1);
  }
  // Distance stride shared across the dataset so feature ids align.
  int64_t dist_stride = 2;
  for (const Graph& g : graphs) {
    dist_stride = std::max<int64_t>(dist_stride, g.NumVertices() + 1);
  }
  // One independent APSP + pair histogram per graph.
  const std::vector<SparseVector> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        const std::vector<std::vector<int>> dist =
            graph::AllPairsShortestPaths(graphs[g]);
        const std::vector<int>& color = joint.colors[g][last];
        std::map<int64_t, double> counts;
        const int n = graphs[g].NumVertices();
        for (int u = 0; u < n; ++u) {
          for (int v = u + 1; v < n; ++v) {
            if (dist[u][v] < 0) continue;
            const int a = std::min(color[u], color[v]);
            const int b = std::max(color[u], color[v]);
            const int64_t id =
                (static_cast<int64_t>(a) * colors + b) * dist_stride +
                dist[u][v];
            counts[id] += 1.0;
          }
        }
        return FromCounts(counts);
      });
  return GramFromSparse(features);
}

}  // namespace x2vec::kernel
