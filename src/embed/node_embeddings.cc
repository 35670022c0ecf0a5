#include "embed/node_embeddings.h"

#include <cmath>
#include <span>
#include <string_view>

#include "graph/algorithms.h"
#include "linalg/eigen.h"

namespace x2vec::embed {

linalg::Matrix SpectralAdjacencyEmbedding(const graph::Graph& g, int d) {
  return linalg::SvdEmbedding(g.AdjacencyMatrix(), d);
}

linalg::Matrix SpectralSimilarityEmbedding(const graph::Graph& g, int d,
                                           double c) {
  return linalg::SvdEmbedding(graph::ExpDistanceSimilarity(g, c), d);
}

linalg::Matrix LaplacianEigenmapEmbedding(const graph::Graph& g, int d) {
  const int n = g.NumVertices();
  X2VEC_CHECK(d >= 1 && d < n);
  // Combinatorial Laplacian L = D - A.
  linalg::Matrix laplacian(n, n);
  for (const graph::Edge& e : g.Edges()) {
    laplacian(e.u, e.v) -= e.weight;
    laplacian(e.v, e.u) -= e.weight;
    laplacian(e.u, e.u) += e.weight;
    laplacian(e.v, e.v) += e.weight;
  }
  const linalg::EigenDecomposition eig = linalg::SymmetricEigen(laplacian);
  // Eigenvalues are sorted descending; take the d smallest with
  // eigenvalue above the zero tolerance (skipping component indicators).
  std::vector<int> kept;
  for (int j = n - 1; j >= 0 && static_cast<int>(kept.size()) < d; --j) {
    if (eig.values[j] < 1e-9) continue;  // Trivial/zero modes.
    kept.push_back(j);
  }
  // Row-major fill over row views: each vertex's coordinates are gathered
  // from its eigenvector row in one pass.
  linalg::Matrix embedding(n, d);
  for (int v = 0; v < n; ++v) {
    const std::span<const double> vectors_row = eig.vectors.ConstRowSpan(v);
    const std::span<double> out = embedding.RowSpan(v);
    for (size_t p = 0; p < kept.size(); ++p) out[p] = vectors_row[kept[p]];
  }
  // Graphs with many components may not have d non-zero modes; the
  // remaining coordinates stay zero (component indicators carry no
  // geometry anyway).
  return embedding;
}

linalg::Matrix IsomapEmbedding(const graph::Graph& g, int d) {
  const int n = g.NumVertices();
  X2VEC_CHECK(d >= 1 && d <= n);
  const auto dist = graph::AllPairsShortestPaths(g);
  // Disconnected pairs get (max finite distance + 1), the usual Isomap
  // convention for multi-component graphs.
  int max_finite = 0;
  for (const auto& row : dist) {
    for (int value : row) max_finite = std::max(max_finite, value);
  }
  linalg::Matrix squared(n, n);
  for (int u = 0; u < n; ++u) {
    const std::span<double> row = squared.RowSpan(u);
    for (int v = 0; v < n; ++v) {
      const double distance =
          dist[u][v] >= 0 ? dist[u][v] : max_finite + 1.0;
      row[v] = distance * distance;
    }
  }
  // Classical MDS: B = -1/2 J D^2 J, embed along top eigenvectors of B.
  linalg::Matrix centering = linalg::Matrix::Identity(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) centering(i, j) -= 1.0 / n;
  }
  const linalg::Matrix b = centering * squared * centering * (-0.5);
  const linalg::EigenDecomposition eig = linalg::SymmetricEigen(b);
  std::vector<double> scale(d);
  for (int j = 0; j < d; ++j) {
    scale[j] = eig.values[j] > 1e-12 ? std::sqrt(eig.values[j]) : 0.0;
  }
  // Row-major fill over row views, one pass per vertex.
  linalg::Matrix embedding(n, d);
  for (int v = 0; v < n; ++v) {
    const std::span<const double> vectors_row = eig.vectors.ConstRowSpan(v);
    const std::span<double> out = embedding.RowSpan(v);
    for (int j = 0; j < d; ++j) out[j] = vectors_row[j] * scale[j];
  }
  return embedding;
}

namespace {

constexpr std::string_view kWalkOperation = "walk + skip-gram embedding";

// The back half both walk paths share: one budget unit per walk, one
// counting pass for the pair-schedule totals and the noise table, then
// `train(stats, noise)`. The table follows the walk-corpus convention —
// every vertex counts once before its walk occurrences (base_count 1).
template <typename Train>
StatusOr<linalg::Matrix> TrainOnWalks(SentenceSource& walks, int64_t num_walks,
                                      int n, const SgnsOptions& sgns,
                                      Budget& budget, Train&& train) {
  if (!budget.Spend(num_walks)) return budget.ExhaustedError(kWalkOperation);
  const StreamStats stats =
      CountStream(walks, sgns.window, /*skipgram_window=*/true, n);
  const std::vector<double> noise = NoiseFromCounts(
      stats.token_counts, n, sgns.noise_power, /*base_count=*/1);
  StatusOr<SgnsModel> model = train(stats, noise);
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

Status CheckWalkInput(int n, Budget& budget) {
  if (budget.Exhausted()) return budget.ExhaustedError(kWalkOperation);
  if (n == 0) {
    return Status::InvalidArgument(
        "SGNS training needs a non-empty vocabulary");
  }
  return Status::Ok();
}

// Sequential path: the walk corpus is generated on the parallel path
// (bit-identical at any thread count) from one draw of the caller's
// generator, which then drives the sequential trainer.
StatusOr<linalg::Matrix> WalkSkipGram(const graph::Graph& g,
                                      const Node2VecOptions& options, Rng& rng,
                                      Budget& budget) {
  const int n = g.NumVertices();
  if (Status status = CheckWalkInput(n, budget); !status.ok()) return status;
  const std::vector<std::vector<int>> walks =
      GenerateWalksParallel(g, options.walks, rng());
  CorpusSource source(walks);
  return TrainOnWalks(
      source, static_cast<int64_t>(walks.size()), n, options.sgns, budget,
      [&](const StreamStats& stats, const std::vector<double>& noise) {
        return TrainSgnsStreaming(source, stats, noise, options.sgns, rng,
                                  budget);
      });
}

StatusOr<linalg::Matrix> WalkSkipGramStreaming(const graph::GraphView& g,
                                               const Node2VecOptions& options,
                                               uint64_t seed, Budget& budget,
                                               int64_t shuffle_buffer) {
  const int n = g.NumVertices();
  if (Status status = CheckWalkInput(n, budget); !status.ok()) return status;
  // Streams 0 and 1 of the seed are reserved for walks and training;
  // stream 2 drives the optional shuffle.
  WalkSource walks(g, options.walks, MixSeed(seed, 0));
  return TrainOnWalks(
      walks, walks.NumSentences(), n, options.sgns, budget,
      [&](const StreamStats& stats, const std::vector<double>& noise) {
        // `stats` stays valid under the shuffle: every total it carries is
        // order-independent, so the permuted stream needs no second pass.
        if (shuffle_buffer <= 0) {
          return TrainSgnsShardedStreaming(walks, stats, noise, options.sgns,
                                           MixSeed(seed, 1), budget);
        }
        ShuffleBufferSource shuffled(walks, shuffle_buffer, MixSeed(seed, 2));
        return TrainSgnsShardedStreaming(shuffled, stats, noise, options.sgns,
                                         MixSeed(seed, 1), budget);
      });
}

}  // namespace

linalg::Matrix DeepWalkEmbedding(const graph::Graph& g,
                                 const Node2VecOptions& options, Rng& rng) {
  Budget unlimited;
  return *DeepWalkEmbeddingBudgeted(g, options, rng, unlimited);
}

linalg::Matrix Node2VecEmbedding(const graph::Graph& g,
                                 const Node2VecOptions& options, Rng& rng) {
  Budget unlimited;
  return *Node2VecEmbeddingBudgeted(g, options, rng, unlimited);
}

StatusOr<linalg::Matrix> DeepWalkEmbeddingBudgeted(
    const graph::Graph& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget) {
  Node2VecOptions uniform = options;
  uniform.walks.p = 1.0;
  uniform.walks.q = 1.0;
  return WalkSkipGram(g, uniform, rng, budget);
}

StatusOr<linalg::Matrix> Node2VecEmbeddingBudgeted(
    const graph::Graph& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget) {
  return WalkSkipGram(g, options, rng, budget);
}

StatusOr<linalg::Matrix> DeepWalkEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget, int64_t shuffle_buffer) {
  Node2VecOptions uniform = options;
  uniform.walks.p = 1.0;
  uniform.walks.q = 1.0;
  return WalkSkipGramStreaming(g, uniform, seed, budget, shuffle_buffer);
}

StatusOr<linalg::Matrix> Node2VecEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget, int64_t shuffle_buffer) {
  return WalkSkipGramStreaming(g, options, seed, budget, shuffle_buffer);
}

double ReconstructionError(const linalg::Matrix& embedding,
                           const linalg::Matrix& similarity) {
  return (embedding * embedding.Transposed() - similarity).FrobeniusNorm();
}

}  // namespace x2vec::embed
