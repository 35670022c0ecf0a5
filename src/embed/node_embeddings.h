#pragma once

#include "base/rng.h"
#include "embed/sgns.h"
#include "embed/walks.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Figure 2(a): rank-d SVD factor embedding of the adjacency matrix
/// ("first-order proximity" matrix factorisation of Section 2.1).
linalg::Matrix SpectralAdjacencyEmbedding(const graph::Graph& g, int d);

/// Figure 2(b): rank-d SVD factor embedding of the similarity matrix
/// S_vw = exp(-c * dist(v, w)).
linalg::Matrix SpectralSimilarityEmbedding(const graph::Graph& g, int d,
                                           double c);

/// Laplacian eigenmaps (Section 2.1 [Belkin-Niyogi]): coordinates from the
/// eigenvectors of the graph Laplacian with the d smallest non-zero
/// eigenvalues (one trivial constant eigenvector is skipped per connected
/// component).
linalg::Matrix LaplacianEigenmapEmbedding(const graph::Graph& g, int d);

/// Isomap on graphs (Section 2.1 [Tenenbaum et al.] = classical
/// multidimensional scaling [Kruskal] of the geodesic metric): double-
/// centres the squared shortest-path distance matrix and embeds along its
/// top-d eigenvectors. Requires a connected graph.
linalg::Matrix IsomapEmbedding(const graph::Graph& g, int d);

/// Shared knobs for the walk + skip-gram node embedders.
struct Node2VecOptions {
  WalkOptions walks;
  /// Skip-gram training knobs. Crash-safe checkpointing rides here: set
  /// sgns.checkpoint.dir and the trainer snapshots at epoch barriers and
  /// resumes on the next call. Walk generation is deterministic for a
  /// fixed seed/rng, so a restarted process rebuilds the identical walk
  /// corpus and the checkpoint fingerprint (which hashes the corpus)
  /// matches; a changed graph or walk setup changes the fingerprint and
  /// the stale checkpoint is skipped.
  SgnsOptions sgns;
};

/// DEEPWALK (Section 2.1): uniform walks + skip-gram. Returns one row per
/// vertex.
linalg::Matrix DeepWalkEmbedding(const graph::Graph& g,
                                 const Node2VecOptions& options, Rng& rng);

/// NODE2VEC (Figure 2(c)): biased second-order walks (p, q) + skip-gram.
linalg::Matrix Node2VecEmbedding(const graph::Graph& g,
                                 const Node2VecOptions& options, Rng& rng);

/// Budgeted variants of the walk + skip-gram embedders: the walk corpus
/// is materialised (GenerateWalksParallel, seeded by one draw of `rng`)
/// and trained by the sequential TrainSgnsStreaming through a CorpusSource.
/// One work unit per generated random walk plus the trainer's unit per
/// positive pair (which dominates). Returns kResourceExhausted /
/// kInvalidArgument / kInternal as the underlying trainer does; with an
/// unlimited budget the results are bit-identical to the plain functions
/// above (which are thin wrappers over these).
[[nodiscard]] StatusOr<linalg::Matrix> DeepWalkEmbeddingBudgeted(
    const graph::Graph& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget);

[[nodiscard]] StatusOr<linalg::Matrix> Node2VecEmbeddingBudgeted(
    const graph::Graph& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget);

/// Parallel out-of-core variants (DESIGN.md §13): a WalkSource over either
/// graph backend — adjacency-list Graph or CsrGraph, possibly mmap-backed —
/// feeds the sharded deterministic trainer (TrainSgnsShardedStreaming), so
/// the walk corpus is never materialised; resident state is one walk, one
/// start permutation, the model and the noise table. One streaming
/// counting pass builds the noise table (every vertex counts once plus its
/// walk occurrences) and the pair-schedule totals. Walks draw from
/// MixSeed(seed, 0) and the trainer from MixSeed(seed, 1), so for a fixed
/// seed the embedding is bit-identical at any thread count, and equal to
/// TrainSgnsSharded over the materialised GenerateWalksParallel corpus with
/// the same seeds. It differs numerically from the Budgeted variants, which
/// keep the sequential SGD trajectory. Budget and error semantics match
/// theirs.
///
/// shuffle_buffer > 0 inserts a deterministic bounded shuffle stage (seeded
/// MixSeed(seed, 2)) between the walks and the trainer: sentence order
/// changes — so the model differs numerically from the unshuffled run — but
/// is itself a pure function of (graph, options, seed, capacity),
/// bit-identical at any thread count.
[[nodiscard]] StatusOr<linalg::Matrix> DeepWalkEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget, int64_t shuffle_buffer = 0);

[[nodiscard]] StatusOr<linalg::Matrix> Node2VecEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget, int64_t shuffle_buffer = 0);

/// Encoder-decoder objective value ||X X^T - S||_F of Section 2.1, for
/// comparing factorisation embeddings against a target similarity.
double ReconstructionError(const linalg::Matrix& embedding,
                           const linalg::Matrix& similarity);

}  // namespace x2vec::embed
