#pragma once

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "base/recovery.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/checkpoint.h"
#include "embed/corpus.h"
#include "embed/stream.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Hyperparameters for skip-gram with negative sampling (the WORD2VEC
/// objective of Section 2.1 [Mikolov et al.]) and for PV-DBOW (the
/// document-embedding objective behind GRAPH2VEC).
struct SgnsOptions {
  int dimension = 32;
  int window = 4;           ///< Symmetric context window (skip-gram only).
  int negatives = 5;        ///< Negative samples per positive pair.
  int epochs = 5;
  double learning_rate = 0.05;  ///< Linearly decayed to 1e-4 of itself.
  double noise_power = 0.75;    ///< Exponent of the unigram noise table.
  /// Numeric-health guardrails: gradient clipping plus NaN/Inf detection
  /// with LR-backoff retries. The defaults never engage on a healthy run.
  RecoveryPolicy recovery;
  /// Opt-in crash-safe persistence: with a non-empty dir the trainer saves
  /// a checksummed snapshot (model, RNG engine state, schedule position)
  /// at every every_n_epochs-th epoch barrier and, on the next run with
  /// the same options/data/seed, resumes from the newest intact one. A
  /// resumed run finishes bit-identical to an uninterrupted one; corrupt
  /// or stale files are skipped, never trusted.
  CheckpointOptions checkpoint;
};

/// Trained embedding: `input` holds the vectors normally used downstream
/// (one row per token / document), `output` the context-side vectors.
struct SgnsModel {
  linalg::Matrix input;
  linalg::Matrix output;
};

/// Exact positive-pair accounting behind the linear LR-decay schedule:
/// entry s+1 is the number of positive pairs contributed by sequences
/// [0, s] — window-clipped skip-gram pairs (position `pos` of a length-n
/// sequence pairs with [max(0, pos-window), min(n-1, pos+window)] minus
/// itself) or, for PV-DBOW, one pair per token. The back entry is the
/// exact pairs-per-epoch total. The per-sequence term is the one CountStream
/// and both trainers (sequential and sharded) use, which is what keeps
/// their learning rates aligned at matching (epoch, pair) slots; exposed
/// for the schedule-parity tests.
[[nodiscard]] std::vector<int64_t> PositivePairPrefix(
    const std::vector<std::vector<int>>& sequences, int window,
    bool skipgram_window);

/// kInvalidArgument naming the first bad field (non-positive dimension /
/// window / negatives, negative epochs, non-finite or non-positive
/// learning rate), OK otherwise. Zero epochs is valid: it requests the
/// untrained (randomly initialised) baseline.
[[nodiscard]] Status ValidateSgnsOptions(const SgnsOptions& options);

/// Trains skip-gram with negative sampling on a corpus: for each token
/// occurrence, each context token within the window is a positive pair and
/// `negatives` noise tokens are sampled from the unigram^power table. A
/// noise draw that collides with the positive context token is redrawn
/// (bounded retries) rather than dropped, so every pair trains against the
/// full complement of negatives even for frequent tokens.
SgnsModel TrainSgns(const Corpus& corpus, const SgnsOptions& options,
                    Rng& rng);

/// Trains PV-DBOW: each document d (a bag of token ids) predicts its own
/// tokens; the document vectors are the embedding. `vocab_size` bounds the
/// token ids. Returns document vectors in `input` and token vectors in
/// `output`. The negative-sampling table is unigram^noise_power over the
/// documents' token counts (NoiseFromCounts, embed/stream.h): a token that
/// never occurs keeps weight exactly 0 and is never drawn as a negative.
SgnsModel TrainPvDbow(const std::vector<std::vector<int>>& documents,
                      int vocab_size, const SgnsOptions& options, Rng& rng);

/// ---- Budgeted, self-healing variants. One work unit = one positive
/// training pair (with its negatives). After every epoch the embeddings and
/// accumulated loss are checked for NaN/Inf and runaway magnitudes; on
/// failure the trainer halves the learning rate, tightens the gradient clip,
/// reseeds the offending rows and retries the epoch, giving up with
/// kInternal after `options.recovery.max_retries` cumulative retries.
/// Returns kResourceExhausted when the budget runs out and kInvalidArgument
/// for bad options or inputs — an empty vocabulary, a token id beyond the
/// vocabulary (vocab_size), no documents or only empty ones. With an
/// unlimited budget and a healthy run the result is bit-identical to the
/// plain functions above (which are thin wrappers over these).

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsBudgeted(const Corpus& corpus,
                                      const SgnsOptions& options, Rng& rng,
                                      Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowBudgeted(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const SgnsOptions& options, Rng& rng, Budget& budget);

/// ---- Sharded deterministic parallel trainers. Each epoch is split into
/// fixed mini-batches of sequences. Within a batch, gradients are computed
/// in parallel against the batch-start parameters — one Rng stream per
/// (epoch, sequence) via Rng::Fork, never per thread — and accumulated
/// into per-sequence delta shards, which are then applied serially in
/// sequence order. Batch boundaries, streams, the learning-rate schedule
/// (exact per-pair prefix sums) and the apply order depend only on the
/// data and the seed, so the trained model is bit-identical at any thread
/// count; running with SetThreadCount(1) is the serial reference.
///
/// This is a different algorithm from TrainSgns/TrainPvDbow (mini-batch
/// synchronous rather than fully sequential SGD; Hogwild-style lock-free
/// sharing would be faster but irreproducible), so models differ
/// numerically from the sequential trainers while sharing the objective,
/// schedule shape, budget semantics (one unit per positive pair, spent per
/// sequence) and the per-epoch numeric-health check with LR-backoff
/// recovery.

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsSharded(const Corpus& corpus,
                                     const SgnsOptions& options, uint64_t seed,
                                     Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowSharded(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const SgnsOptions& options, uint64_t seed, Budget& budget);

/// ---- Streaming trainers (DESIGN.md §13). The same two algorithms fed
/// from a SentenceSource, so the corpus never has to exist in memory at
/// once; every corpus-based entry point above is a thin adapter that
/// replays its in-memory input through CorpusSource onto the streaming
/// entry of the same mode. The trainers make one optional fingerprint pass
/// when checkpointing is enabled and one pass per epoch; the source must
/// replay the identical stream on every Reset(). Feeding the same
/// sentences in the same order produces bit-identical models to the
/// in-memory paths — a WalkSource over a graph reproduces exactly what
/// materialising GenerateWalksParallel and training on it would have.
///
/// The SGNS variants take the counting pass and the noise table from the
/// caller (vocab size = noise_weights.size()): build both with CountStream
/// + NoiseFromCounts (embed/stream.h) when no materialised vocabulary
/// exists. `stats` must come from CountStream over the same sentences with
/// this options.window in skip-gram mode — or over any permutation of
/// them, since every total is order-independent. The PV-DBOW variants make
/// that counting pass themselves and build their noise table from it.
/// Returns kInvalidArgument for an empty noise table / non-positive
/// vocab_size / token ids beyond the table or negative, plus everything
/// the corpus-based trainers reject.

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    Rng& rng, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsShardedStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    uint64_t seed, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    Rng& rng, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowShardedStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    uint64_t seed, Budget& budget);

}  // namespace x2vec::embed
