#include "embed/sgns.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "base/validation.h"
#include "embed/pairs.h"
#include "linalg/health.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"

namespace x2vec::embed {
namespace {

// What one training run reads: the sentence stream with the totals of its
// counting pass, the noise table, and the model shape. PV-DBOW rows are
// documents (rows_in) and tokens (rows_out); skip-gram uses the vocabulary
// for both.
struct TrainInput {
  SentenceSource& source;
  const StreamStats& stats;
  const std::vector<double>& noise_weights;
  int rows_in;
  int rows_out;
  bool skipgram_window;
};

// ---- Checkpoint plumbing.

// Binds a checkpoint to one exact run: options (recovery included, since
// it shapes the retry path), data shape and content, noise table and seed.
// Any difference means "resuming would not reproduce the uninterrupted
// run", so LoadLatestCheckpoint skips the file. The sentence content is
// hashed by replaying the source — one dedicated pass, only paid when
// checkpointing is enabled — in the exact field order the materialised
// fingerprint always used, so digests (and therefore existing checkpoint
// files) stay valid across the streaming refactor.
uint64_t SgnsFingerprint(CheckpointKind kind, const TrainInput& in,
                         const SgnsOptions& options, uint64_t seed) {
  Fnv1a hasher;
  hasher.UpdateU64(static_cast<uint64_t>(kind));
  hasher.UpdateU64(static_cast<uint64_t>(in.rows_in));
  hasher.UpdateU64(static_cast<uint64_t>(in.rows_out));
  hasher.UpdateU64(in.skipgram_window ? 1 : 0);
  hasher.UpdateU64(static_cast<uint64_t>(options.dimension));
  hasher.UpdateU64(static_cast<uint64_t>(options.window));
  hasher.UpdateU64(static_cast<uint64_t>(options.negatives));
  hasher.UpdateU64(static_cast<uint64_t>(options.epochs));
  hasher.UpdateDouble(options.learning_rate);
  hasher.UpdateDouble(options.noise_power);
  hasher.UpdateU64(static_cast<uint64_t>(options.recovery.max_retries));
  hasher.UpdateDouble(options.recovery.lr_backoff);
  hasher.UpdateDouble(options.recovery.clip_norm);
  hasher.UpdateDouble(options.recovery.clip_backoff);
  hasher.UpdateDouble(options.recovery.max_abs);
  hasher.UpdateU64(seed);
  hasher.UpdateU64(static_cast<uint64_t>(in.stats.num_sentences));
  in.source.Reset();
  std::vector<int> seq;
  while (in.source.Next(seq)) {
    hasher.UpdateU64(seq.size());
    for (int token : seq) hasher.UpdateU64(static_cast<uint64_t>(token));
  }
  hasher.UpdateU64(in.noise_weights.size());
  for (double w : in.noise_weights) hasher.UpdateDouble(w);
  return hasher.digest();
}

// Everything beyond the model needed to make a resumed run bit-identical:
// where the schedule stands, the recovery settings in force, and the RNG
// engine mid-stream. `progress` is the pair counter `seen` for the
// sequential trainer and the epoch `attempt` counter for the sharded one —
// each trainer's single source of schedule truth.
struct SgnsResumeState {
  int next_epoch = 0;
  int64_t progress = 0;
  double lr_scale = 1.0;
  double clip = 0.0;
  int retries = 0;
  std::string rng_state;
};

CheckpointData EncodeSgnsState(CheckpointKind kind, uint64_t fingerprint,
                               const SgnsModel& model,
                               const SgnsResumeState& state) {
  CheckpointData data;
  data.kind = kind;
  data.fingerprint = fingerprint;
  PayloadWriter model_writer;
  model_writer.PutMatrix(model.input);
  model_writer.PutMatrix(model.output);
  data.sections.push_back({"model", model_writer.Take()});
  PayloadWriter trainer_writer;
  trainer_writer.PutI64(state.next_epoch);
  trainer_writer.PutI64(state.progress);
  trainer_writer.PutDouble(state.lr_scale);
  trainer_writer.PutDouble(state.clip);
  trainer_writer.PutI64(state.retries);
  trainer_writer.PutString(state.rng_state);
  data.sections.push_back({"trainer", trainer_writer.Take()});
  return data;
}

Status DecodeSgnsState(const CheckpointData& data, SgnsModel& model,
                       SgnsResumeState& state) {
  const CheckpointSection* model_section = data.Find("model");
  const CheckpointSection* trainer_section = data.Find("trainer");
  if (model_section == nullptr || trainer_section == nullptr) {
    return Status::CorruptedData(
        "checkpoint is missing its 'model' or 'trainer' section");
  }
  PayloadReader model_reader(model_section->payload);
  model.input = model_reader.GetMatrix();
  model.output = model_reader.GetMatrix();
  model_reader.ExpectEnd();
  if (!model_reader.status().ok()) return model_reader.status();
  PayloadReader trainer_reader(trainer_section->payload);
  state.next_epoch = static_cast<int>(trainer_reader.GetI64());
  state.progress = trainer_reader.GetI64();
  state.lr_scale = trainer_reader.GetDouble();
  state.clip = trainer_reader.GetDouble();
  state.retries = static_cast<int>(trainer_reader.GetI64());
  state.rng_state = trainer_reader.GetString();
  trainer_reader.ExpectEnd();
  return trainer_reader.status();
}

// Redraw cap for negative-sampling collisions. With any non-degenerate
// noise table the collision probability per draw is the sampled token's
// own noise mass, so 16 redraws make a dropped negative vanishingly rare
// while still terminating on (near-)single-token noise tables.
constexpr int kNegativeRedraws = 16;

// Draws a negative token distinct from `positive`, redrawing on collision
// up to kNegativeRedraws extra times. Returns -1 when every draw collided
// (only reachable with degenerate noise distributions); the caller then
// trains the slot without that negative. Shared by the sequential and
// sharded trainers so both draw exactly `options.negatives` usable
// negatives per positive pair with identical semantics.
int SampleNegative(const AliasTable& noise, int positive, Rng& rng) {
  int negative = noise.Sample(rng);
  for (int retry = 0; negative == positive && retry < kNegativeRedraws;
       ++retry) {
    X2VEC_METRIC_COUNT("sgns.negative_redraws", 1);
    negative = noise.Sample(rng);
  }
  if (negative == positive) {
    X2VEC_METRIC_COUNT("sgns.negative_exhausted", 1);
    return -1;
  }
  return negative;
}

// ---- The epoch driver shared by both trainers.

// What tells the two trainers apart to the driver.
struct TrainerTraits {
  CheckpointKind kind;
  std::string_view operation;  // Names the run in budget/divergence errors.
  std::string_view span;       // Trace span over the whole run.
  uint64_t seed;               // Bound into the checkpoint fingerprint.
  // Schedule pairs per unit of `progress`: 1 for the sequential trainer,
  // whose progress counts pairs; pairs_per_epoch for the sharded one, whose
  // progress counts epoch attempts.
  int64_t pairs_per_progress;
};

// The learning rate and gradient clip of one epoch attempt. The rate
// decays linearly over the exact pair count of the whole run, floored at
// 1e-4 of the (backoff-scaled) base rate.
struct EpochSchedule {
  double scaled_lr;  // options.learning_rate * lr_scale.
  int64_t total_pairs;
  double clip;

  [[nodiscard]] double Lr(int64_t seen) const {
    return scaled_lr *
           std::max(1e-4, 1.0 - static_cast<double>(seen) / total_pairs);
  }
};

// Runs one trainer from validation to the trained model: checks the
// options, resumes from the newest matching checkpoint or initialises the
// model from `init_rng`, then for each epoch calls
// run_epoch(model, noise, schedule, progress) — which trains one pass,
// advances `progress` and returns the pass's summed loss — and after it
// reports the epoch-end LR, checks numeric health (retrying the epoch with
// LR and clip backoff, reseeding rows from `state_rng`, up to
// recovery.max_retries) and saves the checkpoint. `state_rng` is the
// engine a checkpoint saves and restores.
template <typename RunEpoch>
StatusOr<SgnsModel> RunEpochs(const TrainInput& in, const SgnsOptions& options,
                              const TrainerTraits& traits, Rng& init_rng,
                              Rng& state_rng, Budget& budget,
                              RunEpoch&& run_epoch) {
  if (Status status = ValidateSgnsOptions(options); !status.ok()) {
    return status;
  }
  if (Status status = ValidateCheckpointOptions(options.checkpoint);
      !status.ok()) {
    return status;
  }
  if (budget.Exhausted()) return budget.ExhaustedError(traits.operation);
  X2VEC_CHECK_GT(in.rows_in, 0);
  X2VEC_CHECK_GT(in.rows_out, 0);
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));
  const int dim = options.dimension;
  const CheckpointOptions& ckpt = options.checkpoint;
  const uint64_t fingerprint =
      ckpt.enabled() ? SgnsFingerprint(traits.kind, in, options, traits.seed)
                     : 0;

  SgnsModel model;
  const double init = 0.5 / dim;
  const RecoveryPolicy& recovery = options.recovery;
  SgnsResumeState state;  // lr_scale is halved on each numeric recovery.
  state.clip = recovery.clip_norm;

  bool resumed = false;
  if (ckpt.enabled()) {
    StatusOr<std::optional<CheckpointData>> loaded =
        LoadLatestCheckpoint(ckpt, traits.kind, fingerprint);
    if (!loaded.ok()) return loaded.status();
    if (loaded->has_value()) {
      if (Status status = DecodeSgnsState(**loaded, model, state);
          !status.ok()) {
        return status;
      }
      if (model.input.rows() != in.rows_in || model.input.cols() != dim ||
          model.output.rows() != in.rows_out || model.output.cols() != dim) {
        return Status::CorruptedData(
            "checkpoint model shape does not match this run's "
            "(rows, dimension)");
      }
      // Restoring the engine replays the exact draw sequence the
      // uninterrupted run would have continued with.
      if (Status status = state_rng.LoadEngineState(state.rng_state);
          !status.ok()) {
        return status;
      }
      resumed = true;
      X2VEC_METRIC_COUNT("checkpoint.resumes", 1);
    }
  }
  if (!resumed) {
    model.input = linalg::Matrix(in.rows_in, dim);
    for (double& v : model.input.mutable_data()) {
      v = UniformReal(init_rng, -init, init);
    }
    model.output = linalg::Matrix(in.rows_out, dim);  // Zeros.
  }

  const AliasTable noise(in.noise_weights);
  const int64_t pairs_per_epoch = in.stats.pairs_per_epoch;
  const int64_t total_pairs =
      std::max<int64_t>(1, pairs_per_epoch * options.epochs);

  trace::Span train_span(traits.span);
  for (int epoch = state.next_epoch; epoch < options.epochs; ++epoch) {
    trace::Span epoch_span("sgns.epoch");
    const EpochSchedule schedule{options.learning_rate * state.lr_scale,
                                 total_pairs, state.clip};
    StatusOr<double> epoch_loss =
        run_epoch(model, noise, schedule, state.progress);
    if (!epoch_loss.ok()) return epoch_loss.status();
    epoch_span.AddWork(pairs_per_epoch);
    train_span.AddWork(pairs_per_epoch);
    // LR the next pair would train at. Progress advances across retried
    // epochs in both trainers, so they report identical values at
    // matching epoch boundaries.
    X2VEC_METRIC_GAUGE("sgns.lr_epoch_end",
                       schedule.Lr(state.progress * traits.pairs_per_progress));

    // Per-epoch numeric health check with bounded self-healing.
    const bool healthy = std::isfinite(*epoch_loss) &&
                         linalg::MatrixHealthy(model.input, recovery.max_abs) &&
                         linalg::MatrixHealthy(model.output, recovery.max_abs);
    if (!healthy) {
      if (++state.retries > recovery.max_retries) {
        return Status::Internal(
            std::string(traits.operation) +
            " diverged (non-finite or runaway parameters) and exhausted " +
            std::to_string(recovery.max_retries) + " recovery retries");
      }
      X2VEC_METRIC_COUNT("sgns.recovery_retries", 1);
      state.lr_scale *= recovery.lr_backoff;
      state.clip *= recovery.clip_backoff;
      linalg::ReseedUnhealthyRows(model.input, init, recovery.max_abs,
                                  state_rng);
      linalg::ReseedUnhealthyRows(model.output, init, recovery.max_abs,
                                  state_rng);
      --epoch;  // Retry the failed epoch with the gentler settings.
      continue;
    }

    // Epoch barrier reached with healthy parameters: persist everything a
    // resumed run needs to finish bit-identically. A save failure is a
    // typed error, not a silent skip — the caller asked for durability.
    if (ckpt.enabled() && (epoch + 1) % ckpt.every_n_epochs == 0) {
      state.next_epoch = epoch + 1;
      state.rng_state = state_rng.SaveEngineState();
      if (Status status = SaveCheckpoint(
              ckpt, epoch + 1,
              EncodeSgnsState(traits.kind, fingerprint, model, state));
          !status.ok()) {
        return status;
      }
    }
  }
  return model;
}

// ---- Sequential trainer: plain SGD, one pair at a time, all noise draws
// from the caller's generator.

StatusOr<SgnsModel> Train(const TrainInput& in, const SgnsOptions& options,
                          Rng& rng, Budget& budget) {
  constexpr TrainerTraits kTraits{CheckpointKind::kSgnsSequential,
                                  "SGNS training", "sgns.train",
                                  /*seed=*/0, /*pairs_per_progress=*/1};
  std::vector<double> center_gradient(options.dimension);
  std::vector<int> seq;
  return RunEpochs(
      in, options, kTraits, rng, rng, budget,
      [&](SgnsModel& model, const AliasTable& noise,
          const EpochSchedule& schedule, int64_t& seen) -> StatusOr<double> {
        double loss = 0.0;
        in.source.Reset();
        for (int64_t s = 0; in.source.Next(seq); ++s) {
          // Every pair of one centre position trains at the LR of the
          // position's first pair (the sharded trainer prices each pair at
          // its own slot); the golden digests pin both schedules.
          int lr_pos = -1;
          double lr = 0.0;
          const bool finished = ForEachPair(
              seq, static_cast<int>(s), options.window, in.skipgram_window,
              [&](int pos, int center, int context) {
                if (!budget.Spend(1)) return false;
                X2VEC_METRIC_COUNT("sgns.pairs", 1);
                if (pos != lr_pos) {
                  lr = schedule.Lr(seen);
                  lr_pos = pos;
                }
                // The fused span kernel updates the context row in place
                // and accumulates the centre row's step, which is applied
                // (clipped) once the negatives are done.
                std::fill(center_gradient.begin(), center_gradient.end(),
                          0.0);
                loss += linalg::SgdPairUpdate(
                    model.input.ConstRowSpan(center),
                    model.output.RowSpan(context), 1.0, lr, center_gradient);
                for (int k = 0; k < options.negatives; ++k) {
                  const int negative = SampleNegative(noise, context, rng);
                  if (negative < 0) continue;
                  X2VEC_METRIC_COUNT("sgns.negatives", 1);
                  loss += linalg::SgdPairUpdate(
                      model.input.ConstRowSpan(center),
                      model.output.RowSpan(negative), 0.0, lr,
                      center_gradient);
                }
                linalg::ClipGradient(center_gradient, schedule.clip);
                linalg::Axpy(1.0, center_gradient,
                             model.input.RowSpan(center));
                ++seen;
                return true;
              });
          if (!finished) return budget.ExhaustedError(kTraits.operation);
        }
        return loss;
      });
}

// ---- Sharded deterministic parallel trainer.

// Sequences per synchronous mini-batch: small enough that parameters stay
// fresh (close to sequential SGD on test-scale corpora), large enough to
// keep every worker busy within a batch.
constexpr int64_t kShardBatchSequences = 32;

// Per-sequence gradient shard: sparse row deltas against the batch-start
// parameters (flat touched-row buffers, no per-sequence allocation in
// steady state), plus the sequence's loss contribution. Applied serially
// in sequence order after the batch's parallel compute; within a shard the
// touched rows are applied in first-touch order, which is fixed by the
// sequence data and bit-equivalent to any other fixed order because
// distinct rows update disjoint memory.
struct ShardDelta {
  linalg::RowDeltaBuffer input_rows;
  linalg::RowDeltaBuffer output_rows;
  double loss = 0.0;

  void Reset(int rows_in, int rows_out, int dim) {
    input_rows.Reset(rows_in, dim);
    output_rows.Reset(rows_out, dim);
    loss = 0.0;
  }
};

StatusOr<SgnsModel> TrainSharded(const TrainInput& in,
                                 const SgnsOptions& options, uint64_t seed,
                                 Budget& budget) {
  const TrainerTraits traits{CheckpointKind::kSgnsSharded,
                             "sharded SGNS training", "sgns.train_sharded",
                             seed, in.stats.pairs_per_epoch};
  // Stream 0 of the seed initialises; streams of MixSeed(seed, 1 + attempt)
  // drive the per-sequence noise draws of each epoch attempt; the ~0
  // stream reseeds rows during numeric recovery.
  Rng init_rng = Rng::Fork(seed, 0);
  Rng recovery_rng = Rng::Fork(seed, ~uint64_t{0});
  const int dim = options.dimension;
  BudgetGate gate(budget);
  // Shard storage reused across batches and epochs: Reset() keeps each
  // buffer's capacity, so steady-state training allocates nothing per
  // sequence. The batch window is the only materialised slice of the
  // stream; Next() refills each slot in place, reusing its capacity.
  std::vector<ShardDelta> deltas(kShardBatchSequences);
  std::vector<std::vector<int>> batch(kShardBatchSequences);
  std::vector<int64_t> batch_prefix(kShardBatchSequences + 1, 0);
  return RunEpochs(
      in, options, traits, init_rng, recovery_rng, budget,
      [&](SgnsModel& model, const AliasTable& noise,
          const EpochSchedule& schedule,
          int64_t& attempt) -> StatusOr<double> {
        // Epoch attempts (retries included) drive both the noise streams
        // and the schedule offset, mirroring the sequential trainer's
        // ever-advancing generator and pair counter across retried epochs.
        const uint64_t epoch_base =
            MixSeed(seed, 1 + static_cast<uint64_t>(attempt));
        const int64_t seen_base = attempt * in.stats.pairs_per_epoch;
        double loss = 0.0;
        in.source.Reset();
        int64_t batch_lo = 0;   // Global index of the batch's first sequence.
        int64_t pair_base = 0;  // Positive pairs in sequences [0, batch_lo).
        for (bool more = true; more;) {
          // Pull the next synchronous mini-batch: [0, 32), [32, 64), ...
          int64_t batch_size = 0;
          while (batch_size < kShardBatchSequences &&
                 in.source.Next(batch[batch_size])) {
            ++batch_size;
          }
          more = batch_size == kShardBatchSequences;
          if (batch_size == 0) break;
          // Per-batch pair prefix: the global schedule slot of sequence
          // batch_lo + b is seen_base + pair_base + batch_prefix[b], so
          // shards agree on the schedule without a shared counter.
          for (int64_t b = 0; b < batch_size; ++b) {
            batch_prefix[b + 1] =
                batch_prefix[b] +
                SequencePairs(static_cast<int64_t>(batch[b].size()),
                              options.window, in.skipgram_window);
          }
          const Status status = ParallelFor(
              batch_size, 0, [&](int64_t lo, int64_t hi) {
                std::vector<double> center_gradient(dim);
                for (int64_t b = lo; b < hi; ++b) {
                  const int64_t s = batch_lo + b;
                  const int64_t seq_pairs =
                      batch_prefix[b + 1] - batch_prefix[b];
                  if (seq_pairs > 0 && !gate.Spend(seq_pairs)) {
                    return gate.ExhaustedError(traits.operation);
                  }
                  ShardDelta& delta = deltas[b];
                  delta.Reset(in.rows_in, in.rows_out, dim);
                  Rng rng = Rng::Fork(epoch_base, static_cast<uint64_t>(s));
                  int64_t seen = seen_base + pair_base + batch_prefix[b];
                  ForEachPair(
                      batch[b], static_cast<int>(s), options.window,
                      in.skipgram_window, [&](int, int center, int context) {
                        X2VEC_METRIC_COUNT("sgns.pairs", 1);
                        const double lr = schedule.Lr(seen);
                        // Frozen-parameter pair step: scores read the
                        // batch-start matrices and both updates land in
                        // the shard instead of the live parameters.
                        std::fill(center_gradient.begin(),
                                  center_gradient.end(), 0.0);
                        delta.loss += linalg::SgdPairUpdateDelta(
                            model.input.ConstRowSpan(center),
                            model.output.ConstRowSpan(context), 1.0, lr,
                            center_gradient,
                            delta.output_rows.Accumulator(context));
                        for (int k = 0; k < options.negatives; ++k) {
                          const int negative =
                              SampleNegative(noise, context, rng);
                          if (negative < 0) continue;
                          X2VEC_METRIC_COUNT("sgns.negatives", 1);
                          delta.loss += linalg::SgdPairUpdateDelta(
                              model.input.ConstRowSpan(center),
                              model.output.ConstRowSpan(negative), 0.0, lr,
                              center_gradient,
                              delta.output_rows.Accumulator(negative));
                        }
                        linalg::ClipGradient(center_gradient, schedule.clip);
                        linalg::Axpy(1.0, center_gradient,
                                     delta.input_rows.Accumulator(center));
                        ++seen;
                        return true;
                      });
                }
                return Status::Ok();
              });
          if (!status.ok()) return status;
          // Serial apply in sequence order: the fold order is fixed by the
          // data, not by which worker produced which shard.
          for (int64_t b = 0; b < batch_size; ++b) {
            ShardDelta& d = deltas[b];
            loss += d.loss;
            const std::vector<int>& in_rows = d.input_rows.touched();
            for (size_t t = 0; t < in_rows.size(); ++t) {
              linalg::Axpy(1.0, d.input_rows.Slot(static_cast<int>(t)),
                           model.input.RowSpan(in_rows[t]));
            }
            const std::vector<int>& out_rows = d.output_rows.touched();
            for (size_t t = 0; t < out_rows.size(); ++t) {
              linalg::Axpy(1.0, d.output_rows.Slot(static_cast<int>(t)),
                           model.output.RowSpan(out_rows[t]));
            }
          }
          batch_lo += batch_size;
          pair_base += batch_prefix[batch_size];
        }
        ++attempt;
        return loss;
      });
}

// ---- Input validation, one helper per objective.

// A skip-gram stream trains against a noise table over its whole
// vocabulary: the table must be non-empty and cover every counted token,
// and no token id may be negative.
Status CheckSkipGramInput(const StreamStats& stats,
                          const std::vector<double>& noise_weights) {
  if (noise_weights.empty()) {
    return Status::InvalidArgument(
        "SGNS training needs a non-empty vocabulary (noise table)");
  }
  if (stats.token_counts.size() > noise_weights.size()) {
    return Status::InvalidArgument(
        "SGNS token id exceeds the vocabulary (noise-table) size");
  }
  if (stats.negative_tokens > 0) {
    return Status::InvalidArgument("SGNS token id is negative");
  }
  return Status::Ok();
}

// A PV-DBOW document stream, counted once, with the noise table built
// from that count.
struct Documents {
  StreamStats stats;
  std::vector<double> noise;
  int vocab_size = 0;

  TrainInput Input(SentenceSource& source) const {
    return {source, stats, noise, static_cast<int>(stats.num_sentences),
            vocab_size, /*skipgram_window=*/false};
  }
};

// Makes the counting pass over a document stream and rejects what cannot
// be trained: a non-positive vocab_size, no documents, a token id beyond
// vocab_size or below 0, or only empty documents (an all-zero noise table
// cannot be sampled from).
StatusOr<Documents> CountDocuments(SentenceSource& source, int vocab_size,
                                   const SgnsOptions& options) {
  if (vocab_size <= 0) {
    return Status::InvalidArgument(
        "PV-DBOW training needs a positive vocab_size");
  }
  Documents docs;
  docs.vocab_size = vocab_size;
  docs.stats = CountStream(source, options.window,
                           /*skipgram_window=*/false, vocab_size);
  if (docs.stats.num_sentences == 0) {
    return Status::InvalidArgument(
        "PV-DBOW training needs at least one document");
  }
  if (static_cast<int64_t>(docs.stats.token_counts.size()) > vocab_size) {
    return Status::InvalidArgument("PV-DBOW token id exceeds vocab_size");
  }
  if (docs.stats.negative_tokens > 0) {
    return Status::InvalidArgument("PV-DBOW token id is negative");
  }
  if (docs.stats.total_tokens == 0) {
    return Status::InvalidArgument(
        "PV-DBOW training needs at least one token across the documents");
  }
  X2VEC_CHECK_LE(docs.stats.num_sentences, std::numeric_limits<int>::max());
  docs.noise =
      NoiseFromCounts(docs.stats.token_counts, vocab_size, options.noise_power);
  return docs;
}

}  // namespace

std::vector<int64_t> PositivePairPrefix(
    const std::vector<std::vector<int>>& sequences, int window,
    bool skipgram_window) {
  std::vector<int64_t> prefix(sequences.size() + 1, 0);
  for (size_t s = 0; s < sequences.size(); ++s) {
    prefix[s + 1] =
        prefix[s] + SequencePairs(static_cast<int64_t>(sequences[s].size()),
                                  window, skipgram_window);
  }
  return prefix;
}

Status ValidateSgnsOptions(const SgnsOptions& options) {
  return ValidateOptions({
      {"dimension", static_cast<double>(options.dimension),
       OptionCheck::Rule::kPositive},
      {"window", static_cast<double>(options.window),
       OptionCheck::Rule::kPositive},
      {"negatives", static_cast<double>(options.negatives),
       OptionCheck::Rule::kPositive},
      // Zero epochs is a valid "untrained baseline" request.
      {"epochs", static_cast<double>(options.epochs),
       OptionCheck::Rule::kNonNegative},
      {"learning_rate", options.learning_rate,
       OptionCheck::Rule::kPositiveFinite},
      {"noise_power", options.noise_power, OptionCheck::Rule::kFinite},
  });
}

SgnsModel TrainSgns(const Corpus& corpus, const SgnsOptions& options,
                    Rng& rng) {
  Budget unlimited;
  return *TrainSgnsBudgeted(corpus, options, rng, unlimited);
}

SgnsModel TrainPvDbow(const std::vector<std::vector<int>>& documents,
                      int vocab_size, const SgnsOptions& options, Rng& rng) {
  Budget unlimited;
  return *TrainPvDbowBudgeted(documents, vocab_size, options, rng, unlimited);
}

// The corpus-based trainers adapt their in-memory input through
// CorpusSource onto the streaming entry of the same mode. The adapter
// replays the corpus verbatim — same sentences, same order, same draws.

StatusOr<SgnsModel> TrainSgnsBudgeted(const Corpus& corpus,
                                      const SgnsOptions& options, Rng& rng,
                                      Budget& budget) {
  CorpusSource source(corpus.sentences);
  return TrainSgnsStreaming(
      source,
      CountStream(source, options.window, /*skipgram_window=*/true,
                  corpus.vocab.size()),
      corpus.vocab.NoiseDistribution(options.noise_power), options, rng,
      budget);
}

StatusOr<SgnsModel> TrainPvDbowBudgeted(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const SgnsOptions& options, Rng& rng, Budget& budget) {
  CorpusSource source(documents);
  return TrainPvDbowStreaming(source, vocab_size, options, rng, budget);
}

StatusOr<SgnsModel> TrainSgnsSharded(const Corpus& corpus,
                                     const SgnsOptions& options, uint64_t seed,
                                     Budget& budget) {
  CorpusSource source(corpus.sentences);
  return TrainSgnsShardedStreaming(
      source,
      CountStream(source, options.window, /*skipgram_window=*/true,
                  corpus.vocab.size()),
      corpus.vocab.NoiseDistribution(options.noise_power), options, seed,
      budget);
}

StatusOr<SgnsModel> TrainPvDbowSharded(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const SgnsOptions& options, uint64_t seed, Budget& budget) {
  CorpusSource source(documents);
  return TrainPvDbowShardedStreaming(source, vocab_size, options, seed,
                                     budget);
}

StatusOr<SgnsModel> TrainSgnsStreaming(SentenceSource& source,
                                       const StreamStats& stats,
                                       const std::vector<double>& noise_weights,
                                       const SgnsOptions& options, Rng& rng,
                                       Budget& budget) {
  if (Status status = CheckSkipGramInput(stats, noise_weights); !status.ok()) {
    return status;
  }
  const int rows = static_cast<int>(noise_weights.size());
  return Train({source, stats, noise_weights, rows, rows,
                /*skipgram_window=*/true},
               options, rng, budget);
}

StatusOr<SgnsModel> TrainSgnsShardedStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    uint64_t seed, Budget& budget) {
  if (Status status = CheckSkipGramInput(stats, noise_weights); !status.ok()) {
    return status;
  }
  const int rows = static_cast<int>(noise_weights.size());
  return TrainSharded({source, stats, noise_weights, rows, rows,
                       /*skipgram_window=*/true},
                      options, seed, budget);
}

StatusOr<SgnsModel> TrainPvDbowStreaming(SentenceSource& source,
                                         int vocab_size,
                                         const SgnsOptions& options, Rng& rng,
                                         Budget& budget) {
  StatusOr<Documents> docs = CountDocuments(source, vocab_size, options);
  if (!docs.ok()) return docs.status();
  return Train(docs->Input(source), options, rng, budget);
}

StatusOr<SgnsModel> TrainPvDbowShardedStreaming(SentenceSource& source,
                                                int vocab_size,
                                                const SgnsOptions& options,
                                                uint64_t seed, Budget& budget) {
  StatusOr<Documents> docs = CountDocuments(source, vocab_size, options);
  if (!docs.ok()) return docs.status();
  return TrainSharded(docs->Input(source), options, seed, budget);
}

}  // namespace x2vec::embed
