// node2vec_serial: streaming biased-walk + skip-gram training over a
// generated planted-partition CsrGraph, and the probes of the layers
// beneath it (graph/csr, embed/walks, embed/stream, embed/sgns,
// base/parallel, base/rng, linalg/kernels).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "embed/walks.h"
#include "graph/csr.h"
#include "linalg/kernels.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using x2vec::Budget;
using x2vec::MixSeed;
using x2vec::embed::Node2VecOptions;
using x2vec::graph::CsrGraph;
using x2vec::graph::GraphView;

constexpr int64_t kShuffle = 512;  ///< Shuffle-buffer capacity in walks.

struct TrainingSpec {
  ref::PlantedPartition graph;
  Node2VecOptions options;
  uint64_t train_seed = 0;
};

// Skewed degrees (16 on average, hubs of degree ~860 at low ids), biased
// second-order steps and a shuffle stage, all on the calling thread.
TrainingSpec Node2VecSpec(uint64_t seed) {
  TrainingSpec spec;
  spec.graph.n = 3000;
  spec.graph.blocks = 4;
  spec.graph.edges = 8 * spec.graph.n;
  spec.graph.in_block = 0.6;
  spec.graph.skew = 2.5;
  spec.graph.seed = ref::Mix(seed ^ 0xe1);
  spec.options.walks.walks_per_node = 2;
  spec.options.walks.walk_length = 20;
  spec.options.walks.p = 0.5;
  spec.options.walks.q = 2.0;
  spec.options.sgns.dimension = 32;
  spec.options.sgns.window = 4;
  spec.options.sgns.negatives = 5;
  spec.options.sgns.epochs = 2;
  spec.train_seed = ref::Mix(seed ^ 0xe2);
  return spec;
}

CsrGraph BuildCsr(const ref::PlantedPartition& graph) {
  return CsrGraph::FromEdgeGenerator(
      graph.n, graph.edges, [&graph](int64_t i) { return graph.Edge(i); });
}

int64_t TokensPerCall(const TrainingSpec& spec) {
  return spec.graph.n * spec.options.walks.walks_per_node *
         spec.options.walks.walk_length * spec.options.sgns.epochs;
}

class TrainingWorkload final : public Workload {
 public:
  explicit TrainingWorkload(TrainingSpec spec) : spec_(std::move(spec)) {
    x2vec::SetThreadCount(1);
  }

  void Setup() override { csr_ = BuildCsr(spec_.graph); }
  int SetupReps() const override { return 16; }
  int SetupBatch() const override { return 20; }

  void Measure(double seconds, SpanLog* spans, Result& result) override {
    call_seconds_.clear();
    const double start = Now();
    do {
      ScopedSpan round(spans, "round");
      const double call_start = Now();
      x2vec::StatusOr<x2vec::linalg::Matrix> embedding = [&] {
        ScopedSpan trainer(spans, "trainer");
        Budget budget;
        return x2vec::embed::Node2VecEmbeddingStreaming(
            GraphView(csr_), spec_.options, spec_.train_seed, budget,
            kShuffle);
      }();
      call_seconds_.push_back(Now() - call_start);
      ScopedSpan check(spans, "check");
      result.CountOp(embedding.ok() && CheckEmbedding(*embedding, result));
      if (!embedding.ok()) {
        result.notes.push_back("trainer: " + embedding.status().ToString());
      }
    } while (Now() - start < seconds);
  }

  // Throughput is taken from the median call, so a burst of load from
  // outside the process moves it less than a mean over the phase would.
  void Report(Result& result) override {
    result.Add("throughput_per_s",
               static_cast<double>(TokensPerCall(spec_)) /
                   Median(call_seconds_),
               "1/s");
    result.Add("quality", quality_, "fraction");
    AddCallLatency(result);
  }

  void Check(Result& result) override {
    const ref::Adjacency adjacency = ref::AdjacencyOf(spec_.graph);
    // The exact walk stream the trainer consumes: WalkSource under the
    // trainer's walk seed.
    x2vec::embed::WalkSource walks(GraphView(csr_), spec_.options.walks,
                                   MixSeed(spec_.train_seed, 0));
    walks.Reset();
    std::vector<int> walk;
    int64_t tokens = 0;
    int64_t sentences = 0;
    std::string first_error;
    while (walks.Next(walk)) {
      ++sentences;
      tokens += static_cast<int64_t>(walk.size());
      if (first_error.empty()) {
        first_error = ref::ValidateWalk(adjacency, walk,
                                        spec_.options.walks.walk_length);
      }
    }
    result.Check(first_error.empty(), "walk validity: " + first_error);
    const int64_t expected = spec_.graph.n *
                             spec_.options.walks.walks_per_node *
                             spec_.options.walks.walk_length;
    result.Check(tokens == expected,
                 "walk token total " + std::to_string(tokens) + " != n * " +
                     "walks_per_node * walk_length = " +
                     std::to_string(expected));
    result.Check(sentences == walks.NumSentences(), "walk sentence count");
    const double chance = 1.0 / spec_.graph.blocks;
    result.Check(!first_ || quality_ > 2.0 * chance,
                 "same-block rate " + std::to_string(quality_) +
                     " not well above chance " + std::to_string(chance));
  }

 private:
  // Shape, finiteness and determinism (every call equals the first).
  bool CheckEmbedding(const x2vec::linalg::Matrix& embedding, Result& result) {
    const bool shaped =
        result.Check(embedding.rows() == spec_.graph.n &&
                         embedding.cols() == spec_.options.sgns.dimension,
                     "embedding shape");
    const bool finite = result.Check(embedding.AllFinite(), "finite embedding");
    if (!shaped || !finite) return false;
    if (!first_) {
      first_ = embedding.data();
      quality_ = ref::SameBlockRate(*first_, embedding.rows(),
                                    embedding.cols(), spec_.graph.blocks);
      return true;
    }
    return result.Check(embedding.data() == *first_,
                        "repeated trainer call is bit-identical");
  }

  void AddCallLatency(Result& result) const {
    result.Add("query_p50_us", Percentile(call_seconds_, 0.5) * 1e6, "us");
    result.Add("query_p99_us", P99OrMedian(call_seconds_) * 1e6, "us");
    std::fprintf(stderr, "trainer calls timed: %zu\n", call_seconds_.size());
  }

  TrainingSpec spec_;
  CsrGraph csr_;
  std::optional<std::vector<double>> first_;
  double quality_ = 0.0;
  std::vector<double> call_seconds_;
};

// ---- Per-layer probes ------------------------------------------------------

// One pass over `source`; returns the tokens it yielded.
int64_t Drain(x2vec::embed::SentenceSource& source) {
  source.Reset();
  std::vector<int> sentence;
  int64_t tokens = 0;
  while (source.Next(sentence)) tokens += static_cast<int64_t>(sentence.size());
  return tokens;
}

struct SgnsProbe {
  double seconds = 0.0;
  int64_t pairs_per_epoch = 0;
  bool ok = false;
};

// TrainSgnsShardedStreaming over pre-drawn walks, so walk generation is
// outside the timed call.
SgnsProbe TimeSgns(const TrainingSpec& spec, const CsrGraph& csr, int threads,
                   int reps) {
  const std::vector<std::vector<int>> corpus =
      x2vec::embed::GenerateWalksParallel(GraphView(csr), spec.options.walks,
                                          MixSeed(spec.train_seed, 0));
  x2vec::embed::CorpusSource source(corpus);
  const x2vec::embed::StreamStats stats = x2vec::embed::CountStream(
      source, spec.options.sgns.window, true, static_cast<int>(spec.graph.n));
  const std::vector<double> noise = x2vec::embed::NoiseFromCounts(
      stats.token_counts, static_cast<int>(spec.graph.n),
      spec.options.sgns.noise_power, 1);
  x2vec::SetThreadCount(threads);
  SgnsProbe probe;
  probe.pairs_per_epoch = stats.pairs_per_epoch;
  probe.ok = true;
  probe.seconds = MedianSeconds(reps, [&] {
    Budget budget;
    probe.ok = probe.ok && x2vec::embed::TrainSgnsShardedStreaming(
                               source, stats, noise, spec.options.sgns,
                               MixSeed(spec.train_seed, 1), budget)
                               .ok();
  });
  x2vec::SetThreadCount(1);
  return probe;
}

}  // namespace

int WorkloadThreads() { return std::min(4, x2vec::HardwareThreads()); }

std::unique_ptr<Workload> MakeTrainingWorkload(const Options& options) {
  if (options.workload != "node2vec_serial") return nullptr;
  return std::make_unique<TrainingWorkload>(Node2VecSpec(options.seed));
}

void TrainingLayers(const Options& options, Result& result) {
  const TrainingSpec spec = Node2VecSpec(options.seed);
  x2vec::SetThreadCount(1);

  CsrGraph csr;
  result.Add("csr.build_s",
             MedianSeconds(15, [&] { csr = BuildCsr(spec.graph); }), "s");

  x2vec::embed::WalkSource walks(GraphView(csr), spec.options.walks,
                                 MixSeed(spec.train_seed, 0));
  int64_t tokens = 0;
  const double drain = MedianSeconds(3, [&] { tokens = Drain(walks); });
  const int64_t steps = tokens - walks.NumSentences();
  result.Add("walks.steps_per_s", static_cast<double>(steps) / drain, "1/s");
  result.Add("stream.count_s", MedianSeconds(3, [&] {
               (void)x2vec::embed::CountStream(
                   walks, spec.options.sgns.window, true,
                   static_cast<int>(spec.graph.n));
             }),
             "s");

  // The shuffle stage over pre-drawn walks, so that walk generation stays
  // out of the time.
  {
    const std::vector<std::vector<int>> corpus =
        x2vec::embed::GenerateWalksParallel(GraphView(csr), spec.options.walks,
                                            MixSeed(spec.train_seed, 0));
    x2vec::embed::CorpusSource upstream(corpus);
    x2vec::embed::ShuffleBufferSource shuffled(upstream, kShuffle,
                                               MixSeed(spec.train_seed, 2));
    result.Add("stream.shuffle_s",
               MedianSeconds(5, [&] { (void)Drain(shuffled); }), "s");
  }

  // The trainer on 1 thread (the workload's setting) and on the pool's
  // WorkloadThreads(): the pool's scaling on the same walks.
  const SgnsProbe one = TimeSgns(spec, csr, 1, 3);
  const SgnsProbe many = TimeSgns(spec, csr, WorkloadThreads(), 3);
  result.CountOp(one.ok);
  result.CountOp(many.ok);
  const double updates = static_cast<double>(one.pairs_per_epoch) *
                         spec.options.sgns.epochs *
                         (1 + spec.options.sgns.negatives);
  result.Add("sgns.train_s", one.seconds, "s");
  result.Add("sgns.updates_per_s", updates / one.seconds, "1/s");
  result.Add("sgns.pairs_per_epoch",
             static_cast<double>(one.pairs_per_epoch), "count");
  result.Add("sgns.train_pool_s", many.seconds, "s");
  result.Add("parallel.efficiency",
             one.seconds / (WorkloadThreads() * many.seconds), "ratio");

  // base/rng: per-work-item stream forks and alias-table draws from the
  // workload's noise table.
  {
    constexpr int kForks = 200000;
    uint64_t sink = 0;
    const double fork = MedianSeconds(3, [&] {
      for (int i = 0; i < kForks; ++i) {
        sink ^= x2vec::Rng::Fork(spec.train_seed, i)();
      }
    });
    result.Add("rng.fork_per_s", kForks / fork, "1/s");
    x2vec::embed::WalkSource counted(GraphView(csr), spec.options.walks,
                                     MixSeed(spec.train_seed, 0));
    const x2vec::embed::StreamStats stats =
        x2vec::embed::CountStream(counted, spec.options.sgns.window, true,
                                  static_cast<int>(spec.graph.n));
    const x2vec::AliasTable table(x2vec::embed::NoiseFromCounts(
        stats.token_counts, static_cast<int>(spec.graph.n),
        spec.options.sgns.noise_power, 1));
    constexpr int kSamples = 2000000;
    x2vec::Rng rng(spec.graph.seed);
    const double alias = MedianSeconds(3, [&] {
      for (int i = 0; i < kSamples; ++i) {
        sink += static_cast<uint64_t>(table.Sample(rng));
      }
    });
    result.Add("rng.alias_sample_per_s", kSamples / alias, "1/s");
    if (sink == 42) std::fprintf(stderr, " ");  // Keeps the loops observable.
  }

  // linalg/kernels: the trainer's pair update at the workload dimension.
  {
    const int dim = spec.options.sgns.dimension;
    constexpr int kRows = 4096;
    constexpr int kCalls = 1000000;
    const x2vec::linalg::Matrix center =
        x2vec::linalg::Matrix::Random(kRows, dim, 0.1, spec.graph.seed);
    const x2vec::linalg::Matrix context =
        x2vec::linalg::Matrix::Random(kRows, dim, 0.1, spec.train_seed);
    std::vector<double> gradient(static_cast<size_t>(dim));
    std::vector<double> delta(static_cast<size_t>(dim));
    double loss = 0.0;
    const double seconds = MedianSeconds(3, [&] {
      for (int i = 0; i < kCalls; ++i) {
        const int a =
            static_cast<int>(ref::Mix(static_cast<uint64_t>(i)) % kRows);
        const int b = (a * 7 + i) % kRows;
        loss += x2vec::linalg::SgdPairUpdateDelta(
            center.ConstRowSpan(a), context.ConstRowSpan(b),
            i % 6 == 0 ? 1.0 : 0.0, 1e-3, gradient, delta);
      }
    });
    result.Add("kernels.sgd_pair_update_delta_per_s", kCalls / seconds, "1/s");
    if (!std::isfinite(loss)) std::fprintf(stderr, "non-finite kernel loss\n");
  }
}

}  // namespace perfbench
