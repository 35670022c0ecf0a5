// Streaming walk-corpus pipeline (`ctest -L stream`): SentenceSource
// adapters, the walk-generator source against the materialised parallel
// corpus, the deterministic bounded shuffle buffer, the streaming counting
// pass, and end-to-end bit-identity of the streaming trainers with the
// in-memory paths over both graph backends.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "embed/corpus.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "embed/walks.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"

namespace x2vec::embed {
namespace {

using graph::CsrGraph;
using graph::Graph;
using graph::GraphView;

std::vector<std::vector<int>> Drain(SentenceSource& source) {
  std::vector<std::vector<int>> out;
  std::vector<int> sentence;
  source.Reset();
  while (source.Next(sentence)) out.push_back(sentence);
  return out;
}

TEST(StreamTest, CorpusSourceReplaysSentencesInOrder) {
  const std::vector<std::vector<int>> sentences = {{1, 2, 3}, {}, {4}, {5, 6}};
  CorpusSource source(sentences);
  EXPECT_EQ(Drain(source), sentences);
  // A second pass after Reset() replays the identical stream.
  EXPECT_EQ(Drain(source), sentences);
}

TEST(StreamTest, WalkSourceReplaysGenerateWalksParallelCorpus) {
  Rng rng = MakeRng(21);
  const Graph g = graph::ErdosRenyiGnp(30, 0.2, rng);
  WalkOptions options;
  options.walks_per_node = 3;
  options.walk_length = 8;
  const uint64_t seed = 99;
  const std::vector<std::vector<int>> materialized =
      GenerateWalksParallel(g, options, seed);

  WalkSource source(GraphView(g), options, seed);
  EXPECT_EQ(source.NumSentences(),
            static_cast<int64_t>(materialized.size()));
  EXPECT_EQ(Drain(source), materialized);
  EXPECT_EQ(Drain(source), materialized);  // Replay after Reset().
}

TEST(StreamTest, CsrAndAdjacencyListWalksAreIdentical) {
  // Property: same seed => identical walks over either backend, for both
  // uniform (DeepWalk) and biased (node2vec) stepping, across several
  // random graphs.
  Rng graph_rng = MakeRng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(25, 0.1 + 0.15 * trial, graph_rng);
    const CsrGraph csr = CsrGraph::FromGraph(g);
    WalkOptions options;
    options.walks_per_node = 2;
    options.walk_length = 10;
    options.p = trial % 2 == 0 ? 1.0 : 0.5;
    options.q = trial % 2 == 0 ? 1.0 : 2.0;
    const uint64_t seed = 1000 + trial;
    EXPECT_EQ(GenerateWalksParallel(GraphView(csr), options, seed),
              GenerateWalksParallel(g, options, seed))
        << "trial " << trial;
  }
}

TEST(StreamTest, WalksTerminateAtCsrDeadEndsAndIsolatedVertices) {
  // Vertex 3 is isolated; the directed chain 0 -> 1 -> 2 dead-ends at 2.
  const CsrGraph csr =
      CsrGraph::FromEdges(4, {{0, 1}, {1, 2}}, /*directed=*/true);
  const GraphView view(csr);
  WalkOptions options;
  options.walks_per_node = 1;
  options.walk_length = 10;

  Rng rng = MakeRng(1);
  EXPECT_EQ(Node2VecStep(view, /*previous=*/-1, /*current=*/3, options, rng),
            -1);
  EXPECT_EQ(Node2VecStep(view, /*previous=*/1, /*current=*/2, options, rng),
            -1);

  // Walks stop early instead of looping or crashing; every start vertex
  // still yields exactly one sentence.
  EXPECT_EQ(GenerateWalk(view, 3, options, rng), std::vector<int>{3});
  EXPECT_EQ(GenerateWalk(view, 0, options, rng),
            (std::vector<int>{0, 1, 2}));
  WalkSource source(view, options, /*seed=*/7);
  const std::vector<std::vector<int>> walks = Drain(source);
  ASSERT_EQ(walks.size(), 4u);
  std::multiset<int> starts;
  for (const std::vector<int>& walk : walks) {
    ASSERT_FALSE(walk.empty());
    starts.insert(walk.front());
  }
  EXPECT_EQ(starts, (std::multiset<int>{0, 1, 2, 3}));
}

TEST(StreamTest, ShuffleBufferYieldsAPermutationAndReplays) {
  std::vector<std::vector<int>> sentences;
  for (int i = 0; i < 100; ++i) sentences.push_back({i});
  CorpusSource upstream(sentences);
  ShuffleBufferSource shuffled(upstream, /*capacity=*/16, /*seed=*/3);

  const std::vector<std::vector<int>> first = Drain(shuffled);
  ASSERT_EQ(first.size(), sentences.size());
  std::vector<std::vector<int>> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, sentences);      // A permutation: nothing lost or duped.
  EXPECT_NE(first, sentences);       // And actually shuffled at capacity 16.
  EXPECT_EQ(Drain(shuffled), first);  // Reset() replays the same order.
}

TEST(StreamTest, ShuffleBufferCapacityOneIsPassThrough) {
  const std::vector<std::vector<int>> sentences = {{1}, {2}, {3}, {4}};
  CorpusSource upstream(sentences);
  ShuffleBufferSource shuffled(upstream, /*capacity=*/1, /*seed=*/3);
  EXPECT_EQ(Drain(shuffled), sentences);
}

TEST(StreamTest, CountStreamMatchesPositivePairPrefix) {
  const std::vector<std::vector<int>> sentences = {
      {0, 1, 2, 3, 4}, {2, 2}, {}, {5, 0, 1}};
  for (const bool skipgram : {true, false}) {
    CorpusSource source(sentences);
    const StreamStats stats =
        CountStream(source, /*window=*/2, skipgram, /*vocab_size_hint=*/6);
    EXPECT_EQ(stats.num_sentences, 4);
    EXPECT_EQ(stats.total_tokens, 10);
    EXPECT_EQ(stats.pairs_per_epoch,
              PositivePairPrefix(sentences, 2, skipgram).back());
    ASSERT_EQ(stats.token_counts.size(), 6u);
    EXPECT_EQ(stats.token_counts[0], 2);
    EXPECT_EQ(stats.token_counts[2], 3);
    EXPECT_EQ(stats.token_counts[5], 1);
  }
}

TEST(StreamTest, NoiseFromCountsIsUnigramPowerOfTheCounts) {
  const std::vector<std::vector<int>> documents = {{0, 1, 1, 3}, {3, 3, 0}};
  CorpusSource source(documents);
  const StreamStats stats =
      CountStream(source, /*window=*/1, /*skipgram_window=*/false, 5);
  const std::vector<double> streamed =
      NoiseFromCounts(stats.token_counts, 5, 0.75);
  // Bit-equal, not approximately equal; tokens 2 and 4 never occur.
  const std::vector<double> expected = {std::pow(2.0, 0.75),
                                        std::pow(2.0, 0.75), 0.0,
                                        std::pow(3.0, 0.75), 0.0};
  EXPECT_EQ(streamed, expected);
  // base_count 1 seeds every token with one count (the walk convention).
  EXPECT_EQ(NoiseFromCounts(stats.token_counts, 5, 0.75, /*base_count=*/1),
            (std::vector<double>{std::pow(3.0, 0.75), std::pow(3.0, 0.75),
                                 1.0, std::pow(4.0, 0.75), 1.0}));
}

// The materialised reference the streaming walk embedders must reproduce:
// the GenerateWalksParallel corpus under a string Vocabulary that counts
// every vertex once before its walk occurrences, trained by
// TrainSgnsSharded with the streaming path's walk and trainer seeds.
linalg::Matrix InMemoryWalkEmbedding(const Graph& g,
                                     const Node2VecOptions& options,
                                     uint64_t seed) {
  Corpus corpus;
  for (int v = 0; v < g.NumVertices(); ++v) {
    corpus.vocab.Add("n" + std::to_string(v));
  }
  corpus.sentences = GenerateWalksParallel(g, options.walks, MixSeed(seed, 0));
  for (const std::vector<int>& walk : corpus.sentences) {
    for (const int v : walk) corpus.vocab.Add("n" + std::to_string(v));
  }
  Budget unlimited;
  StatusOr<SgnsModel> model =
      TrainSgnsSharded(corpus, options.sgns, MixSeed(seed, 1), unlimited);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return model.ok() ? std::move(model->input) : linalg::Matrix();
}

TEST(StreamTest, StreamingTrainerMatchesInMemoryOnCorpusSource) {
  // Streaming the walks must reproduce training TrainSgnsSharded on the
  // materialised walk corpus bit for bit: same counting, same noise
  // table, same streams.
  Rng rng = MakeRng(13);
  const Graph g = graph::ErdosRenyiGnp(20, 0.3, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  const linalg::Matrix in_memory =
      InMemoryWalkEmbedding(g, options, /*seed=*/42);

  Budget unlimited;
  StatusOr<linalg::Matrix> streaming = DeepWalkEmbeddingStreaming(
      GraphView(g), options, /*seed=*/42, unlimited);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(*streaming, in_memory);
}

TEST(StreamTest, StreamingNode2VecOverCsrMatchesInMemoryOverGraph) {
  Rng rng = MakeRng(29);
  const Graph g = graph::ConnectedGnp(18, 0.25, rng);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.walks.p = 0.5;
  options.walks.q = 2.0;
  options.sgns.dimension = 8;
  options.sgns.epochs = 1;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  const linalg::Matrix reference =
      InMemoryWalkEmbedding(g, options, /*seed=*/4);

  Budget budget;
  StatusOr<linalg::Matrix> streamed =
      Node2VecEmbeddingStreaming(GraphView(csr), options, /*seed=*/4, budget);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(*streamed, reference);
}

TEST(StreamTest, ShuffledStreamingIsBitIdenticalAcrossThreadCounts) {
  Rng rng = MakeRng(31);
  const Graph g = graph::ErdosRenyiGnp(24, 0.25, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  linalg::Matrix reference;
  for (const int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    Budget budget;
    StatusOr<linalg::Matrix> embedding = DeepWalkEmbeddingStreaming(
        GraphView(g), options, /*seed=*/77, budget, /*shuffle_buffer=*/8);
    ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
    if (threads == 1) {
      reference = std::move(*embedding);
    } else {
      EXPECT_EQ(*embedding, reference) << "threads=" << threads;
    }
  }
  SetThreadCount(0);  // Restore the default for other tests.

  // And the shuffled run really differs from the unshuffled one (the
  // shuffle stage changed the sentence order, not just replayed it).
  Budget budget;
  StatusOr<linalg::Matrix> unshuffled =
      DeepWalkEmbeddingStreaming(GraphView(g), options, /*seed=*/77, budget);
  ASSERT_TRUE(unshuffled.ok());
  EXPECT_NE(*unshuffled, reference);
}

TEST(StreamTest, StreamingBudgetSemanticsMatchParallel) {
  Rng rng = MakeRng(17);
  const Graph g = graph::ErdosRenyiGnp(12, 0.3, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 1;
  options.walks.walk_length = 4;
  options.sgns.dimension = 4;
  options.sgns.epochs = 1;

  // Fewer units than walks: exhausted before training starts.
  Budget tiny = Budget::WorkUnits(3);
  StatusOr<linalg::Matrix> result =
      DeepWalkEmbeddingStreaming(GraphView(g), options, /*seed=*/1, tiny);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace x2vec::embed
