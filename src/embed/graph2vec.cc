#include "embed/graph2vec.h"

#include <algorithm>

#include "wl/color_refinement.h"

namespace x2vec::embed {
namespace {

struct WlDocuments {
  std::vector<std::vector<int>> documents;
  int vocab_size = 0;
};

// Jointly refines the dataset and turns each graph into its bag of
// (round, colour) words — the front half of graph2vec.
WlDocuments BuildWlDocuments(const std::vector<graph::Graph>& graphs,
                             int wl_rounds) {
  // Joint refinement for shared colour ids.
  graph::Graph joint = graphs[0];
  std::vector<int> offsets = {0};
  for (size_t i = 1; i < graphs.size(); ++i) {
    offsets.push_back(joint.NumVertices());
    joint = graph::DisjointUnion(joint, graphs[i]);
  }
  wl::RefinementOptions wl_options;
  wl_options.max_rounds = wl_rounds;
  const wl::RefinementResult refinement =
      wl::ColorRefinement(joint, wl_options);

  // Word id = (round, colour) flattened with a per-round offset.
  const int rounds = static_cast<int>(refinement.round_colors.size());
  std::vector<int> round_offset(rounds, 0);
  WlDocuments out;
  for (int r = 0; r < rounds; ++r) {
    round_offset[r] = out.vocab_size;
    out.vocab_size += refinement.colors_per_round[r];
  }

  out.documents.resize(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    for (int v = 0; v < graphs[g].NumVertices(); ++v) {
      for (int r = 0; r < rounds; ++r) {
        out.documents[g].push_back(
            round_offset[r] + refinement.round_colors[r][offsets[g] + v]);
      }
    }
  }
  return out;
}

}  // namespace

linalg::Matrix Graph2VecEmbedding(const std::vector<graph::Graph>& graphs,
                                  const Graph2VecOptions& options, Rng& rng) {
  Budget unlimited;
  return *Graph2VecEmbeddingBudgeted(graphs, options, rng, unlimited);
}

StatusOr<linalg::Matrix> Graph2VecEmbeddingBudgeted(
    const std::vector<graph::Graph>& graphs, const Graph2VecOptions& options,
    Rng& rng, Budget& budget) {
  if (graphs.empty()) {
    return Status::InvalidArgument(
        "graph2vec needs at least one input graph");
  }
  if (budget.Exhausted()) {
    return budget.ExhaustedError("graph2vec embedding");
  }
  const WlDocuments wl = BuildWlDocuments(graphs, options.wl_rounds);
  // The WL documents feed the trainer through the stream interface: the
  // adapter replays them verbatim, so the embedding is bit-identical to
  // the historical materialised path while exercising the same trainer
  // code an out-of-core document source would.
  CorpusSource source(wl.documents);
  StatusOr<SgnsModel> model =
      TrainPvDbowStreaming(source, wl.vocab_size, options.sgns, rng, budget);
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

}  // namespace x2vec::embed
