#include "kernel/kwl_kernel.h"

#include <cstdint>

#include "base/check.h"
#include "kernel/wl_kernel.h"
#include "wl/kwl.h"

namespace x2vec::kernel {

linalg::Matrix TwoWlKernelMatrix(const std::vector<graph::Graph>& graphs,
                                 int rounds) {
  X2VEC_CHECK(!graphs.empty());
  X2VEC_CHECK_GE(rounds, 0);
  std::vector<const graph::Graph*> pointers;
  for (const graph::Graph& g : graphs) pointers.push_back(&g);

  // Per-graph (round, colour) -> count features, keyed round << 32 | colour
  // so that appending round by round keeps every vector sorted. The Gram
  // entries are sums of integer products below 2^53, so they are exact
  // whatever the colour ids and the summation order.
  std::vector<SparseVector> features(graphs.size());
  int previous = -1;
  Budget unlimited;
  const Status status = wl::RefineJointly(
      pointers, 2, rounds, unlimited, [&](const wl::KwlRound& round) {
        // A stable colour count means a stable partition: later rounds only
        // replicate the previous histograms, so stop without them.
        if (round.num_colors == previous) return false;
        previous = round.num_colors;
        for (size_t i = 0; i < graphs.size(); ++i) {
          for (const auto& [color, count] : round.histograms[i]) {
            features[i].entries.emplace_back(
                static_cast<int64_t>(round.round) << 32 | color, count);
          }
        }
        return true;
      });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return GramFromSparse(features);
}

}  // namespace x2vec::kernel
