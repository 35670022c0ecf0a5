#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"

namespace x2vec::wl {

/// One round of a joint folklore k-WL refinement.
struct KwlRound {
  int round = 0;       ///< 0 is the atomic-type colouring.
  int num_colors = 0;  ///< Distinct tuple colours over all graphs.
  /// histograms[i]: graph i's (colour, tuple count) pairs, sorted by colour.
  std::vector<std::vector<std::pair<int, int>>> histograms;
};

/// Folklore k-WL (Section 3.3) run jointly on `graphs` in one colour
/// namespace. Round 0 colours each k-tuple by its atomic type: the vertex
/// labels plus equality and adjacency of every ordered pair of positions.
/// Round r+1 colours it by its round-r colour and the multiset, over all
/// vertices w, of (c(t[1->w]), ..., c(t[k->w])); for k = 1 each entry is
/// paired with w's relation to the tuple's vertex (colour refinement).
/// Signatures live in one flat arena per graph, built in parallel per
/// graph, and are renumbered by one sort of (hash, graph, tuple) keys with
/// exact compares, so colour ids do not depend on the thread count.
///
/// Calls `visit` on rounds 0..max_rounds in order and stops early when it
/// returns false. One work unit is one tuple of one graph in one round,
/// charged before that round allocates or touches its tuples; returns
/// kResourceExhausted once `budget` runs out. More than 2^31 - 1 tuples
/// in total is a fatal error (a budget that admits them cannot be met).
[[nodiscard]] Status RefineJointly(
    const std::vector<const graph::Graph*>& graphs, int k, int max_rounds,
    Budget& budget, const std::function<bool(const KwlRound&)>& visit);

/// Result of running k-WL jointly on two graphs. The variant is the
/// folklore k-WL of Theorem 3.1: k-WL does not distinguish G and H iff G
/// and H are C^{k+1}-equivalent. k=1 coincides with colour refinement.
struct KwlResult {
  bool distinguishes = false;
  /// First round whose colour histograms differ (-1 if none; round 0 is
  /// the atomic-type colouring).
  int distinguishing_round = -1;
  int rounds_to_stable = 0;
  int num_colors = 0;  ///< Stable number of tuple colours (joint namespace).
};

/// Refines V(G)^k and V(H)^k jointly until the histograms differ or the
/// colour count stops growing, under `budget` (see RefineJointly).
[[nodiscard]] StatusOr<KwlResult> KwlCompare(const graph::Graph& g,
                                             const graph::Graph& h, int k,
                                             Budget& budget);

/// The unlimited-budget call.
KwlResult KwlCompare(const graph::Graph& g, const graph::Graph& h, int k);

/// Convenience: true iff k-WL distinguishes g and h.
bool KwlDistinguishes(const graph::Graph& g, const graph::Graph& h, int k);

}  // namespace x2vec::wl
