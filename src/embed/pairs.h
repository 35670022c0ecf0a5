#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace x2vec::embed {

// The positive pairs of one sentence, shared by the counting pass
// (CountStream), the schedule prefix (PositivePairPrefix) and both SGNS
// trainers. Internal to embed/: not exported by api/x2vec.h.
//
// Skip-gram (skipgram_window set): position pos of a length-n sentence
// pairs its token with every position in [max(0, pos-window),
// min(n-1, pos+window)] other than itself. PV-DBOW: the sentence is a
// document and each of its tokens pairs with the document's own row.

// Number of pairs ForEachPair yields for a length-`len` sentence. Each
// side of a skip-gram window contributes min(i, window) pairs at distance
// i from the sentence edge, so the total is 2 * sum_{i<len} min(i, window).
inline int64_t SequencePairs(int64_t len, int window, bool skipgram_window) {
  if (!skipgram_window) return len;
  if (len - 1 <= window) return len * (len - 1);
  const int64_t w = window;
  return w * (w + 1) + 2 * (len - 1 - w) * w;
}

// Calls visit(pos, centre_row, context_token) for every pair of `seq` in
// training order: positions left to right, window partners left to right.
// The centre row is seq[pos] for skip-gram and `doc_row` for PV-DBOW.
// Stops as soon as visit returns false; returns whether it ran to the end.
template <typename Visit>
bool ForEachPair(const std::vector<int>& seq, int doc_row, int window,
                 bool skipgram_window, Visit&& visit) {
  const int len = static_cast<int>(seq.size());
  for (int pos = 0; pos < len; ++pos) {
    if (!skipgram_window) {
      if (!visit(pos, doc_row, seq[pos])) return false;
      continue;
    }
    const int lo = std::max(0, pos - window);
    const int hi = std::min(len - 1, pos + window);
    for (int other = lo; other <= hi; ++other) {
      if (other != pos && !visit(pos, seq[pos], seq[other])) return false;
    }
  }
  return true;
}

}  // namespace x2vec::embed
