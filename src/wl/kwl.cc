#include "wl/kwl.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>

#include "base/check.h"
#include "base/parallel.h"

namespace x2vec::wl {
namespace {

using graph::Graph;

constexpr std::string_view kOperation = "k-WL refinement";
constexpr int64_t kMaxTuples = INT_MAX;  // Colour ids and counts are ints.

// n^k, saturated just past kMaxTuples so a large k cannot overflow.
int64_t TupleCount(int n, int k) {
  int64_t count = 1;
  for (int i = 0; i < k && count <= kMaxTuples; ++i) count *= n;
  return std::min(count, kMaxTuples + 1);
}

// 2 if u == v, 1 if u->v is an edge, else 0.
int Relation(const Graph& g, int u, int v) {
  return u == v ? 2 : g.HasEdge(u, v) ? 1 : 0;
}

// One graph's tuple colours and signature arena. Tuples of V^k are
// addressed by their mixed-radix index in base n, position 0 first.
struct Tuples {
  const Graph* graph = nullptr;
  int64_t count = 0;
  std::vector<int> colors;
  int width = 0;           // Signature ints per tuple.
  std::vector<int> arena;  // count * width.
  std::vector<uint64_t> hashes;

  std::span<const int> Signature(int64_t t) const {
    return {arena.data() + t * width, static_cast<size_t>(width)};
  }
};

void Decode(int64_t index, int n, std::vector<int>& tuple) {
  for (int i = static_cast<int>(tuple.size()) - 1; i >= 0; --i) {
    tuple[i] = static_cast<int>(index % n);
    index /= n;
  }
}

// Round 0: the vertex labels, then the relation of every ordered pair of
// positions. Identical encodings across graphs share a colour.
void AtomicTypes(Tuples& s, int k) {
  const Graph& g = *s.graph;
  s.colors.resize(s.count);
  s.width = k * k;
  s.arena.resize(s.count * s.width);
  std::vector<int> tuple(k);
  for (int64_t t = 0; t < s.count; ++t) {
    Decode(t, g.NumVertices(), tuple);
    int* out = s.arena.data() + t * s.width;
    for (int i = 0; i < k; ++i) *out++ = g.VertexLabel(tuple[i]);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        if (i != j) *out++ = Relation(g, tuple[i], tuple[j]);
      }
    }
  }
}

// Writes `count` rows of `width` non-negative ints, stored back to back, to
// `out` in lexicographic order. Pairs sort as packed 64-bit keys, wider
// rows by index; `keys` is scratch reused across tuples.
void SortRows(const int* rows, int count, int width, int* out,
              std::vector<uint64_t>& keys) {
  keys.resize(count);
  if (width == 2) {
    for (int r = 0; r < count; ++r) {
      keys[r] = static_cast<uint64_t>(rows[2 * r]) << 32 |
                static_cast<uint32_t>(rows[2 * r + 1]);
    }
    std::sort(keys.begin(), keys.end());
    for (int r = 0; r < count; ++r) {
      out[2 * r] = static_cast<int>(keys[r] >> 32);
      out[2 * r + 1] = static_cast<int>(keys[r] & 0xffffffffu);
    }
    return;
  }
  std::iota(keys.begin(), keys.end(), 0);
  std::sort(keys.begin(), keys.end(), [&](uint64_t a, uint64_t b) {
    return std::lexicographical_compare(rows + a * width, rows + (a + 1) * width,
                                        rows + b * width, rows + (b + 1) * width);
  });
  for (int r = 0; r < count; ++r) {
    std::copy_n(rows + keys[r] * width, width, out + r * width);
  }
}

// Round r+1: the tuple's colour, then one sorted row per vertex w of the
// colours of t[i->w]. For k = 1 the row pairs c(w) with w's relation to
// t[0]; for k >= 2 the substituted tuples' atomic types already hold it.
void Signatures(Tuples& s, int k) {
  const int n = s.graph->NumVertices();
  const int width = k == 1 ? 2 : k;
  s.width = 1 + n * width;
  s.arena.resize(s.count * s.width);
  std::vector<int64_t> stride(k, 1);
  for (int i = k - 2; i >= 0; --i) stride[i] = stride[i + 1] * n;
  std::vector<int> tuple(k);
  std::vector<int> rows(static_cast<size_t>(n) * width);
  std::vector<uint64_t> keys;
  for (int64_t t = 0; t < s.count; ++t) {
    Decode(t, n, tuple);
    for (int w = 0; w < n; ++w) {
      int* row = rows.data() + w * width;
      for (int i = 0; i < k; ++i) row[i] = s.colors[t + (w - tuple[i]) * stride[i]];
      if (k == 1) row[1] = Relation(*s.graph, w, tuple[0]);
    }
    int* out = s.arena.data() + t * s.width;
    out[0] = s.colors[t];
    SortRows(rows.data(), n, width, out + 1, keys);
  }
}

uint64_t Hash(std::span<const int> ints) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const int x : ints) {
    h = (h ^ static_cast<uint32_t>(x)) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

struct Key {
  uint64_t hash;
  int graph;
  int tuple;
  auto operator<=>(const Key&) const = default;
};

// New colours from one sort of every graph's (hash, graph, tuple) keys: a
// run of equal hashes is one colour unless exact compares find a
// collision, in which case the run is sorted by signature. Ids grow along
// the sorted keys, so each graph's histogram comes out sorted by colour.
void Renumber(std::vector<Tuples>& all, KwlRound& round) {
  std::vector<Key> keys;
  for (size_t g = 0; g < all.size(); ++g) {
    for (int64_t t = 0; t < all[g].count; ++t) {
      keys.push_back({all[g].hashes[t], static_cast<int>(g), static_cast<int>(t)});
    }
  }
  std::sort(keys.begin(), keys.end());
  const auto sig = [&](const Key& key) { return all[key.graph].Signature(key.tuple); };
  const auto same = [&](const Key& a, const Key& b) {
    return std::ranges::equal(sig(a), sig(b));
  };
  for (auto& histogram : round.histograms) histogram.clear();
  int next = 0;
  for (auto run = keys.begin(); run != keys.end();) {
    const auto end = std::find_if(
        run, keys.end(), [&](const Key& key) { return key.hash != run->hash; });
    const bool collided =
        std::any_of(run + 1, end, [&](const Key& key) { return !same(key, *run); });
    if (collided) {
      std::sort(run, end, [&](const Key& a, const Key& b) {
        return std::ranges::lexicographical_compare(sig(a), sig(b));
      });
    }
    for (auto it = run; it != end; ++it) {
      if (it == run || (collided && !same(*it, *(it - 1)))) ++next;
      all[it->graph].colors[it->tuple] = next - 1;
      auto& histogram = round.histograms[it->graph];
      if (histogram.empty() || histogram.back().first != next - 1) {
        histogram.emplace_back(next - 1, 0);
      }
      ++histogram.back().second;
    }
    run = end;
  }
  round.num_colors = next;
}

}  // namespace

Status RefineJointly(const std::vector<const Graph*>& graphs, int k,
                     int max_rounds, Budget& budget,
                     const std::function<bool(const KwlRound&)>& visit) {
  X2VEC_CHECK_GE(k, 1);
  X2VEC_CHECK_GE(max_rounds, 0);
  std::vector<Tuples> all(graphs.size());
  int64_t total = 0;
  for (size_t g = 0; g < graphs.size(); ++g) {
    all[g].graph = graphs[g];
    all[g].count = TupleCount(graphs[g]->NumVertices(), k);
    total += all[g].count;
  }
  KwlRound round;
  round.histograms.resize(graphs.size());
  for (;; ++round.round) {
    if (!budget.Spend(total)) return budget.ExhaustedError(kOperation);
    X2VEC_CHECK(total <= kMaxTuples)
        << "k-WL over more than " << kMaxTuples << " tuples (k = " << k << ")";
    const Status status = ParallelFor(
        static_cast<int64_t>(all.size()), 0, [&](int64_t lo, int64_t hi) {
          for (int64_t g = lo; g < hi; ++g) {
            Tuples& s = all[g];
            round.round == 0 ? AtomicTypes(s, k) : Signatures(s, k);
            s.hashes.resize(s.count);
            for (int64_t t = 0; t < s.count; ++t) s.hashes[t] = Hash(s.Signature(t));
          }
          return Status::Ok();
        });
    X2VEC_CHECK(status.ok()) << status.ToString();
    Renumber(all, round);
    if (!visit(round) || round.round == max_rounds) return Status::Ok();
  }
}

StatusOr<KwlResult> KwlCompare(const Graph& g, const Graph& h, int k,
                               Budget& budget) {
  X2VEC_CHECK_GE(k, 1);
  if (budget.Exhausted()) return budget.ExhaustedError(kOperation);
  KwlResult result;
  if (g.NumVertices() != h.NumVertices()) {
    // Different orders: trivially distinguished (histogram sizes differ).
    result.distinguishes = true;
    result.distinguishing_round = 0;
    return result;
  }
  // While the histograms agree every colour occurs in both graphs, so the
  // joint colour count stays at most n^k and must stop growing; only
  // n = 0 needs the round cap.
  int previous = -1;
  const Status status = RefineJointly(
      {&g, &h}, k, g.NumVertices() == 0 ? 0 : INT_MAX, budget,
      [&](const KwlRound& round) {
        result.num_colors = round.num_colors;
        if (round.histograms[0] != round.histograms[1]) {
          result.distinguishes = true;
          result.distinguishing_round = round.round;
          return false;
        }
        if (round.num_colors == previous) {
          result.rounds_to_stable = round.round;
          return false;
        }
        previous = round.num_colors;
        return true;
      });
  if (!status.ok()) return status;
  return result;
}

KwlResult KwlCompare(const Graph& g, const Graph& h, int k) {
  Budget unlimited;
  return *KwlCompare(g, h, k, unlimited);
}

bool KwlDistinguishes(const Graph& g, const Graph& h, int k) {
  return KwlCompare(g, h, k).distinguishes;
}

}  // namespace x2vec::wl
