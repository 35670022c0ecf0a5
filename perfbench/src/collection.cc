// graph_collection: the default whole-graph method suite over every
// classification dataset, then 5-fold SVM cross-validation on each Gram
// matrix; and the probes of the suite's layers (wl, kernel, hom, embed
// graph2vec, gnn, ml).

#include <cmath>
#include <cstdio>
#include <numeric>

#include "api/suite.h"
#include "base/budget.h"
#include "base/parallel.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "hom/embeddings.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"
#include "kernel/graph_kernels.h"
#include "ml/svm.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using x2vec::graph::Graph;
using x2vec::linalg::Matrix;

constexpr int kPerClass = 15;
constexpr int kGraphSize = 16;
constexpr int kFolds = 5;

// Methods whose Gram matrix is an exact function of the isomorphism class,
// so a vertex-permuted copy of a graph must reproduce its row.
bool IsExact(const std::string& method) {
  return method != "graph2vec" && method != "gin-random";
}

// Copy of `g` with vertices renamed by a permutation drawn from `draws`.
Graph Permuted(const Graph& g, ref::Draws& draws) {
  const int n = g.NumVertices();
  std::vector<int> to(static_cast<size_t>(n));
  std::iota(to.begin(), to.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(to[static_cast<size_t>(i)],
              to[static_cast<size_t>(draws.Below(i + 1))]);
  }
  Graph h(n, g.directed());
  for (int v = 0; v < n; ++v) {
    h.SetVertexLabel(to[static_cast<size_t>(v)], g.VertexLabel(v));
  }
  for (const x2vec::graph::Edge& e : g.Edges()) {
    h.AddEdge(to[static_cast<size_t>(e.u)], to[static_cast<size_t>(e.v)],
              e.weight, e.label);
  }
  return h;
}

ref::Adjacency AdjacencyOf(const Graph& g) {
  ref::Adjacency adjacency(static_cast<size_t>(g.NumVertices()));
  for (int v = 0; v < g.NumVertices(); ++v) {
    for (const x2vec::graph::Neighbor& nb : g.Neighbors(v)) {
      adjacency[static_cast<size_t>(v)].push_back(nb.to);
    }
  }
  return adjacency;
}

// Homomorphisms respect labels, so an unlabelled (all label 0) pattern
// maps into the part of G induced by label-0 vertices and label-0 edges.
ref::Adjacency LabelZeroPart(const Graph& g) {
  std::vector<int> id(static_cast<size_t>(g.NumVertices()), -1);
  int kept = 0;
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (g.VertexLabel(v) == 0) id[static_cast<size_t>(v)] = kept++;
  }
  ref::Adjacency adjacency(static_cast<size_t>(kept));
  for (int v = 0; v < g.NumVertices(); ++v) {
    if (id[static_cast<size_t>(v)] < 0) continue;
    for (const x2vec::graph::Neighbor& nb : g.Neighbors(v)) {
      if (nb.label == 0 && id[static_cast<size_t>(nb.to)] >= 0) {
        adjacency[static_cast<size_t>(id[static_cast<size_t>(v)])].push_back(
            id[static_cast<size_t>(nb.to)]);
      }
    }
  }
  return adjacency;
}

// The benchmark's own hom(F, G): cycles by tr A^k, paths by 1^T A^(k-1) 1,
// every other (tree) pattern by the tree dynamic programme.
ref::Count OwnHoms(const x2vec::hom::Pattern& pattern,
                   const ref::Adjacency& g) {
  const int k = pattern.graph.NumVertices();
  if (pattern.name[0] == 'C') return ref::CycleHoms(g, k);
  if (pattern.name[0] == 'P') return ref::PathHoms(g, k);
  return ref::TreeHoms(AdjacencyOf(pattern.graph), g);
}

bool SameCount(double library, ref::Count own) {
  const double expected = static_cast<double>(own);
  return library == expected ||
         std::abs(library - expected) <= 1e-12 * std::abs(expected);
}

struct Cell {
  std::string method;
  bool ok = false;    ///< The method returned OK (else it counts as failed).
  Matrix gram;        ///< Raw Gram matrix as the suite returned it.
  double accuracy = 0.0;
};

class CollectionWorkload final : public Workload {
 public:
  explicit CollectionWorkload(uint64_t seed)
      : data_seed_(ref::Mix(seed ^ 0xc1)),
        suite_seed_(ref::Mix(seed ^ 0xc2)),
        cv_seed_(ref::Mix(seed ^ 0xc3)),
        permute_seed_(ref::Mix(seed ^ 0xc4)),
        suite_(x2vec::api::DefaultMethodSuite()) {
    // One thread: the suite's cost per core. With 4 pool threads a round
    // was only about 2x faster and its run-to-run spread twice as wide.
    x2vec::SetThreadCount(1);
  }

  // Dataset generation, then one vertex-permuted copy of a random graph
  // appended to each dataset (with its label) for the invariance check.
  void Setup() override {
    x2vec::Rng rng(data_seed_);
    datasets_ =
        x2vec::data::AllClassificationDatasets(kPerClass, kGraphSize, rng);
    copies_.clear();
    for (size_t d = 0; d < datasets_.size(); ++d) {
      ref::Draws draws(permute_seed_, d);
      x2vec::data::GraphDataset& dataset = datasets_[d];
      const int source = static_cast<int>(draws.Below(
          static_cast<int64_t>(dataset.graphs.size())));
      dataset.graphs.push_back(
          Permuted(dataset.graphs[static_cast<size_t>(source)], draws));
      dataset.labels.push_back(dataset.labels[static_cast<size_t>(source)]);
      copies_.push_back(source);
    }
  }
  int SetupReps() const override { return 16; }
  int SetupBatch() const override { return 20; }

  void Measure(double seconds, SpanLog* spans, Result& result) override {
    round_seconds_.clear();
    const double start = Now();
    do {
      ScopedSpan round(spans, "round");
      const double round_start = Now();
      std::vector<Cell> cells;
      for (const x2vec::data::GraphDataset& dataset : datasets_) {
        std::vector<x2vec::core::MethodOutcome> outcomes;
        {
          ScopedSpan suite(spans, "suite");
          outcomes = x2vec::core::RunMethodSuite(
              suite_, dataset.graphs, suite_seed_, x2vec::BudgetSpec{});
        }
        for (x2vec::core::MethodOutcome& outcome : outcomes) {
          const std::string where = dataset.name + "/" + outcome.name;
          Cell cell{outcome.name, outcome.status.ok(),
                    std::move(outcome.matrix), 0.0};
          bool ok = cell.ok;
          if (!ok) {
            result.notes.push_back(where + ": " + outcome.status.ToString());
          } else {
            ScopedSpan cv(spans, "ml.cv");
            x2vec::Rng rng(cv_seed_);
            x2vec::ml::SvmOptions svm;
            svm.c = 10.0;
            cell.accuracy = x2vec::ml::CrossValidatedSvmAccuracy(
                x2vec::kernel::NormalizeKernel(cell.gram), dataset.labels,
                kFolds, svm, rng);
            ok = result.Check(cell.accuracy >= 0.0 && cell.accuracy <= 1.0,
                              "accuracy in [0, 1]");
          }
          if (!first_.empty()) {
            const Cell& first = first_[cells.size()];
            ok = result.Check(cell.gram == first.gram &&
                                  cell.accuracy == first.accuracy,
                              where + " repeats bit-identically") &&
                 ok;
          }
          cells.push_back(std::move(cell));
          result.CountOp(ok);
        }
      }
      round_seconds_.push_back(Now() - round_start);
      if (first_.empty()) first_ = std::move(cells);
    } while (Now() - start < seconds);
  }

  void Report(Result& result) override {
    int64_t graphs = 0;
    for (const auto& dataset : datasets_) {
      graphs += static_cast<int64_t>(dataset.graphs.size());
    }
    // From the median round, as on the training workloads.
    result.Add("throughput_per_s",
               static_cast<double>(graphs) / Median(round_seconds_), "1/s");
    double accuracy = 0.0;
    int cells = 0;
    for (const Cell& cell : first_) {
      if (!cell.ok) continue;
      accuracy += cell.accuracy;
      ++cells;
    }
    result.Add("quality", cells > 0 ? accuracy / cells : 0.0, "fraction");
    result.Add("query_p50_us", Percentile(round_seconds_, 0.5) * 1e6, "us");
    result.Add("query_p99_us", P99OrMedian(round_seconds_) * 1e6, "us");
    std::fprintf(stderr, "suite rounds timed: %zu\n", round_seconds_.size());
  }

  void Check(Result& result) override {
    const std::vector<x2vec::hom::Pattern> family =
        x2vec::hom::DefaultPatternFamily(20);
    size_t c = 0;
    for (size_t d = 0; d < datasets_.size(); ++d) {
      const x2vec::data::GraphDataset& dataset = datasets_[d];
      const int n = static_cast<int>(dataset.graphs.size());
      for (size_t m = 0; m < suite_.size(); ++m, ++c) {
        if (c >= first_.size()) return;
        const Cell& cell = first_[c];
        if (!cell.ok) continue;  // Failed, counted already.
        const std::string where = dataset.name + "/" + cell.method;
        const Matrix& k = cell.gram;
        if (!result.Check(k.rows() == n && k.cols() == n && k.AllFinite(),
                          where + ": finite n x n Gram")) {
          continue;
        }
        bool symmetric = true;
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < i; ++j) {
            symmetric = symmetric &&
                        std::abs(k(i, j) - k(j, i)) <=
                            1e-12 * (1.0 + std::abs(k(i, j)));
          }
        }
        result.Check(symmetric, where + ": symmetric");
        const std::string cs = ref::CheckCauchySchwarz(k.data(), n);
        result.Check(cs.empty(), where + ": " + cs);
        if (IsExact(cell.method)) {
          CheckCopyRow(k, copies_[d], n - 1, where, result);
        }
        if (cell.method == "hom-20") {
          CheckHom(dataset, family, k, where, result);
        }
      }
    }
  }

 private:
  // Rows of a graph and of its permuted copy must agree.
  static void CheckCopyRow(const Matrix& k, int source, int copy,
                           const std::string& where, Result& result) {
    double scale = 1e-300;
    for (double v : k.data()) scale = std::max(scale, std::abs(v));
    bool same = true;
    for (int j = 0; j < k.cols(); ++j) {
      const int jj = j == copy ? source : (j == source ? copy : j);
      same = same && std::abs(k(source, j) - k(copy, jj)) <= 1e-9 * scale;
    }
    result.Check(same, where + ": permuted copy reproduces its row");
  }

  // Path and cycle entries of the library's hom vectors against the own
  // adjacency-power counts, and the whole hom-20 Gram against one rebuilt
  // from the own counts (log1p / |F|, standardised per pattern).
  static void CheckHom(const x2vec::data::GraphDataset& dataset,
                       const std::vector<x2vec::hom::Pattern>& family,
                       const Matrix& gram, const std::string& where,
                       Result& result) {
    const size_t n = dataset.graphs.size();
    std::vector<std::vector<double>> features(n);
    bool entries = true;
    for (size_t g = 0; g < n; ++g) {
      const ref::Adjacency adjacency = LabelZeroPart(dataset.graphs[g]);
      const std::vector<double> library =
          x2vec::hom::HomVector(dataset.graphs[g], family);
      for (size_t f = 0; f < family.size(); ++f) {
        const ref::Count own = OwnHoms(family[f], adjacency);
        const char kind = family[f].name[0];
        if (kind == 'P' || kind == 'C') {
          entries = entries && SameCount(library[f], own);
        }
        features[g].push_back(std::log1p(static_cast<double>(own)) /
                              family[f].graph.NumVertices());
      }
    }
    result.Check(entries,
                 where + ": path/cycle hom counts equal A-power counts");
    for (size_t f = 0; f < family.size(); ++f) {
      double mean = 0.0;
      for (const auto& x : features) mean += x[f];
      mean /= static_cast<double>(n);
      double variance = 0.0;
      for (const auto& x : features) variance += (x[f] - mean) * (x[f] - mean);
      variance /= static_cast<double>(n);
      const double scale = variance > 1e-18 ? 1.0 / std::sqrt(variance) : 0.0;
      for (auto& x : features) x[f] = (x[f] - mean) * scale;
    }
    bool same = true;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double own = std::inner_product(
            features[i].begin(), features[i].end(), features[j].begin(), 0.0);
        const double library =
            gram(static_cast<int>(i), static_cast<int>(j));
        same = same &&
               std::abs(own - library) <= 1e-8 * (1.0 + std::abs(own));
      }
    }
    result.Check(same,
                 where + ": Gram equals the one rebuilt from own hom counts");
  }

  uint64_t data_seed_;
  uint64_t suite_seed_;
  uint64_t cv_seed_;
  uint64_t permute_seed_;
  std::vector<x2vec::core::GraphKernelMethod> suite_;
  std::vector<x2vec::data::GraphDataset> datasets_;
  std::vector<int> copies_;  ///< Per dataset: the graph that was copied.
  std::vector<Cell> first_;  ///< First round's cells, checked in Check().
  std::vector<double> round_seconds_;

  friend void perfbench::CollectionLayers(const Options&, Result&);
};

}  // namespace

std::unique_ptr<Workload> MakeCollectionWorkload(const Options& options) {
  return std::make_unique<CollectionWorkload>(options.seed);
}

void CollectionLayers(const Options& options, Result& result) {
  CollectionWorkload workload(options.seed);
  workload.Setup();
  std::vector<double> method_seconds(workload.suite_.size(), 0.0);
  std::vector<std::pair<Matrix, const std::vector<int>*>> grams;
  for (const x2vec::data::GraphDataset& dataset : workload.datasets_) {
    for (size_t m = 0; m < workload.suite_.size(); ++m) {
      const double start = Now();
      std::vector<x2vec::core::MethodOutcome> outcome =
          x2vec::core::RunMethodSuite({workload.suite_[m]}, dataset.graphs,
                                      workload.suite_seed_ + m,
                                      x2vec::BudgetSpec{});
      method_seconds[m] += Now() - start;
      result.CountOp(outcome[0].status.ok());
      if (outcome[0].status.ok()) {
        grams.emplace_back(x2vec::kernel::NormalizeKernel(outcome[0].matrix),
                           &dataset.labels);
      }
    }
  }
  for (size_t m = 0; m < workload.suite_.size(); ++m) {
    result.Add("suite." + workload.suite_[m].name + "_s", method_seconds[m],
               "s");
  }

  const std::vector<x2vec::hom::Pattern> family =
      x2vec::hom::DefaultPatternFamily(20);
  double sink = 0.0;
  const auto time_patterns = [&](bool cycles) {
    return MedianSeconds(3, [&] {
      for (const auto& dataset : workload.datasets_) {
        for (const Graph& g : dataset.graphs) {
          for (const x2vec::hom::Pattern& pattern : family) {
            if ((pattern.name[0] == 'C') != cycles) continue;
            sink += cycles ? x2vec::hom::CountHomsDouble(pattern.graph, g)
                           : x2vec::hom::CountTreeHomsDouble(pattern.graph, g);
          }
        }
      }
    });
  };
  result.Add("hom.tree_s", time_patterns(false), "s");
  result.Add("hom.cycle_s", time_patterns(true), "s");

  double accuracy = 0.0;
  const double start = Now();
  for (const auto& [gram, labels] : grams) {
    x2vec::Rng rng(workload.cv_seed_);
    x2vec::ml::SvmOptions svm;
    svm.c = 10.0;
    accuracy +=
        x2vec::ml::CrossValidatedSvmAccuracy(gram, *labels, kFolds, svm, rng);
  }
  result.Add("ml.svm_cv_s", Now() - start, "s");
  if (!std::isfinite(sink + accuracy)) {
    std::fprintf(stderr, "non-finite probe\n");
  }
}

}  // namespace perfbench
