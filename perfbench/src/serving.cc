// serve_knn: closed-loop clients issuing Nearest and Analogy requests
// through QueryEngine::Serve over a persisted, cluster-pruned embedding
// table; and the probes of the layers beneath it (base/fs +
// embed/checkpoint, serve/index, serve/engine, linalg/kernels).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "base/budget.h"
#include "base/fs.h"
#include "base/parallel.h"
#include "embed/checkpoint.h"
#include "linalg/kernels.h"
#include "reference.h"
#include "serve/engine.h"
#include "serve/index.h"
#include "workloads.h"

namespace perfbench {
namespace {

using x2vec::linalg::Matrix;
using x2vec::serve::Neighbor;
using x2vec::serve::ServeRequest;

constexpr int kRows = 10000;
constexpr int kDim = 64;
// Ten topics of 1000 rows: centres N(0, 1) per coordinate, rows at
// per-coordinate spread 0.5 around them (cosine about 0.8 within a topic).
// The default pruned index splits each topic into about ten cells, and its
// k-means runs all of its 25 passes on every seed's table, so the set-up
// costs the same whatever the seed (see README.md).
constexpr int kCenters = 10;
constexpr double kNoise = 0.5;
/// Distinct requests; one pass = all. Enough that the slowest 1% of a
/// window's requests spans some forty templates, not a few.
constexpr int kTemplates = 4096;
constexpr int kAnswer = 10;
constexpr double kRecallFloor = 0.9;
/// Throughput and p99 are medians over windows of this length, so a burst
/// of load from outside the process moves them less.
constexpr double kWindowSeconds = 0.5;

// Standard normal draw by Box-Muller from the benchmark's own stream.
double Gaussian(ref::Draws& draws) {
  const double u = 1.0 - draws.Uniform();
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(6.283185307179586 * draws.Uniform());
}

// The generated table, one row at a time, so the check can compare the
// loaded artifact without a second copy. Row r lies around centre
// r % kCenters.
class ClusteredTable {
 public:
  explicit ClusteredTable(uint64_t seed)
      : seed_(seed), centers_(kCenters, kDim) {
    for (int c = 0; c < kCenters; ++c) {
      ref::Draws draws(seed, static_cast<uint64_t>(c));
      for (int j = 0; j < kDim; ++j) {
        centers_(c, j) = Gaussian(draws);
      }
    }
  }
  void Row(int r, std::span<double> into) const {
    ref::Draws draws(seed_, kCenters + static_cast<uint64_t>(r));
    for (int j = 0; j < kDim; ++j) {
      into[static_cast<size_t>(j)] =
          centers_(r % kCenters, j) + kNoise * Gaussian(draws);
    }
  }
  [[nodiscard]] Matrix All() const {
    Matrix table(kRows, kDim);
    for (int r = 0; r < kRows; ++r) Row(r, table.RowSpan(r));
    return table;
  }

 private:
  uint64_t seed_;
  Matrix centers_;
};

// The request mix of bench/tab_serving.cc: one Nearest and one Analogy per
// drawn row, the analogy operands arbitrary rows.
std::vector<ServeRequest> Templates(uint64_t seed) {
  std::vector<ServeRequest> requests;
  for (int t = 0; t < kTemplates / 2; ++t) {
    ref::Draws draws(seed, static_cast<uint64_t>(t));
    ServeRequest nearest;
    nearest.k = kAnswer;
    nearest.a = static_cast<int>(draws.Below(kRows));
    ServeRequest analogy = nearest;
    analogy.kind = ServeRequest::Kind::kAnalogy;
    do {
      analogy.b = static_cast<int>(draws.Below(kRows));
    } while (analogy.b == analogy.a);
    do {
      analogy.c = static_cast<int>(draws.Below(kRows));
    } while (analogy.c == analogy.a || analogy.c == analogy.b);
    requests.push_back(nearest);
    requests.push_back(analogy);
  }
  return requests;
}

x2vec::serve::ServeOptions PrunedOptions() {
  x2vec::serve::ServeOptions options;
  options.index.kind = x2vec::serve::IndexKind::kClusterPruned;
  return options;
}

std::vector<int> Excluded(const ServeRequest& request) {
  if (request.kind == ServeRequest::Kind::kAnalogy) {
    return {request.a, request.b, request.c};
  }
  return {request.a};
}

// The query the benchmark scores against: row a for Nearest, and
// unit(a) - unit(b) + unit(c) for Analogy.
std::vector<double> OwnQuery(const Matrix& table, const ServeRequest& request) {
  const auto unit = [&](int row, double sign, std::vector<double>& into) {
    double norm = 0.0;
    for (int j = 0; j < kDim; ++j) norm += table(row, j) * table(row, j);
    norm = std::sqrt(norm);
    for (int j = 0; j < kDim; ++j) {
      into[static_cast<size_t>(j)] += sign * table(row, j) / norm;
    }
  };
  std::vector<double> query(kDim, 0.0);
  unit(request.a, 1.0, query);
  if (request.kind == ServeRequest::Kind::kAnalogy) {
    unit(request.b, -1.0, query);
    unit(request.c, 1.0, query);
  }
  return query;
}

class ServingWorkload final : public Workload {
 public:
  ServingWorkload(const Options& options)
      : generator_(ref::Mix(options.seed ^ 0xa1)),
        templates_(Templates(ref::Mix(options.seed ^ 0xa2))),
        path_(options.workdir + "/serve-" + std::to_string(options.seed) +
              ".x2v") {
    x2vec::SetThreadCount(WorkloadThreads());
    const x2vec::Status saved = x2vec::embed::SaveEmbeddingMatrix(
        x2vec::DefaultFs(), path_, generator_.All());
    if (!saved.ok()) {
      std::fprintf(stderr, "artifact write: %s\n", saved.ToString().c_str());
    }
  }
  ~ServingWorkload() override { std::remove(path_.c_str()); }
  ServingWorkload(const ServingWorkload&) = delete;
  ServingWorkload& operator=(const ServingWorkload&) = delete;

  // Artifact load plus the cluster-pruned index build.
  void Setup() override {
    engine_.reset();
    x2vec::StatusOr<x2vec::serve::QueryEngine> engine =
        x2vec::serve::QueryEngine::LoadEmbeddingMatrix(
            x2vec::DefaultFs(), path_, PrunedOptions());
    setup_status_ = engine.status();
    if (engine.ok()) engine_.emplace(std::move(engine).value());
  }
  int SetupReps() const override { return 4; }

  void Measure(double seconds, SpanLog* spans, Result& result) override {
    if (!result.Check(engine_.has_value(),
                      "engine load: " + setup_status_.ToString())) {
      return;
    }
    if (canonical_.empty()) {
      // The first pass fixes each template's answer; later passes must
      // repeat it exactly.
      for (const ServeRequest& request : templates_) {
        x2vec::serve::ServeOutcome outcome = engine_->Serve(request);
        result.CountOp(outcome.status.ok());
        canonical_.push_back(std::move(outcome));
      }
    }
    const int clients = WorkloadThreads();
    // Each client records into its own fixed-size histograms, one per
    // window, so the benchmark's memory does not grow with the request
    // rate and peak RSS stays the library's.
    const auto slots = static_cast<size_t>(clients);
    const auto windows =
        std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds));
    std::vector<std::vector<LatencyHistogram>> latencies(
        slots, std::vector<LatencyHistogram>(windows));
    std::vector<std::vector<int64_t>> completions(
        slots, std::vector<int64_t>(windows, 0));
    std::vector<int64_t> sent_count(slots, 0);
    std::vector<int64_t> failed(slots, 0);
    std::vector<int64_t> mismatched(slots, 0);
    std::vector<SpanLog> logs(slots);
    std::atomic<bool> stop{false};
    const double start = Now();
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const size_t slot = static_cast<size_t>(c);
          SpanLog* log = spans != nullptr ? &logs[slot] : nullptr;
          do {  // Whole passes over the templates, from a per-client offset.
            for (int t = 0; t < kTemplates; ++t) {
              const auto index = static_cast<size_t>(
                  (t + c * kTemplates / clients) % kTemplates);
              const double sent = Now();
              x2vec::serve::ServeOutcome outcome;
              {
                ScopedSpan span(log, "request");
                outcome = engine_->Serve(templates_[index]);
              }
              const double done = Now();
              const auto window =
                  static_cast<size_t>((done - start) / kWindowSeconds);
              ++sent_count[slot];
              const x2vec::serve::ServeOutcome& expected = canonical_[index];
              if (!outcome.status.ok()) {
                ++failed[slot];
              } else if (!expected.status.ok() ||
                         outcome.neighbors != expected.neighbors) {
                ++mismatched[slot];
              } else if (window < windows) {
                latencies[slot][window].Add(done - sent);
                ++completions[slot][window];
              }
            }
          } while (!stop.load(std::memory_order_relaxed));
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop = true;
    }
    // Completions and latencies per window over the span all clients were
    // sending, folded into the first client's histograms.
    window_rates_.assign(windows, 0.0);
    int64_t wrong = 0;
    for (size_t slot = 0; slot < slots; ++slot) {
      for (size_t w = 0; w < windows; ++w) {
        window_rates_[w] +=
            static_cast<double>(completions[slot][w]) / kWindowSeconds;
        if (slot > 0) latencies[0][w].Merge(latencies[slot][w]);
      }
      result.attempted += sent_count[slot];
      result.failed += failed[slot] + mismatched[slot];
      wrong += mismatched[slot];
      if (spans != nullptr) spans->Merge(logs[slot]);
    }
    result.Check(wrong == 0, "served answers repeat the first pass exactly");
    all_latencies_ = LatencyHistogram();
    window_p99s_.clear();
    for (const LatencyHistogram& window : latencies[0]) {
      all_latencies_.Merge(window);
      if (window.count() > 0) window_p99s_.push_back(window.P99OrMedian());
    }
  }

  void Report(Result& result) override {
    result.Add("throughput_per_s", Median(window_rates_), "1/s");
    result.Add("quality", recall_, "fraction");
    result.Add("query_p50_us", all_latencies_.Percentile(0.5) * 1e6, "us");
    result.Add("query_p99_us", Median(window_p99s_) * 1e6, "us");
    const int64_t per_window =
        all_latencies_.count() /
        static_cast<int64_t>(std::max<size_t>(1, window_p99s_.size()));
    std::fprintf(stderr,
                 "request latencies: %lld samples; p99 is the median over "
                 "%zu windows of %lld samples on average (%lld beyond p99)\n",
                 static_cast<long long>(all_latencies_.count()),
                 window_p99s_.size(), static_cast<long long>(per_window),
                 static_cast<long long>(per_window / 100));
  }

  // The engine is released first, so the check's own copy of the table
  // does not raise the peak that serving set.
  void Check(Result& result) override {
    engine_.reset();
    x2vec::StatusOr<Matrix> loaded =
        x2vec::embed::LoadEmbeddingMatrix(x2vec::DefaultFs(), path_);
    bool same =
        loaded.ok() && loaded->rows() == kRows && loaded->cols() == kDim;
    std::vector<double> row(kDim);
    for (int r = 0; same && r < kRows; ++r) {
      generator_.Row(r, row);
      same = std::memcmp(loaded->ConstRowSpan(r).data(), row.data(),
                         sizeof(double) * kDim) == 0;
    }
    if (!result.Check(same,
                      "loaded artifact equals the written table bit for bit")) {
      return;
    }
    if (canonical_.size() != templates_.size()) return;
    const Matrix& table = *loaded;
    std::vector<double> recalls(templates_.size(), 0.0);
    std::vector<std::string> errors(templates_.size());
    const int workers = WorkloadThreads();
    {
      std::vector<std::jthread> threads;
      for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          for (size_t t = static_cast<size_t>(w); t < templates_.size();
               t += static_cast<size_t>(workers)) {
            errors[t] = CheckAnswer(table, templates_[t], canonical_[t],
                                    recalls[t]);
          }
        });
      }
    }
    double total = 0.0;
    int answered = 0;
    for (size_t t = 0; t < templates_.size(); ++t) {
      if (!canonical_[t].status.ok()) continue;  // Failed, counted already.
      result.Check(errors[t].empty(),
                   "request " + std::to_string(t) + ": " + errors[t]);
      total += recalls[t];
      ++answered;
    }
    recall_ = answered > 0 ? total / answered : 0.0;
    result.Check(recall_ >= kRecallFloor,
                 "recall@10 " + std::to_string(recall_) + " below floor " +
                     std::to_string(kRecallFloor));
  }

 private:
  // Scores against the own cosine, order, exclusions; recall against the
  // own exact scan.
  static std::string CheckAnswer(const Matrix& table,
                                 const ServeRequest& request,
                                 const x2vec::serve::ServeOutcome& outcome,
                                 double& recall) {
    if (!outcome.status.ok()) return outcome.status.ToString();
    const std::vector<Neighbor>& answer = outcome.neighbors;
    if (answer.size() != static_cast<size_t>(request.k)) return "answer size";
    const std::vector<int> excluded = Excluded(request);
    const std::vector<double> query = OwnQuery(table, request);
    for (size_t i = 0; i < answer.size(); ++i) {
      const Neighbor& hit = answer[i];
      if (hit.id < 0 || hit.id >= kRows) return "id out of range";
      if (std::find(excluded.begin(), excluded.end(), hit.id) !=
          excluded.end()) {
        return "query or operand returned";
      }
      const double own =
          ref::Cosine(query.data(), table.ConstRowSpan(hit.id).data(), kDim);
      if (std::abs(own - hit.score) > 1e-9) {
        return "score differs from own cosine";
      }
      if (i > 0) {
        const Neighbor& prev = answer[i - 1];
        if (!(prev.score > hit.score ||
              (prev.score == hit.score && prev.id < hit.id))) {
          return "not ordered by (score desc, id asc)";
        }
      }
    }
    const std::vector<ref::Hit> exact =
        ref::CosineTopK(table.data(), kRows, kDim, query, request.k, excluded);
    int found = 0;
    for (const ref::Hit& want : exact) {
      for (const Neighbor& hit : answer) found += hit.id == want.id ? 1 : 0;
    }
    recall = static_cast<double>(found) / static_cast<double>(exact.size());
    return "";
  }

  ClusteredTable generator_;
  std::vector<ServeRequest> templates_;
  std::string path_;
  std::optional<x2vec::serve::QueryEngine> engine_;
  x2vec::Status setup_status_;
  std::vector<x2vec::serve::ServeOutcome> canonical_;
  LatencyHistogram all_latencies_;
  std::vector<double> window_rates_;
  std::vector<double> window_p99s_;
  double recall_ = 0.0;

  friend void perfbench::ServingLayers(const Options&, Result&);
};

}  // namespace

std::unique_ptr<Workload> MakeServingWorkload(const Options& options) {
  return std::make_unique<ServingWorkload>(options);
}

void ServingLayers(const Options& options, Result& result) {
  ServingWorkload workload(options);
  Matrix table;
  result.Add("fs.artifact_load_s", MedianSeconds(5, [&] {
               x2vec::StatusOr<Matrix> loaded =
                   x2vec::embed::LoadEmbeddingMatrix(x2vec::DefaultFs(),
                                                     workload.path_);
               result.CountOp(loaded.ok());
               if (loaded.ok()) table = std::move(loaded).value();
             }),
             "s");
  std::unique_ptr<x2vec::serve::EmbeddingIndex> index;
  result.Add("index.build_s", MedianSeconds(3, [&] {
               if (table.rows() == 0) {  // The load failed.
                 result.CountOp(false);
                 return;
               }
               auto built = x2vec::serve::BuildIndex(
                   table, x2vec::serve::IndexMetric::kCosine,
                   PrunedOptions().index);
               result.CountOp(built.ok());
               if (built.ok()) index = std::move(built).value();
             }),
             "s");
  workload.Setup();
  // A failed load or build is counted above; the probes that need them
  // then report 0 and the run is marked incorrect.
  const bool ready = result.Check(
      table.rows() == kRows && index != nullptr && workload.engine_.has_value(),
      "serving probes: artifact load, index build or engine load failed");

  // Single-caller TopK and Serve over the same templates; the engine's
  // overhead is the median of the paired per-request differences, with the
  // order of the pair alternating by pass so cache warmth cancels out. The
  // scanned rows come from one more, untimed call under a counting budget.
  std::vector<double> topk;
  std::vector<double> overhead;
  double scanned = 0.0;
  for (int pass = 0; ready && pass < 4; ++pass) {
    for (const ServeRequest& request : workload.templates_) {
      std::vector<double> query(kDim, 0.0);
      x2vec::linalg::Copy(index->StoredRow(request.a), query);
      if (request.kind == ServeRequest::Kind::kAnalogy) {
        x2vec::linalg::Axpy(-1.0, index->StoredRow(request.b), query);
        x2vec::linalg::Axpy(1.0, index->StoredRow(request.c), query);
      }
      const int ask = request.k + static_cast<int>(Excluded(request).size());
      bool ok = true;
      const auto time_topk = [&] {
        x2vec::Budget unlimited;
        const double start = Now();
        ok = index->TopK(query, ask, unlimited).ok() && ok;
        return Now() - start;
      };
      const auto time_serve = [&] {
        const double start = Now();
        ok = workload.engine_->Serve(request).status.ok() && ok;
        return Now() - start;
      };
      double topk_seconds = 0.0;
      double serve_seconds = 0.0;
      if (pass % 2 == 0) {
        topk_seconds = time_topk();
        serve_seconds = time_serve();
      } else {
        serve_seconds = time_serve();
        topk_seconds = time_topk();
      }
      topk.push_back(topk_seconds);
      overhead.push_back(serve_seconds - topk_seconds);
      if (pass == 0) {
        x2vec::Budget counting = x2vec::Budget::WorkUnits(int64_t{1} << 40);
        ok = index->TopK(query, ask, counting).ok() && ok;
        scanned += static_cast<double>(counting.work_spent());
      }
      result.CountOp(ok);
    }
  }
  const double topk_p50 = Percentile(topk, 0.5) * 1e6;
  result.Add("index.topk_p50_us", topk_p50, "us");
  result.Add("index.scan_fraction",
             scanned / static_cast<double>(workload.templates_.size()) / kRows,
             "ratio");
  result.Add("engine.overhead_p50_us", Median(overhead) * 1e6, "us");

  constexpr int kCalls = 4000000;
  double sink = 0.0;
  const double dot = MedianSeconds(3, [&] {
    for (int i = 0; ready && i < kCalls; ++i) {
      sink += x2vec::linalg::Dot(table.ConstRowSpan(i % kRows),
                                 table.ConstRowSpan((i * 7 + 1) % kRows));
    }
  });
  result.Add("kernels.dot_per_s", ready ? kCalls / dot : 0.0, "1/s");
  if (!std::isfinite(sink)) std::fprintf(stderr, "non-finite dot\n");
}

}  // namespace perfbench
