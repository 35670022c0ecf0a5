#pragma once

// Shared plumbing of the x2vec benchmark: run options, the result record
// printed as the last line of every run, timing and order statistics, and
// the in-memory span log of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< Scratch files (artifacts, span dumps).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `attempted` / `failed` count operations (trainer
/// calls, suite methods, serving requests); `correct` turns false when any
/// output check fails, and `notes` says which.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one output check; a failing check marks the run incorrect and
  /// keeps going, so every broken property of a run is reported at once.
  bool Check(bool ok, const std::string& what);
  /// Counts one operation, failed when !ok.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] std::string Json() const;
};

/// Monotonic wall clock in seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at
/// least q of the samples at or below it.
double Percentile(std::vector<double> values, double q);
/// query_p99_us of a latency sample: the nearest-rank p99 when at least ten
/// samples lie beyond it (n >= 1000), else the nearest-rank median, as a
/// smaller sample has no measurable tail.
double P99OrMedian(const std::vector<double>& values);
/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb();

/// Latencies in log-spaced buckets of fixed size, so recording a sample
/// allocates nothing: bucket i holds [1 us * 1.02^i, 1 us * 1.02^(i+1)),
/// the first and last buckets also everything below and above. A
/// percentile is interpolated geometrically by rank within the bucket that
/// holds it, so it lies within 2% of the sample of that rank.
class LatencyHistogram {
 public:
  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  [[nodiscard]] int64_t count() const { return total_; }
  /// The nearest-rank q-quantile, q in (0, 1], in seconds; 0 when empty.
  [[nodiscard]] double Percentile(double q) const;
  /// Percentile(0.99) when at least ten samples lie beyond it (count >=
  /// 1000), else Percentile(0.5), as P99OrMedian does for a sample.
  [[nodiscard]] double P99OrMedian() const;

 private:
  static constexpr int kBuckets = 700;  ///< 1 us to about 1 s.
  int64_t counts_[kBuckets] = {};
  int64_t total_ = 0;
};

/// Median wall time of `reps` calls of `fn`.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    times.push_back(Now() - start);
  }
  return Median(times);
}

/// Spans recorded around the calls a workload makes into the library.
/// Single-writer: concurrent clients each keep their own log. Spans stay
/// in memory until SummaryJson.
class SpanLog {
 public:
  /// Opens a span under the innermost open span; returns its id.
  int Begin(const char* name);
  void End(int id);
  /// Folds `other` into this log's per-name aggregates.
  void Merge(const SpanLog& other);
  /// Per span name: count, total and self seconds (total minus the time
  /// covered by child spans), as JSON.
  [[nodiscard]] std::string SummaryJson() const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    double child_seconds;
  };
  struct Aggregate {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, Aggregate> merged_;
  void Fold(std::map<std::string, Aggregate>& into) const;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// One workload: a set-up that is timed on its own, a measured phase, and
/// the output checks. main.cc runs one warm-up set-up and round, half the
/// timed set-ups, the measured phase, the other half and the checks, in
/// that order.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs the library is handed before the measured phase
  /// (the work users pay before their first request). Called repeatedly.
  virtual void Setup() = 0;
  /// Runs whole rounds of operations until `seconds` have passed (at least
  /// one round), counting every operation in `result`.
  virtual void Measure(double seconds, SpanLog* spans, Result& result) = 0;
  /// Throughput, quality and latency of the last Measure call.
  virtual void Report(Result& result) = 0;
  /// Checks the outputs against the benchmark's own computations. Runs
  /// after a set-up, with the inputs the measured phase had.
  virtual void Check(Result& result) = 0;
  /// How many set-up samples the median of setup_s is taken over (even).
  [[nodiscard]] virtual int SetupReps() const = 0;
  /// Set-ups timed together as one sample (setup_s is the sample's time
  /// divided by this), so that a set-up of a few milliseconds is timed
  /// over a span long enough to repeat.
  [[nodiscard]] virtual int SetupBatch() const { return 1; }
};

}  // namespace perfbench
