#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("check failed: " + what);
  }
  return ok;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double P99OrMedian(const std::vector<double>& values) {
  return Percentile(values, values.size() >= 1000 ? 0.99 : 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

namespace {
constexpr double kBucketRatio = 1.02;
}  // namespace

void LatencyHistogram::Add(double seconds) {
  const double micros = seconds * 1e6;
  const int bucket =
      micros <= 1.0
          ? 0
          : static_cast<int>(std::min<double>(
                kBuckets - 1, std::log(micros) / std::log(kBucketRatio)));
  ++counts_[bucket];
  ++total_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::Percentile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(total_))), 1,
      total_);
  int64_t below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (below + counts_[i] >= rank) {
      // The rank's position within the bucket, its samples taken as spread
      // evenly over the bucket's log-width.
      const double within = (static_cast<double>(rank - below) - 0.5) /
                            static_cast<double>(counts_[i]);
      return 1e-6 * std::pow(kBucketRatio, i + within);
    }
    below += counts_[i];
  }
  return 0.0;
}

double LatencyHistogram::P99OrMedian() const {
  return Percentile(total_ >= 1000 ? 0.99 : 0.5);
}

int SpanLog::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Now(), 0.0, parent, 0.0});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_seconds +=
        span.end - span.start;
  }
  open_.pop_back();
}

void SpanLog::Fold(std::map<std::string, Aggregate>& into) const {
  for (const Span& span : spans_) {
    Aggregate& aggregate = into[span.name];
    ++aggregate.count;
    aggregate.total += span.end - span.start;
    aggregate.self += span.end - span.start - span.child_seconds;
  }
  for (const auto& [name, other] : merged_) {
    Aggregate& aggregate = into[name];
    aggregate.count += other.count;
    aggregate.total += other.total;
    aggregate.self += other.self;
  }
}

void SpanLog::Merge(const SpanLog& other) { other.Fold(merged_); }

std::string SpanLog::SummaryJson() const {
  std::map<std::string, Aggregate> all;
  Fold(all);
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, aggregate] : all) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"count\": " << aggregate.count
        << ", \"total_s\": " << Number(aggregate.total)
        << ", \"self_s\": " << Number(aggregate.self) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
