// x2vec benchmark program.
//
//   x2vec_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//   x2vec_perfbench --self-test
//
// Untraced (--trace 0): runs one warm-up set-up and round, times set-up
// several times before and after running whole rounds of the workload for
// S seconds, checks the outputs and prints the end-to-end metrics. Traced
// (--trace 1): runs the workload for S/2 seconds untraced and S/2 seconds
// with spans around each library call (their throughput ratio is the
// tracing overhead; the span summary goes to DIR/trace-NAME-N.json), then
// times every layer probe. Either way the last stdout line is one JSON
// object: correct, attempted, failed, metrics.

#include <cstdio>
#include <fstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTest();

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "graph_collection") {
    return MakeCollectionWorkload(options);
  }
  if (options.workload == "serve_knn") return MakeServingWorkload(options);
  return MakeTrainingWorkload(options);
}

namespace {

double Throughput(const Result& report) {
  for (const Metric& metric : report.metrics) {
    if (metric.name == "throughput_per_s") return metric.value;
  }
  return 0.0;
}

// Appends SetupReps() / 2 set-up samples to `samples`, each the time of
// SetupBatch() consecutive set-ups divided by SetupBatch().
void TimeSetups(Workload& workload, std::vector<double>& samples) {
  for (int r = 0; r < workload.SetupReps() / 2; ++r) {
    const double start = Now();
    for (int b = 0; b < workload.SetupBatch(); ++b) workload.Setup();
    samples.push_back((Now() - start) / workload.SetupBatch());
  }
}

Result Untraced(Workload& workload, const Options& options) {
  Result result;
  // One set-up and one round warm the process (page faults, caches, lazy
  // statics). Half the timed set-ups run before the measured phase and
  // half after it, so that setup_s samples the host's load at both ends
  // of the run: a burst of load from outside the process lasts seconds,
  // longer than one group of set-ups. The last set-up before the measured
  // phase feeds it, and the last one after it feeds the checks.
  workload.Setup();
  workload.Measure(0.0, nullptr, result);
  std::vector<double> setups;
  TimeSetups(workload, setups);
  workload.Measure(options.seconds, nullptr, result);
  TimeSetups(workload, setups);
  workload.Check(result);
  result.Add("setup_s", Median(setups), "s");
  workload.Report(result);
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return result;
}

Result Traced(std::unique_ptr<Workload> workload, const Options& options) {
  Result result;
  workload->Setup();
  workload->Measure(0.0, nullptr, result);
  Result untraced;
  workload->Measure(options.seconds / 2, nullptr, result);
  workload->Report(untraced);
  SpanLog spans;
  Result traced;
  workload->Measure(options.seconds / 2, &spans, result);
  workload->Report(traced);
  workload->Check(result);
  workload.reset();
  result.Add("trace.overhead_ratio",
             Throughput(untraced) / Throughput(traced), "ratio");
  const std::string path = options.workdir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << spans.SummaryJson() << "\n";

  TrainingLayers(options, result);
  CollectionLayers(options, result);
  ServingLayers(options, result);
  return result;
}

int Usage() {
  std::fprintf(stderr,
               "usage: x2vec_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] | --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload =
      have_workload ? MakeWorkload(options) : nullptr;
  if (workload == nullptr) return Usage();

  const Result result = options.trace ? Traced(std::move(workload), options)
                                      : Untraced(*workload, options);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  return 0;
}
