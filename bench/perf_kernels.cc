// Section 3.5's efficiency claim: the WL subtree kernel is much cheaper
// than the walk/path-based kernels of Section 2.4 while being at least as
// informative. Benchmarks full Gram-matrix computation for each kernel on
// the same dataset. Arg(16) is the graph size of the graph_collection
// benchmark workload.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "bench_meta.h"
#include "graph/generators.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"

namespace {

using x2vec::graph::Graph;

std::vector<Graph> Dataset(int count, int size) {
  x2vec::Rng rng = x2vec::MakeRng(35);
  std::vector<Graph> graphs;
  graphs.reserve(count);
  for (int i = 0; i < count; ++i) {
    graphs.push_back(x2vec::graph::ErdosRenyiGnm(size, 2 * size, rng));
  }
  return graphs;
}

void BM_WlSubtreeKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::WlSubtreeKernelMatrix(graphs, 5));
  }
}
BENCHMARK(BM_WlSubtreeKernel)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_ShortestPathKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::ShortestPathKernelMatrix(graphs));
  }
}
BENCHMARK(BM_ShortestPathKernel)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_RandomWalkKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::RandomWalkKernelMatrix(graphs, 0.1, 6));
  }
}
BENCHMARK(BM_RandomWalkKernel)
    ->Arg(16)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_GraphletKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::kernel::GraphletKernelMatrix(graphs));
  }
}
BENCHMARK(BM_GraphletKernel)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_HomVectorKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  const auto family = x2vec::hom::DefaultPatternFamily(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::HomVectorKernelMatrix(graphs, family));
  }
}
BENCHMARK(BM_HomVectorKernel)
    ->Arg(16)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() plus the bench_meta entries in the benchmark context
// (under "context" in --benchmark_format=json output).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const auto& [key, value] : x2vec::bench::MetaEntries()) {
    benchmark::AddCustomContext(key, value);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
