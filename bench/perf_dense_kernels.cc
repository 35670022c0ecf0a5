// Kernel-backend throughput for the dense-kernel layer (DESIGN.md,
// "Kernel backends"): generic vs vectorized vs float32 ops tables
// (kernels_backend.h), called directly through GetKernelOps so the
// comparison is free of dispatch state. Fast backends are tolerance-equal,
// not bit-equal, to generic (see tests/backend_parity_test.cc), so each
// backend reports its own state checksum rather than a bit_identical flag.
//
// Output is one BENCH-style JSON object on stdout, with a trailing "meta"
// block (compiler/flags/ISA) so committed BENCH_kernels.json snapshots
// stay comparable across machines and PRs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "base/trace.h"
#include "bench_meta.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"

namespace {

using x2vec::linalg::Matrix;

uint64_t Fnv1a(const double* data, size_t count) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- Kernel-backend micro-benchmarks ----------------------------------------

constexpr int kBackendRows = 1024;
constexpr int kBackendDim = 64;
constexpr int kBackendReps = 2000;
constexpr double kLr = 0.025;

struct BackendTimings {
  double dot_seconds = 0.0;
  double sqdist_seconds = 0.0;
  double axpy_seconds = 0.0;
  double sgd_seconds = 0.0;
  uint64_t checksum = 0;  ///< over every mutated row and reduction result
};

// Runs the same row-sweep workload through one backend's ops table. Each
// backend gets fresh copies of the mutable operands, so all three see an
// identical stream of inputs; the checksum folds in the mutated matrices
// and the reduction accumulators, pinning each backend's numerics.
BackendTimings RunBackendBench(const x2vec::linalg::KernelOps& ops,
                               const Matrix& lhs, const Matrix& rhs) {
  BackendTimings timings;
  double dot_acc = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        dot_acc += ops.dot(lhs.ConstRowSpan(i), rhs.ConstRowSpan(i));
      }
    }
    timings.dot_seconds = watch.Seconds();
  }
  double sqdist_acc = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        sqdist_acc +=
            ops.squared_distance(lhs.ConstRowSpan(i), rhs.ConstRowSpan(i));
      }
    }
    timings.sqdist_seconds = watch.Seconds();
  }
  Matrix axpy_target = rhs;
  {
    // Small alpha keeps the accumulated target bounded over all reps.
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        ops.axpy(1e-4, lhs.ConstRowSpan(i), axpy_target.RowSpan(i));
      }
    }
    timings.axpy_seconds = watch.Seconds();
  }
  Matrix context = rhs;
  std::vector<double> gradient(kBackendDim);
  double loss = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        std::fill(gradient.begin(), gradient.end(), 0.0);
        loss += ops.sgd_pair_update(lhs.ConstRowSpan(i), context.RowSpan(i),
                                    (i & 1) ? 1.0 : 0.0, kLr, gradient);
      }
    }
    timings.sgd_seconds = watch.Seconds();
  }
  const double reductions[3] = {dot_acc, sqdist_acc, loss};
  timings.checksum =
      Fnv1a(axpy_target.data().data(), axpy_target.data().size()) ^
      Fnv1a(context.data().data(), context.data().size()) ^
      Fnv1a(reductions, 3);
  return timings;
}

// One `"<name>": {...}` JSON fragment for a backend, with per-kernel
// calls/sec and speedups relative to the generic baseline.
void PrintBackendJson(const char* name, const BackendTimings& timings,
                      const BackendTimings& baseline, bool trailing_comma) {
  const double calls =
      static_cast<double>(kBackendRows) * static_cast<double>(kBackendReps);
  std::printf(
      "  \"%s\": {\"dot_calls_per_sec\": %.0f, "
      "\"sqdist_calls_per_sec\": %.0f, \"axpy_calls_per_sec\": %.0f, "
      "\"sgd_calls_per_sec\": %.0f, \"dot_speedup\": %.2f, "
      "\"sqdist_speedup\": %.2f, \"axpy_speedup\": %.2f, "
      "\"sgd_speedup\": %.2f, \"checksum\": \"0x%016llx\"}%s\n",
      name, calls / timings.dot_seconds, calls / timings.sqdist_seconds,
      calls / timings.axpy_seconds, calls / timings.sgd_seconds,
      baseline.dot_seconds / timings.dot_seconds,
      baseline.sqdist_seconds / timings.sqdist_seconds,
      baseline.axpy_seconds / timings.axpy_seconds,
      baseline.sgd_seconds / timings.sgd_seconds,
      static_cast<unsigned long long>(timings.checksum),
      trailing_comma ? "," : "");
}

}  // namespace

int main() {
  // Backend-vs-backend kernel sweep. The generic table is the baseline all
  // speedups are relative to; the acceptance bar tracked in
  // BENCH_kernels.json is sgd_speedup >= 1.5 for at least one fast backend.
  const Matrix bench_lhs =
      Matrix::Random(kBackendRows, kBackendDim, 1.0, /*seed=*/14);
  const Matrix bench_rhs =
      Matrix::Random(kBackendRows, kBackendDim, 1.0, /*seed=*/15);
  const BackendTimings generic = RunBackendBench(
      x2vec::linalg::GetKernelOps(x2vec::linalg::KernelBackend::kGeneric),
      bench_lhs, bench_rhs);
  const BackendTimings vectorized = RunBackendBench(
      x2vec::linalg::GetKernelOps(x2vec::linalg::KernelBackend::kVectorized),
      bench_lhs, bench_rhs);
  const BackendTimings float32 = RunBackendBench(
      x2vec::linalg::GetKernelOps(x2vec::linalg::KernelBackend::kFloat32),
      bench_lhs, bench_rhs);

  std::printf(
      "{\"bench\": \"perf_dense_kernels\",\n"
      " \"kernels\": {\"rows\": %d, \"dim\": %d, \"reps\": %d,\n",
      kBackendRows, kBackendDim, kBackendReps);
  PrintBackendJson("generic", generic, generic, /*trailing_comma=*/true);
  PrintBackendJson("vectorized", vectorized, generic,
                   /*trailing_comma=*/true);
  PrintBackendJson("float32", float32, generic, /*trailing_comma=*/false);
  std::printf(" },\n \"meta\": %s}\n", x2vec::bench::MetaJson().c_str());
  return 0;
}
