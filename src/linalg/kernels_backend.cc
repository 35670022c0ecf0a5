#include "linalg/kernels_backend.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "base/metrics.h"

namespace x2vec::linalg {

std::string_view KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kGeneric:
      return "generic";
    case KernelBackend::kVectorized:
      return "vectorized";
  }
  return "generic";
}

CpuFeatures DetectCpuFeatures() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
#endif
    return f;
  }();
  return features;
}

StatusOr<KernelBackend> ResolveKernelBackend(const char* env_value) {
  const std::string_view value = env_value == nullptr ? "" : env_value;
  if (value.empty() || value == "generic") return KernelBackend::kGeneric;
  if (value == "vectorized") return KernelBackend::kVectorized;
  return Status::InvalidArgument(
      "X2VEC_KERNEL_BACKEND: unknown backend '" + std::string(value) +
      "' (expected generic or vectorized)");
}

const KernelOps& GetKernelOps(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kGeneric:
      return GenericKernelOps();
    case KernelBackend::kVectorized:
      return VectorizedKernelOps();
  }
  return GenericKernelOps();
}

namespace {

std::mutex& BackendMutex() {
  static std::mutex m;
  return m;
}

// Hot-path state: the dispatch table pointer (null until first resolution)
// and the enum it was built from. Release/acquire pairing makes the table
// a backend published by one thread safe to call from another.
std::atomic<const KernelOps*> g_active_ops{nullptr};
std::atomic<int> g_active_backend{static_cast<int>(KernelBackend::kGeneric)};

// One-time env resolution under BackendMutex(). A malformed value cannot
// surface a Status from inside a kernel call, so it falls back to generic
// and leaves a counter for run_report.json to flag.
KernelBackend ResolveFromEnvironment() {
  StatusOr<KernelBackend> resolved =
      ResolveKernelBackend(std::getenv("X2VEC_KERNEL_BACKEND"));
  if (resolved.ok()) return resolved.value();
  X2VEC_METRIC_COUNT("kernels.backend_env_invalid", 1);
  return KernelBackend::kGeneric;
}

void PublishBackend(KernelBackend backend) {
  g_active_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
  g_active_ops.store(&GetKernelOps(backend), std::memory_order_release);
}

const KernelOps* EnsureResolved() {
  const KernelOps* ops = g_active_ops.load(std::memory_order_acquire);
  if (ops != nullptr) return ops;
  std::lock_guard<std::mutex> lock(BackendMutex());
  ops = g_active_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    PublishBackend(ResolveFromEnvironment());
    ops = g_active_ops.load(std::memory_order_acquire);
  }
  return ops;
}

}  // namespace

KernelBackend ActiveKernelBackend() {
  (void)EnsureResolved();
  return static_cast<KernelBackend>(
      g_active_backend.load(std::memory_order_relaxed));
}

void SetKernelBackend(KernelBackend backend) {
  std::lock_guard<std::mutex> lock(BackendMutex());
  PublishBackend(backend);
}

const KernelOps& ActiveKernelOps() { return *EnsureResolved(); }

}  // namespace x2vec::linalg
