#pragma once

#include <span>
#include <string_view>

#include "base/status.h"

namespace x2vec::linalg {

/// Runtime-switchable numeric backends for the dense span kernels in
/// linalg/kernels.h (DESIGN.md, "Kernel backends").
///
/// `kGeneric` is the golden reference: the order-exact double loops whose
/// bit patterns the kernels_test digests pin. `kVectorized` trades that
/// bit-identity for throughput and is *tolerance-checked* against generic
/// by tests/backend_parity_test.cc (ctest -L parity): GCC/Clang
/// vector-extension loops (multiple independent accumulators,
/// lane-folded), with an AVX2+FMA intrinsic specialization bound at
/// startup when CPUID reports both features. Same double precision,
/// different summation order.
///
/// Selection mirrors X2VEC_THREADS: a programmatic SetKernelBackend()
/// override wins, then the X2VEC_KERNEL_BACKEND environment variable (read
/// once, on first use), then the generic default. Switching backends never
/// changes *which* results exist, only their low-order bits — and generic
/// always reproduces the pinned digests.
enum class KernelBackend {
  kGeneric = 0,
  kVectorized = 1,
};

/// Stable lowercase name ("generic", "vectorized") — the same tokens
/// X2VEC_KERNEL_BACKEND accepts.
std::string_view KernelBackendName(KernelBackend backend);

/// The ISA facts runtime dispatch consults. Detected once per process via
/// CPUID on x86-64 (GCC/Clang __builtin_cpu_supports); all-false on other
/// targets, where the vectorized backend still works through the
/// compiler's baseline lowering of vector extensions.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// Queries the running CPU. Cheap after the first call (cached).
CpuFeatures DetectCpuFeatures();

/// Resolves a backend from an X2VEC_KERNEL_BACKEND-style string. Exposed
/// separately (like ResolveThreadCount) so tests cover the parsing rules
/// without touching the process environment. Rules:
///
///   null / ""       -> kGeneric (the golden default)
///   "generic"       -> kGeneric
///   "vectorized"    -> kVectorized (portable; uses the AVX2+FMA
///                      specialization only when the CPU has it)
///   anything else   -> kInvalidArgument naming the bad value
StatusOr<KernelBackend> ResolveKernelBackend(const char* env_value);

/// The backend the public kernels currently dispatch to. Resolution order:
/// SetKernelBackend() override, then X2VEC_KERNEL_BACKEND (read once, on
/// first use; a malformed value falls back to kGeneric and bumps the
/// "kernels.backend_env_invalid" counter), then kGeneric.
KernelBackend ActiveKernelBackend();

/// Programmatic backend override. Thread-safe; takes effect on the next
/// kernel call. Callers that flip backends mid-process (tests, benches)
/// must restore kGeneric before touching anything digest-pinned.
void SetKernelBackend(KernelBackend backend);

/// True when the vectorized backend bound its AVX2+FMA intrinsic
/// specialization (compile-time x86 support and runtime CPUID both
/// present); false when it runs the portable vector-extension lowering.
bool VectorizedUsesAvx2();

/// Dispatch table of the kernels whose inner loops differ per backend.
/// The derived kernels (Norm2, CosineSimilarity, Distance2) and the shared
/// saturated Sigmoid build on these and need no slots of their own.
/// Exposed so the parity harness and benches can drive one backend
/// directly, regardless of the process-wide active selection.
struct KernelOps {
  double (*dot)(std::span<const double>, std::span<const double>);
  double (*squared_distance)(std::span<const double>,
                             std::span<const double>);
  void (*axpy)(double, std::span<const double>, std::span<double>);
  void (*scale)(std::span<double>, double);
  double (*sgd_pair_update)(std::span<const double>, std::span<double>,
                            double, double, std::span<double>);
  double (*sgd_pair_update_delta)(std::span<const double>,
                                  std::span<const double>, double, double,
                                  std::span<double>, std::span<double>);
};

/// Per-backend tables. Generic lives in kernels.cc next to the reference
/// loops; the vectorized table lives in kernels_vectorized.cc (a
/// `linalg/kernels_*` backend file, where the `intrinsics` lint rule
/// permits raw SIMD).
const KernelOps& GenericKernelOps();
const KernelOps& VectorizedKernelOps();

/// Table for an explicit backend choice.
const KernelOps& GetKernelOps(KernelBackend backend);

/// Table the public kernels dispatch through: one relaxed atomic load in
/// steady state, lazy env resolution on first use.
const KernelOps& ActiveKernelOps();

namespace detail {

/// Shared loss accounting for the SGD pair kernels: negative log-likelihood
/// of predicting `sig` for a pair with the given label, floored away from
/// log(0). Every backend returns exactly this, so loss bookkeeping differs
/// across backends only through `sig`.
double PairLoss(double label, double sig);

}  // namespace detail

}  // namespace x2vec::linalg
