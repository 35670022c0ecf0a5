#pragma once

#include <span>
#include <vector>

namespace x2vec::linalg {

/// Free dense kernels over contiguous spans of doubles — the primitives
/// every numeric hot loop (SGNS/PV-DBOW SGD steps, TransE/RESCAL scoring,
/// kNN/k-means scans, Gram fills) runs on. Pair them with
/// Matrix::RowSpan()/ConstRowSpan() to operate on matrix rows without
/// copies or per-element bounds checks.
///
/// Contract (DESIGN.md, "Dense kernels and row views"): under the default
/// `generic` backend each kernel accumulates in the exact floating-point
/// operation order of the element-indexed loop it replaced, left to right,
/// one accumulator. That makes sweeping a caller from operator()/Row() onto
/// a kernel a pure performance change — outputs stay bit-identical, pinned
/// by the golden digests in tests/kernels_test.cc.
///
/// These entry points dispatch through the runtime-switchable backend
/// layer in linalg/kernels_backend.h (X2VEC_KERNEL_BACKEND /
/// SetKernelBackend): `vectorized` reorders the summation for SIMD — a
/// *numeric* change relative to generic, tolerance-checked against it by
/// tests/backend_parity_test.cc rather than digest-pinned. Copy and Sigmoid
/// are backend-invariant.
///
/// std::vector<double> converts implicitly to std::span<const double>, so
/// existing vector-based callers keep working; braced initializer lists do
/// not convert — name a vector instead.

/// sum_i a[i] * b[i], accumulated left to right.
double Dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm, sqrt(Dot(a, a)).
double Norm2(std::span<const double> a);

/// Cosine similarity; returns 0 if either vector is all-zero.
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

/// sum_i (a[i] - b[i])^2 — no square root.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance, sqrt(SquaredDistance(a, b)). (The historical name
/// predates the kernel layer; the "2" is the l2 norm, not a square.)
double Distance2(std::span<const double> a, std::span<const double> b);

/// y += alpha * x. alpha == 1.0 is exact in IEEE arithmetic, so plain
/// element-wise accumulation (`y[i] += x[i]`) can be swept onto
/// Axpy(1.0, x, y) without changing bits.
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

/// In-place scale, x *= alpha.
void Scale(std::span<double> x, double alpha);

/// dst = src (sizes must match; ranges must not overlap).
void Copy(std::span<const double> src, std::span<double> dst);

/// Numerically saturated logistic, shared by the SGNS-family trainers:
/// exactly 1.0 for x > 30, exactly 0.0 for x < -30, 1/(1+e^-x) otherwise.
double Sigmoid(double x);

/// Fused SGNS SGD step for one (center, context) training pair:
///
///   score     = Dot(center, context)
///   gradient  = (label - Sigmoid(score)) * lr
///   center_gradient += gradient * context   (accumulated, applied later)
///   context         += gradient * center    (updated in place)
///
/// and returns the pair's negative log-likelihood contribution. The two
/// updates interleave per-dimension — center_gradient[d] reads context[d]
/// *before* the same iteration updates it — matching the historical
/// UpdatePair loop bit for bit. `center` must not alias `context` (they
/// live in different matrices in every trainer).
double SgdPairUpdate(std::span<const double> center, std::span<double> context,
                     double label, double lr,
                     std::span<double> center_gradient);

/// Frozen-parameter variant for the sharded trainer: reads `context` from
/// the batch-start parameters and accumulates the context update into
/// `context_delta` instead of updating in place. Same operation order and
/// return value as SgdPairUpdate.
double SgdPairUpdateDelta(std::span<const double> center,
                          std::span<const double> context, double label,
                          double lr, std::span<double> center_gradient,
                          std::span<double> context_delta);

/// Dense accumulator for sparse row updates against a matrix: a flat
/// touched-rows x dim value buffer plus a dense row -> slot index, replacing
/// the std::map<int, std::vector<double>> the sharded SGNS trainer used to
/// allocate per sequence. Touched rows are recorded in first-touch order;
/// since distinct rows occupy distinct memory, applying them in any fixed
/// order is bit-identical, and first-touch order is itself deterministic
/// (fixed by the sequence data).
class RowDeltaBuffer {
 public:
  /// Prepares the buffer for a matrix with `rows` rows of `dim` columns and
  /// clears any previous accumulation. After the first call at a given
  /// `rows`, this is O(touched) rather than O(rows), so a buffer reused
  /// across sequences allocates nothing in steady state.
  void Reset(int rows, int dim);

  /// Accumulator span for `row`, zero-initialized on first touch. The span
  /// is invalidated by the next Accumulator() call on this buffer (the
  /// flat storage may grow) — use it immediately.
  std::span<double> Accumulator(int row);

  /// Rows with a nonempty accumulator, in first-touch order.
  const std::vector<int>& touched() const { return touched_; }

  /// Read-only view of the accumulator at `slot` (index into touched()).
  std::span<const double> Slot(int slot) const {
    return {values_.data() + static_cast<size_t>(slot) * dim_,
            static_cast<size_t>(dim_)};
  }

 private:
  int dim_ = 0;
  std::vector<int> slot_of_row_;  // row -> slot, -1 when untouched
  std::vector<int> touched_;      // slot -> row, first-touch order
  std::vector<double> values_;    // flat touched() x dim_ buffer
};

}  // namespace x2vec::linalg
