// Dense GEMM kernels for the neural-network training hot path.
//
// Every kernel *accumulates* into a caller-owned C, so the surrounding code
// can reuse buffers instead of constructing fresh matrices per call. Three
// transpose variants cover the whole backprop triangle without ever
// materializing a transpose of an operand the caller owns:
//   gemm_nn: C += A B        (forward:  Y += X W)
//   gemm_tn: C += A^T B      (weights:  dW += X^T dY)
//   gemm_nt: C += A B^T      (inputs:   dX += dY W^T)
//
// Rounding contract. Results are reproducible bit for bit: each output
// element goes through a fixed sequence of roundings that depends only on
// (m, n, k) and the ISA path, never on threads, blocking, the CMake build
// type or MAOPT_NATIVE.
// "fma" below is one fused multiply-add on the AVX2+FMA path and a rounded
// product plus a rounded add on the SSE2 path (no FMA unit):
//   gemm_nn, gemm_tn: for each group of four consecutive p (groups start at
//     multiples of 4), t = fma(a0, b0, a1 * b1); t = fma(a2, b2, t);
//     t = fma(a3, b3, t); c += t. The last k % 4 terms go one by one as
//     c = fma(a, b, c).
//   gemm_nt: s = 0; s += a * b for p in order with each product rounded
//     (never fused), except that for odd k the last term is s = fma(a, b, s);
//     then c += s.
// These are the roundings of the scalar kernels the SIMD ones replaced (as
// GCC -O3 built them), pinned by tests/linalg/test_gemm_bits.cpp against a
// frozen copy of those kernels.
//
// Speed. With n <= 16 outputs (the MLPs' top layers), gemm_nn and gemm_tn
// keep the whole C block in vector registers for the full k loop; wider
// outputs run a cache-tiled loop that streams C row segments. gemm_nt
// reads B^T through a packed copy: it transposes the first n - n % 4 rows
// of B into the caller's `pack` scratch on every call (B is a weight matrix
// that changes between calls, so a pack is never reused) and then
// vectorizes across output columns. The caller owns the scratch so the hot
// loop never allocates: nn::Linear keeps it in a Workspace slot. The vector
// width is chosen per ISA path, four lanes with AVX2 and two with SSE2 (see
// linalg/dispatch.hpp). 256-bit generic vectors must not reach SSE2 code:
// GCC lowers them piecewise through memory, about 5x slower than the
// 128-bit body.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace maopt {
class ThreadPool;
}

namespace maopt::linalg {

/// C (m x n) += A (m x k) * B (k x n); all row-major, C pre-sized.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);

/// C (m x n) += A^T * B where A is stored (k x m) row-major.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);

/// C (m x n) += A * B^T where B is stored (n x k) row-major. `pack` is
/// scratch for at least n * k doubles, overwritten on every call; it may be
/// null when m < 2, n < 4 or k == 0.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c, double* pack);

/// c = a * b via the blocked serial kernel; c is reshaped (capacity reused).
void matmul_blocked(const Mat& a, const Mat& b, Mat& c);
Mat matmul_blocked(const Mat& a, const Mat& b);

/// Below this many FLOPs (2*m*n*k) a parallel dispatch costs more than it
/// saves and matmul_parallel falls back to the serial blocked kernel.
inline constexpr double kParallelMinFlops = 4e6;

/// c = a * b with row panels of A split across `pool`. Falls back to the
/// serial blocked kernel for small shapes (see `min_flops`) or a 1-worker
/// pool. Results are identical to matmul_blocked for every thread count.
void matmul_parallel(const Mat& a, const Mat& b, Mat& c, ThreadPool& pool,
                     double min_flops = kParallelMinFlops);
Mat matmul_parallel(const Mat& a, const Mat& b, ThreadPool& pool,
                    double min_flops = kParallelMinFlops);

}  // namespace maopt::linalg
