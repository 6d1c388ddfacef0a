// Frozen copy of the GEMM kernels as they were before the SIMD rewrite of
// src/linalg/gemm.cpp. test_gemm_bits.cpp compares the live kernels against
// these bit for bit, so this file must not change: it is the definition of
// the rounding each output element gets. It is compiled with the same
// target_clones dispatch, MAOPT_HOT marker and per-file compile options as
// gemm.cpp (see tests/CMakeLists.txt), so each clone here is built the way
// the shipped kernel used to be.
#include "gemm_reference.hpp"

#include <algorithm>

#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"

namespace maopt::linalg::reference {

namespace {

constexpr std::size_t kRowsTile = 64;
constexpr std::size_t kDepthTile = 64;
constexpr std::size_t kColsTile = 256;

}  // namespace

#define MAOPT_GEMM_CLONES MAOPT_TARGET_CLONES

MAOPT_GEMM_CLONES
MAOPT_HOT void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c) {
  for (std::size_t jj = 0; jj < n; jj += kColsTile) {
    const std::size_t jend = std::min(n, jj + kColsTile);
    for (std::size_t kk = 0; kk < k; kk += kDepthTile) {
      const std::size_t kend = std::min(k, kk + kDepthTile);
      for (std::size_t ii = 0; ii < m; ii += kRowsTile) {
        const std::size_t iend = std::min(m, ii + kRowsTile);
        std::size_t i = ii;
        // 2x4 register micro-kernel: two C rows retire four rank-1 updates
        // per pass, so each quartet of B-row loads feeds sixteen flops.
        for (; i + 2 <= iend; i += 2) {
          const double* arow0 = a + i * k;
          const double* arow1 = arow0 + k;
          double* crow0 = c + i * n;
          double* crow1 = crow0 + n;
          std::size_t p = kk;
          for (; p + 4 <= kend; p += 4) {
            const double a00 = arow0[p], a01 = arow0[p + 1], a02 = arow0[p + 2],
                         a03 = arow0[p + 3];
            const double a10 = arow1[p], a11 = arow1[p + 1], a12 = arow1[p + 2],
                         a13 = arow1[p + 3];
            const double* b0 = b + p * n;
            const double* b1 = b0 + n;
            const double* b2 = b1 + n;
            const double* b3 = b2 + n;
            for (std::size_t j = jj; j < jend; ++j) {
              const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
              crow0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
              crow1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
            }
          }
          for (; p < kend; ++p) {
            const double a0 = arow0[p], a1 = arow1[p];
            const double* bp = b + p * n;
            for (std::size_t j = jj; j < jend; ++j) {
              crow0[j] += a0 * bp[j];
              crow1[j] += a1 * bp[j];
            }
          }
        }
        for (; i < iend; ++i) {
          const double* arow = a + i * k;
          double* crow = c + i * n;
          std::size_t p = kk;
          for (; p + 4 <= kend; p += 4) {
            const double a0 = arow[p], a1 = arow[p + 1], a2 = arow[p + 2], a3 = arow[p + 3];
            const double* b0 = b + p * n;
            const double* b1 = b0 + n;
            const double* b2 = b1 + n;
            const double* b3 = b2 + n;
            for (std::size_t j = jj; j < jend; ++j)
              crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
          for (; p < kend; ++p) {
            const double ap = arow[p];
            const double* bp = b + p * n;
            for (std::size_t j = jj; j < jend; ++j) crow[j] += ap * bp[j];
          }
        }
      }
    }
  }
}

MAOPT_GEMM_CLONES
MAOPT_HOT void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c) {
  // A is (k x m): column i of A^T is the stride-m column i of A.
  for (std::size_t kk = 0; kk < k; kk += kDepthTile) {
    const std::size_t kend = std::min(k, kk + kDepthTile);
    for (std::size_t ii = 0; ii < m; ii += kRowsTile) {
      const std::size_t iend = std::min(m, ii + kRowsTile);
      std::size_t i = ii;
      // Same 2x4 micro-kernel as gemm_nn; the A columns i and i+1 sit next
      // to each other in memory, so the strided loads pair up naturally.
      for (; i + 2 <= iend; i += 2) {
        double* crow0 = c + i * n;
        double* crow1 = crow0 + n;
        std::size_t p = kk;
        for (; p + 4 <= kend; p += 4) {
          const double a00 = a[p * m + i], a10 = a[p * m + i + 1];
          const double a01 = a[(p + 1) * m + i], a11 = a[(p + 1) * m + i + 1];
          const double a02 = a[(p + 2) * m + i], a12 = a[(p + 2) * m + i + 1];
          const double a03 = a[(p + 3) * m + i], a13 = a[(p + 3) * m + i + 1];
          const double* b0 = b + p * n;
          const double* b1 = b0 + n;
          const double* b2 = b1 + n;
          const double* b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j) {
            const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
            crow0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
            crow1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
          }
        }
        for (; p < kend; ++p) {
          const double a0 = a[p * m + i], a1 = a[p * m + i + 1];
          const double* bp = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow0[j] += a0 * bp[j];
            crow1[j] += a1 * bp[j];
          }
        }
      }
      for (; i < iend; ++i) {
        double* crow = c + i * n;
        std::size_t p = kk;
        for (; p + 4 <= kend; p += 4) {
          const double a0 = a[p * m + i];
          const double a1 = a[(p + 1) * m + i];
          const double a2 = a[(p + 2) * m + i];
          const double a3 = a[(p + 3) * m + i];
          const double* b0 = b + p * n;
          const double* b1 = b0 + n;
          const double* b2 = b1 + n;
          const double* b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j)
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        for (; p < kend; ++p) {
          const double ap = a[p * m + i];
          const double* bp = b + p * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += ap * bp[j];
        }
      }
    }
  }
}

MAOPT_GEMM_CLONES
MAOPT_HOT void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c) {
  // c(i, j) = dot(A.row(i), B.row(j)): both operands contiguous. A 2x4 block
  // of dot products per pass shares each quartet of B loads between two A
  // rows, halving the streamed bytes per flop.
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* arow0 = a + i * k;
    const double* arow1 = arow0 + k;
    double* crow0 = c + i * n;
    double* crow1 = crow0 + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double a0 = arow0[p], a1 = arow1[p];
        const double bv0 = b0[p], bv1 = b1[p], bv2 = b2[p], bv3 = b3[p];
        s00 += a0 * bv0;
        s01 += a0 * bv1;
        s02 += a0 * bv2;
        s03 += a0 * bv3;
        s10 += a1 * bv0;
        s11 += a1 * bv1;
        s12 += a1 * bv2;
        s13 += a1 * bv3;
      }
      crow0[j] += s00;
      crow0[j + 1] += s01;
      crow0[j + 2] += s02;
      crow0[j + 3] += s03;
      crow1[j] += s10;
      crow1[j + 1] += s11;
      crow1[j + 2] += s12;
      crow1[j + 3] += s13;
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k;
      double s0 = 0.0, s1 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s0 += arow0[p] * brow[p];
        s1 += arow1[p] * brow[p];
      }
      crow0[j] += s0;
      crow1[j] += s1;
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double ap = arow[p];
        s0 += ap * b0[p];
        s1 += ap * b1[p];
        s2 += ap * b2[p];
        s3 += ap * b3[p];
      }
      crow[j] += s0;
      crow[j + 1] += s1;
      crow[j + 2] += s2;
      crow[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k;
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] += s;
    }
  }
}

}  // namespace maopt::linalg::reference
