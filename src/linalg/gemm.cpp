#include "linalg/gemm.hpp"

#include <algorithm>
#include <type_traits>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"

// Every kernel below reproduces, element for element, the floating-point
// operations of the scalar kernels it replaced (frozen in
// tests/linalg/gemm_reference.cpp and compared bit for bit by
// test_gemm_bits.cpp). Two rules carry that:
//   * In the SIMD paths nothing is left to -ffp-contract. Where the old
//     kernel fused a product into an add, fma<Isa>() spells the FMA out;
//     where it rounded the product first, the product goes through
//     rounded(), which contraction cannot see through.
//   * The kept scalar code (gemm_nt's edge tails, the wide gemm_nn/gemm_tn
//     loops) is the old source and still relies on GCC's contraction,
//     which rounds it differently at -O2 and -O3 (-O3 vectorizes gemm_nt's
//     dot products as in-order multiply-then-add, -O2 fuses them).
//     src/CMakeLists.txt therefore builds this file, and the reference, at
//     -O3 in every build type and for the baseline ISA even with
//     MAOPT_NATIVE (AVX-512 vectorization rounds the tails differently
//     again).

namespace maopt::linalg {

namespace {

// Tile sizes of the wide gemm_nn/gemm_tn loops: a kRowsTile x kDepthTile
// panel of A (32 KB) plus a kDepthTile x kColsTile panel of B (128 KB) fit
// in L2, while the kColsTile-wide C/B row segments the inner loop touches
// stay in L1.
constexpr std::size_t kRowsTile = 64;
constexpr std::size_t kDepthTile = 64;
constexpr std::size_t kColsTile = 256;

// gemm_nn/gemm_tn outputs at most this wide (the MLPs' top layers: 9
// metrics for the critic, 16 design variables for an actor on the OTA)
// keep their C block in registers for the whole k loop.
constexpr std::size_t kNarrowCols = 16;

#define MAOPT_GEMM_INLINE inline __attribute__((always_inline))

// The 256-bit helpers below are always inlined into AVX2 code, so the ABI
// for passing them by value never applies.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Lane types. Lanes4 is only ever instantiated inside MAOPT_TARGET_V3
// functions (or -march builds with AVX2): in SSE2 code GCC lowers a 256-bit
// generic vector piecewise through memory, and the kernels ran about 5x
// slower than with Lanes2 (gemm_nt 64 x 100 x 100: 1.8 vs 9.1 GFLOP/s,
// MAOPT_NO_TARGET_CLONES build on a 4-core Xeon).
typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <class V>
MAOPT_GEMM_INLINE V load(const double* p) {
  V v = {};
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
MAOPT_GEMM_INLINE void store(double* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// Broadcast. For GCC it is spelled as a shuffle of lane 0: GCC builds the
// brace form {x, x, x, x} with two shuffles (movddup + vinsertf128) inside
// the nt loop, where the shuffle form is one vbroadcastsd from memory.
template <class V>
MAOPT_GEMM_INLINE V splat(double x) {
  if constexpr (std::is_same_v<V, double>) {
    return x;
  } else {
#if defined(__clang__)
    if constexpr (kLanes<V> == 4)
      return V{x, x, x, x};
    else
      return V{x, x};
#else
    typedef long long Lane0 __attribute__((vector_size(sizeof(V))));
    return __builtin_shuffle(V{x}, Lane0{});
#endif
  }
}

// Returns v unchanged, but hides it from FMA contraction: `c + rounded(a * b)`
// always rounds the product before the add.
template <class V>
MAOPT_GEMM_INLINE V rounded(const V& product) {
  V v = product;
#if defined(__x86_64__)
  __asm__("" : "+x"(v));
#endif
  return v;
}

// The two ISA paths: lane vector type, and whether fma() below is one fused
// operation. Avx2 is only ever instantiated inside MAOPT_TARGET_V3 functions
// (or in builds compiled for an AVX2+FMA host).
struct Sse2 {
  using V = Lanes2;
  static constexpr bool kFma = false;
};
struct Avx2 {
  using V = Lanes4;
  static constexpr bool kFma = true;
};

// a * b + c: fused per lane with an FMA unit (GCC turns the per-lane
// builtin into one vector FMA), else the product is rounded before the add.
// Written out rather than left to -ffp-contract, which GCC skips once it
// has vectorized the multiply apart from the add.
template <class Isa, class V>
MAOPT_GEMM_INLINE V fma(V a, V b, V c) {
  if constexpr (!Isa::kFma) {
    return c + rounded(a * b);
  } else if constexpr (std::is_same_v<V, double>) {
    return __builtin_fma(a, b, c);
  } else {
    V r = {};
    for (std::size_t l = 0; l < kLanes<V>; ++l) r[l] = __builtin_fma(a[l], b[l], c[l]);
    return r;
  }
}

// ---------------------------------------------------------------- gemm_nn/tn

template <bool kTransA>
MAOPT_GEMM_INLINE double a_at(const double* a, std::size_t m, std::size_t k, std::size_t i,
                              std::size_t p) {
  return kTransA ? a[p * m + i] : a[i * k + p];
}

// C rows [i, i+R) x NV lane vectors of columns from j, held in registers
// across the whole k loop. Per element this is the tile loop's arithmetic:
// each group of four consecutive p (groups start at multiples of 4, also
// across depth tiles, which are 64 deep) adds
//   t = fma(a0, b0, round(a1 * b1)); t = fma(a2, b2, t); t = fma(a3, b3, t)
// to c, and the last k % 4 terms are fused into c one by one. Without an
// FMA unit every fma here is a rounded product plus a rounded add.
template <class Isa, class V, std::size_t R, std::size_t NV, bool kTransA>
MAOPT_GEMM_INLINE void narrow_block(std::size_t i, std::size_t j, std::size_t m, std::size_t n,
                                    std::size_t k, const double* a, const double* b, double* c) {
  constexpr std::size_t W = kLanes<V>;
  V acc[R][NV];
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) acc[r][v] = load<V>(c + (i + r) * n + j + v * W);
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const double* b0 = b + p * n + j;
    const double* b1 = b0 + n;
    const double* b2 = b1 + n;
    const double* b3 = b2 + n;
    for (std::size_t r = 0; r < R; ++r) {
      const V x0 = splat<V>(a_at<kTransA>(a, m, k, i + r, p));
      const V x1 = splat<V>(a_at<kTransA>(a, m, k, i + r, p + 1));
      const V x2 = splat<V>(a_at<kTransA>(a, m, k, i + r, p + 2));
      const V x3 = splat<V>(a_at<kTransA>(a, m, k, i + r, p + 3));
      for (std::size_t v = 0; v < NV; ++v) {
        V t = fma<Isa>(x0, load<V>(b0 + v * W), rounded(x1 * load<V>(b1 + v * W)));
        t = fma<Isa>(x2, load<V>(b2 + v * W), t);
        t = fma<Isa>(x3, load<V>(b3 + v * W), t);
        acc[r][v] = acc[r][v] + t;
      }
    }
  }
  for (; p < k; ++p) {
    const double* bp = b + p * n + j;
    for (std::size_t r = 0; r < R; ++r) {
      const V x = splat<V>(a_at<kTransA>(a, m, k, i + r, p));
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = fma<Isa>(x, load<V>(bp + v * W), acc[r][v]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) store<V>(c + (i + r) * n + j + v * W, acc[r][v]);
}

// One column panel (NV vectors of V from column j) down all m rows.
template <class Isa, class V, std::size_t NV, bool kTransA>
MAOPT_GEMM_INLINE void narrow_panel(std::size_t j, std::size_t m, std::size_t n, std::size_t k,
                                    const double* a, const double* b, double* c) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) narrow_block<Isa, V, 4, NV, kTransA>(i, j, m, n, k, a, b, c);
  for (; i < m; ++i) narrow_block<Isa, V, 1, NV, kTransA>(i, j, m, n, k, a, b, c);
}

// C (m x n, n <= kNarrowCols) += op(A) B: panels of two vectors, one vector,
// then single columns.
template <class Isa, bool kTransA>
MAOPT_GEMM_INLINE void gemm_narrow(std::size_t m, std::size_t n, std::size_t k, const double* a,
                                   const double* b, double* c) {
  using V = typename Isa::V;
  constexpr std::size_t W = kLanes<V>;
  std::size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) narrow_panel<Isa, V, 2, kTransA>(j, m, n, k, a, b, c);
  for (; j + W <= n; j += W) narrow_panel<Isa, V, 1, kTransA>(j, m, n, k, a, b, c);
  for (; j < n; ++j) narrow_panel<Isa, double, 1, kTransA>(j, m, n, k, a, b, c);
}

// Wide gemm_nn (n > kNarrowCols): the cache-tiled loop, whose inner j loop
// GCC vectorizes across C row segments.
MAOPT_GEMM_INLINE void gemm_nn_tiled(std::size_t m, std::size_t n, std::size_t k,
                                     const double* a, const double* b, double* c) {
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

// Wide gemm_tn: the same tile loop reading A (k x m) by columns; column i of
// A^T is the stride-m column i of A, and columns i, i+1 sit side by side.
MAOPT_GEMM_INLINE void gemm_tn_tiled(std::size_t m, std::size_t n, std::size_t k,
                                     const double* a, const double* b, double* c) {
  for (std::size_t kk = 0; kk < k; kk += kDepthTile) {
    const std::size_t kend = std::min(k, kk + kDepthTile);
    for (std::size_t ii = 0; ii < m; ii += kRowsTile) {
      const std::size_t iend = std::min(m, ii + kRowsTile);
      std::size_t i = ii;
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

template <class Isa>
MAOPT_GEMM_INLINE void gemm_nn_kernel(std::size_t m, std::size_t n, std::size_t k,
                                      const double* a, const double* b, double* c) {
  if (n <= kNarrowCols)
    gemm_narrow<Isa, false>(m, n, k, a, b, c);
  else
    gemm_nn_tiled(m, n, k, a, b, c);
}

template <class Isa>
MAOPT_GEMM_INLINE void gemm_tn_kernel(std::size_t m, std::size_t n, std::size_t k,
                                      const double* a, const double* b, double* c) {
  if (n <= kNarrowCols)
    gemm_narrow<Isa, true>(m, n, k, a, b, c);
  else
    gemm_tn_tiled(m, n, k, a, b, c);
}

// -------------------------------------------------------------------- gemm_nt

// pack (k x n4) = the first n4 rows of B (n x k), transposed: row p of the
// pack holds B(0..n4, p) contiguously, so one load fetches a lane vector of
// consecutive output columns. Four B rows are read side by side so every
// stream stays sequential.
MAOPT_GEMM_INLINE void pack_bt(std::size_t n4, std::size_t k, const double* b, double* pack) {
  for (std::size_t j = 0; j < n4; j += 4) {
    const double* b0 = b + j * k;
    const double* b1 = b0 + k;
    const double* b2 = b1 + k;
    const double* b3 = b2 + k;
    double* dst = pack + j;
    for (std::size_t p = 0; p < k; ++p, dst += n4) {
      dst[0] = b0[p];
      dst[1] = b1[p];
      dst[2] = b2[p];
      dst[3] = b3[p];
    }
  }
}

// Rows (i, i+1) x NV lane vectors of columns from j, over the packed B^T
// (leading dimension ldp). Per element this is the scalar kernel's dot
// product as GCC -O3 built it: s = 0, then s += round(a * b) for p in
// order, except that for odd k the last term is fused (s = fma(a, b, s));
// finally c += s.
template <class Isa, std::size_t NV>
MAOPT_GEMM_INLINE void nt_block(std::size_t k, std::size_t ldp, const double* arow0,
                                const double* arow1, const double* bt, double* crow0,
                                double* crow1) {
  using V = typename Isa::V;
  constexpr std::size_t W = kLanes<V>;
  V s0[NV], s1[NV];
  for (std::size_t v = 0; v < NV; ++v) s0[v] = s1[v] = V{};
  const std::size_t kround = k - (k % 2);
  const double* bp = bt;
  for (std::size_t p = 0; p < kround; ++p, bp += ldp) {
    const V a0 = splat<V>(arow0[p]);
    const V a1 = splat<V>(arow1[p]);
    for (std::size_t v = 0; v < NV; ++v) {
      const V bv = load<V>(bp + v * W);
      s0[v] = s0[v] + rounded(a0 * bv);
      s1[v] = s1[v] + rounded(a1 * bv);
    }
  }
  if (kround < k) {
    const V a0 = splat<V>(arow0[kround]);
    const V a1 = splat<V>(arow1[kround]);
    for (std::size_t v = 0; v < NV; ++v) {
      const V bv = load<V>(bp + v * W);
      s0[v] = fma<Isa>(a0, bv, s0[v]);
      s1[v] = fma<Isa>(a1, bv, s1[v]);
    }
  }
  for (std::size_t v = 0; v < NV; ++v) {
    store<V>(crow0 + v * W, load<V>(crow0 + v * W) + s0[v]);
    store<V>(crow1 + v * W, load<V>(crow1 + v * W) + s1[v]);
  }
}

template <class Isa>
MAOPT_GEMM_INLINE void gemm_nt_kernel(std::size_t m, std::size_t n, std::size_t k,
                                      const double* a, const double* b, double* c,
                                      double* pack) {
  constexpr std::size_t W = kLanes<typename Isa::V>;
  const std::size_t m2 = m - (m % 2);
  const std::size_t n4 = n - (n % 4);
  // Main block: row pairs x the first n4 columns, vectorized across columns
  // of the packed B^T. Column blocks are the outer loop so a block's slice
  // of the pack stays in L1 while every row pair streams past it.
  if (m2 > 0 && n4 > 0) {
    pack_bt(n4, k, b, pack);
    std::size_t j = 0;
    for (; j + 4 * W <= n4; j += 4 * W)
      for (std::size_t i = 0; i < m2; i += 2)
        nt_block<Isa, 4>(k, n4, a + i * k, a + (i + 1) * k, pack + j, c + i * n + j,
                       c + (i + 1) * n + j);
    for (; j < n4; j += 4)
      for (std::size_t i = 0; i < m2; i += 2)
        nt_block<Isa, 4 / W>(k, n4, a + i * k, a + (i + 1) * k, pack + j, c + i * n + j,
                           c + (i + 1) * n + j);
  }
  // Edge tails, the scalar kernel's code: the last n % 4 columns of each
  // row pair, then an odd last row.
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* arow0 = a + i * k;
    const double* arow1 = arow0 + k;
    double* crow0 = c + i * n;
    double* crow1 = crow0 + n;
    for (std::size_t j = n4; j < n; ++j) {
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

// ------------------------------------------------------------------ dispatch

// The baseline body: SSE2, or AVX2+FMA when the whole file is already
// compiled for such a host (MAOPT_NATIVE).
#if defined(__AVX2__) && defined(__FMA__)
using BaseIsa = Avx2;
#else
using BaseIsa = Sse2;
#endif

#if MAOPT_V3_DISPATCH
MAOPT_TARGET_V3
MAOPT_HOT void gemm_nn_v3(std::size_t m, std::size_t n, std::size_t k, const double* a,
                          const double* b, double* c) {
  gemm_nn_kernel<Avx2>(m, n, k, a, b, c);
}

MAOPT_TARGET_V3
MAOPT_HOT void gemm_tn_v3(std::size_t m, std::size_t n, std::size_t k, const double* a,
                          const double* b, double* c) {
  gemm_tn_kernel<Avx2>(m, n, k, a, b, c);
}

MAOPT_TARGET_V3
MAOPT_HOT void gemm_nt_v3(std::size_t m, std::size_t n, std::size_t k, const double* a,
                          const double* b, double* c, double* pack) {
  gemm_nt_kernel<Avx2>(m, n, k, a, b, c, pack);
}
#endif

// Shared precondition of the three raw kernels: when any work is implied,
// all panels must be real memory (a null here was silent UB before).
inline void dcheck_gemm_args(std::size_t m, std::size_t n, std::size_t k, const double* a,
                             const double* b, const double* c) {
  MAOPT_DCHECK(m == 0 || n == 0 || k == 0 || (a != nullptr && b != nullptr && c != nullptr),
               "gemm: null operand with nonzero extents");
  (void)m;
  (void)n;
  (void)k;
  (void)a;
  (void)b;
  (void)c;
}

}  // namespace

MAOPT_HOT void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
                       const double* b, double* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
#if MAOPT_V3_DISPATCH
  if (host_has_v3()) {
    gemm_nn_v3(m, n, k, a, b, c);
    return;
  }
#endif
  gemm_nn_kernel<BaseIsa>(m, n, k, a, b, c);
}

MAOPT_HOT void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
                       const double* b, double* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
#if MAOPT_V3_DISPATCH
  if (host_has_v3()) {
    gemm_tn_v3(m, n, k, a, b, c);
    return;
  }
#endif
  gemm_tn_kernel<BaseIsa>(m, n, k, a, b, c);
}

MAOPT_HOT void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
                       const double* b, double* c, double* pack) {
  dcheck_gemm_args(m, n, k, a, b, c);
  MAOPT_DCHECK(m < 2 || n < 4 || k == 0 || pack != nullptr,
               "gemm_nt: null pack scratch with nonzero extents");
#if MAOPT_V3_DISPATCH
  if (host_has_v3()) {
    gemm_nt_v3(m, n, k, a, b, c, pack);
    return;
  }
#endif
  gemm_nt_kernel<BaseIsa>(m, n, k, a, b, c, pack);
}

void matmul_blocked(const Mat& a, const Mat& b, Mat& c) {
  MAOPT_CHECK(a.cols() == b.rows(), "matmul_blocked: dimension mismatch");
  MAOPT_CHECK(&c != &a && &c != &b, "matmul_blocked: c must not alias an operand");
  c.ensure_shape(a.rows(), b.cols());
  c.fill(0.0);
  gemm_nn(a.rows(), b.cols(), a.cols(), a.data().data(), b.data().data(), c.data().data());
}

Mat matmul_blocked(const Mat& a, const Mat& b) {
  Mat c;
  matmul_blocked(a, b, c);
  return c;
}

void matmul_parallel(const Mat& a, const Mat& b, Mat& c, ThreadPool& pool, double min_flops) {
  MAOPT_CHECK(a.cols() == b.rows(), "matmul_parallel: dimension mismatch");
  MAOPT_CHECK(&c != &a && &c != &b, "matmul_parallel: c must not alias an operand");
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  if (pool.size() <= 1 || m < 2 || flops < min_flops) {
    matmul_blocked(a, b, c);
    return;
  }
  c.ensure_shape(m, n);
  c.fill(0.0);
  const std::size_t panels = std::min(m, pool.size());
  const std::size_t rows_per_panel = (m + panels - 1) / panels;
  pool.parallel_for(panels, [&](std::size_t p) {
    const std::size_t lo = p * rows_per_panel;
    const std::size_t hi = std::min(m, lo + rows_per_panel);
    if (lo >= hi) return;
    // Each panel owns C rows [lo, hi) — disjoint writes, no synchronization.
    gemm_nn(hi - lo, n, k, a.data().data() + lo * k, b.data().data(), c.data().data() + lo * n);
  });
}

Mat matmul_parallel(const Mat& a, const Mat& b, ThreadPool& pool, double min_flops) {
  Mat c;
  matmul_parallel(a, b, c, pool, min_flops);
  return c;
}

}  // namespace maopt::linalg
