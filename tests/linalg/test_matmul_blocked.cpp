#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace maopt::linalg {
namespace {

Mat random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Mat m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_close(const Mat& a, const Mat& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_NEAR(a(r, c), b(r, c), tol) << r << "," << c;
}

// Shapes straddling the kernel tile sizes (64/64/256), deliberately including
// non-multiples, degenerate dims, and the skinny shapes the MLPs use.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {3, 1, 5},    {5, 5, 5},     {32, 100, 100},
    {63, 65, 7}, {64, 64, 64}, {65, 63, 66}, {100, 100, 9}, {70, 130, 300},
};

TEST(MatmulBlocked, MatchesNaiveOnRectangularShapes) {
  Rng rng(1);
  for (const auto& s : kShapes) {
    const Mat a = random_matrix(s.m, s.k, rng);
    const Mat b = random_matrix(s.k, s.n, rng);
    const Mat expected = matmul(a, b);
    const Mat actual = matmul_blocked(a, b);
    expect_close(actual, expected, 1e-12 * static_cast<double>(s.k));
  }
}

TEST(MatmulBlocked, AccumulatesIntoReusedOutput) {
  Rng rng(2);
  const Mat a = random_matrix(65, 63, rng);
  const Mat b = random_matrix(63, 66, rng);
  Mat c(3, 3, 777.0);  // wrong shape and stale contents: must be overwritten
  matmul_blocked(a, b, c);
  expect_close(c, matmul(a, b), 1e-10);
  matmul_blocked(a, b, c);  // second call reuses capacity, same result
  expect_close(c, matmul(a, b), 1e-10);
}

TEST(MatmulBlocked, DimensionMismatchThrows) {
  const Mat a(3, 4), b(5, 2);
  EXPECT_THROW(matmul_blocked(a, b), std::invalid_argument);
}

TEST(MatmulParallel, MatchesNaiveForEveryThreadCount) {
  Rng rng(3);
  const Mat a = random_matrix(70, 130, rng);
  const Mat b = random_matrix(130, 300, rng);
  const Mat expected = matmul(a, b);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    // min_flops = 0 forces the parallel path even at this small size.
    const Mat actual = matmul_parallel(a, b, pool, /*min_flops=*/0.0);
    expect_close(actual, expected, 1e-10);
  }
}

TEST(MatmulParallel, BitIdenticalToBlockedAcrossThreadCounts) {
  // Row panels never split a dot product, so the parallel kernel must be
  // bit-identical to the serial blocked kernel, not merely close.
  Rng rng(4);
  const Mat a = random_matrix(33, 65, rng);
  const Mat b = random_matrix(65, 129, rng);
  const Mat serial = matmul_blocked(a, b);
  ThreadPool pool(4);
  const Mat parallel = matmul_parallel(a, b, pool, /*min_flops=*/0.0);
  for (std::size_t i = 0; i < serial.data().size(); ++i)
    EXPECT_EQ(serial.data()[i], parallel.data()[i]);
}

TEST(MatmulParallel, SmallShapesFallBackToSerial) {
  Rng rng(5);
  const Mat a = random_matrix(4, 4, rng);
  const Mat b = random_matrix(4, 4, rng);
  ThreadPool pool(4);
  expect_close(matmul_parallel(a, b, pool), matmul(a, b), 1e-12);
}

TEST(GemmVariants, TransposedKernelsMatchExplicitTranspose) {
  Rng rng(6);
  const std::size_t m = 37, n = 53, k = 29;
  // gemm_tn: C += A^T B with A stored (k x m).
  {
    const Mat a = random_matrix(k, m, rng);
    const Mat b = random_matrix(k, n, rng);
    Mat c(m, n, 0.0);
    gemm_tn(m, n, k, a.data().data(), m, b.data().data(), c.data().data());
    expect_close(c, matmul(a.transposed(), b), 1e-11);
  }
  // gemm_nt: C += A B^T with B stored (n x k).
  {
    const Mat a = random_matrix(m, k, rng);
    const Mat b = random_matrix(n, k, rng);
    Mat c(m, n, 0.0);
    std::vector<double> pack(n * k);
    gemm_nt(m, n, k, a.data().data(), b.data().data(), c.data().data(), pack.data());
    expect_close(c, matmul(a, b.transposed()), 1e-11);
  }
}

TEST(GemmVariants, KernelsAccumulateOntoExistingC) {
  Rng rng(7);
  const std::size_t m = 10, n = 12, k = 8;
  const Mat a = random_matrix(m, k, rng);
  const Mat b = random_matrix(k, n, rng);
  Mat c(m, n, 1.0);
  gemm_nn(m, n, k, a.data().data(), b.data().data(), c.data().data());
  const Mat product = matmul(a, b);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(c(r, j), product(r, j) + 1.0, 1e-12);
}

}  // namespace
}  // namespace maopt::linalg
