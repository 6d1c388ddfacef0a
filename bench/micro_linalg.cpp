// Microbenchmarks: dense linear algebra used by the MNA solver (LU) and the
// GP baseline (Cholesky) — the O(N^3) growth here is the paper's stated
// reason BO scales poorly with simulation count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lu.hpp"

namespace {

using namespace maopt;
using namespace maopt::linalg;

Mat random_dd_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Mat a(n, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Mat random_spd(std::size_t n, std::uint64_t seed) {
  const Mat b = random_dd_matrix(n, seed);
  Mat a = matmul(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 1);
  Vec b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu_solve(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LuFactorSolve)->RangeMultiplier(2)->Range(8, 128)->Complexity(benchmark::oNCubed);

void BM_ComplexLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  CMat a(n, n);
  for (auto& v : a.data()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  CVec b(n, {1.0, 0.0});
  for (auto _ : state) benchmark::DoNotOptimize(lu_solve(a, b));
}
BENCHMARK(BM_ComplexLuSolve)->Arg(16)->Arg(32);

void BM_CholeskyFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_spd(n, 3);
  for (auto _ : state) {
    Cholesky chol(a);
    benchmark::DoNotOptimize(chol.log_determinant());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CholeskyFactor)->RangeMultiplier(2)->Range(32, 256)->Complexity(benchmark::oNCubed);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 4);
  const Mat b = random_dd_matrix(n, 5);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 4);
  const Mat b = random_dd_matrix(n, 5);
  Mat c;
  for (auto _ : state) {
    matmul_blocked(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatmulBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Mat a = random_dd_matrix(n, 4);
  const Mat b = random_dd_matrix(n, 5);
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  Mat c;
  for (auto _ : state) {
    matmul_parallel(a, b, c, pool, /*min_flops=*/0.0);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_MatmulParallel)->Args({256, 2})->Args({256, 4});

// The three backprop GEMMs of one nn::Linear layer at the MLP shapes MA-Opt
// trains on the OTA (minibatch 64): the critic's 32 -> 100 -> 100 -> 9 and
// an actor's 16 -> 100 -> 100 -> 16. Args: {kernel, in, out} with kernel
// 0 = gemm_nn (forward, 64 x out x in), 1 = gemm_tn (weight gradient,
// in x out x 64), 2 = gemm_nt (input gradient, 64 x in x out, including
// its W^T pack). The label reads "<kernel> m x n x k".
void BM_GemmMlp(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  const auto kernel = state.range(0);
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  Rng rng(6);
  auto fill = [&rng](std::size_t count) {
    std::vector<double> v(count);
    for (auto& x : v) x = rng.uniform(-1, 1);
    return v;
  };
  const std::vector<double> x = fill(kBatch * in);    // layer input (batch x in)
  const std::vector<double> w = fill(in * out);       // weights (in x out)
  const std::vector<double> dy = fill(kBatch * out);  // output gradient (batch x out)
  std::vector<double> c(std::max({kBatch * out, in * out, kBatch * in}), 0.0);
  std::vector<double> pack(in * out);
  std::size_t m = 0, n = 0, k = 0;
  const char* name = "";
  switch (kernel) {
    case 0: m = kBatch, n = out, k = in, name = "nn"; break;
    case 1: m = in, n = out, k = kBatch, name = "tn"; break;
    default: m = kBatch, n = in, k = out, name = "nt"; break;
  }
  for (auto _ : state) {
    switch (kernel) {
      case 0: gemm_nn(m, n, k, x.data(), w.data(), c.data()); break;
      case 1: gemm_tn(m, n, k, x.data(), dy.data(), c.data()); break;
      default: gemm_nt(m, n, k, dy.data(), w.data(), c.data(), pack.data()); break;
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(name) + " " + std::to_string(m) + "x" + std::to_string(n) + "x" +
                 std::to_string(k));
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
void mlp_layer_shapes(benchmark::internal::Benchmark* bench) {
  const int layers[][2] = {{32, 100}, {100, 100}, {100, 9}, {16, 100}, {100, 16}};
  for (const auto& layer : layers)
    for (int kernel = 0; kernel < 3; ++kernel) bench->Args({kernel, layer[0], layer[1]});
}
BENCHMARK(BM_GemmMlp)->Apply(mlp_layer_shapes);

}  // namespace

BENCHMARK_MAIN();
