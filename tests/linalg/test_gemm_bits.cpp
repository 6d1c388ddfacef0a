// Exact-bits pin of the SIMD GEMM kernels against the frozen pre-SIMD
// kernels in gemm_reference.cpp: every output element must come out with
// the same bits, not merely close. Training trajectories (MA-Opt FoM
// streams, checkpoint/resume, thread-count invariance) are compared bit for
// bit elsewhere, so a kernel that rounds one element differently changes
// every run downstream.
//
// The sweep covers each kernel's register blocks and every edge tail: odd
// and even m, n below/at/above the vector and block widths (the OTA MLPs use
// n = 9 and 16 outputs), and k on both sides of each 4-term group, the odd-k
// last term and the 64-deep depth tile. C starts nonzero, so the
// accumulate-into-C step is compared too. Run in the normal build this pins
// the AVX2+FMA clone on hosts that have it; under tools/san.sh (no clones)
// it pins the SSE2 path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gemm_reference.hpp"
#include "linalg/gemm.hpp"

namespace maopt::linalg {
namespace {

const std::size_t kMs[] = {1, 2, 3, 4, 20, 63, 64, 65, 192};
const std::size_t kNs[] = {1, 3, 4, 7, 8, 9, 14, 16, 32, 100, 101};
const std::size_t kKs[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,  12,
                           13, 14, 15, 16, 17, 32, 63, 64, 65, 100, 129};

std::vector<double> random_values(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  // Mixed magnitudes so products and partial sums round differently under
  // fused and unfused evaluation.
  for (auto& x : v) x = rng.uniform(-1.0, 1.0) * std::exp2(rng.uniform(-8.0, 8.0));
  return v;
}

enum class Kernel { kNn, kTn, kNt };

const char* name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kNn: return "gemm_nn";
    case Kernel::kTn: return "gemm_tn";
    case Kernel::kNt: return "gemm_nt";
  }
  return "?";
}

// Runs the live and the reference kernel on the same inputs and returns
// whether the outputs match bit for bit.
bool same_bits(Kernel kernel, std::size_t m, std::size_t n, std::size_t k, Rng& rng) {
  // Operand shapes: nn A (m x k), B (k x n); tn A (k x m), B (k x n);
  // nt A (m x k), B (n x k). All have m*k and n*k elements.
  const std::vector<double> a = random_values(m * k, rng);
  const std::vector<double> b = random_values(n * k, rng);
  const std::vector<double> c0 = random_values(m * n, rng);
  std::vector<double> live = c0;
  std::vector<double> ref = c0;
  switch (kernel) {
    case Kernel::kNn:
      gemm_nn(m, n, k, a.data(), b.data(), live.data());
      reference::gemm_nn(m, n, k, a.data(), b.data(), ref.data());
      break;
    case Kernel::kTn:
      gemm_tn(m, n, k, a.data(), b.data(), live.data());
      reference::gemm_tn(m, n, k, a.data(), b.data(), ref.data());
      break;
    case Kernel::kNt: {
      // Stale scratch must not leak into the result: start it as NaN.
      std::vector<double> pack(n * k, std::numeric_limits<double>::quiet_NaN());
      gemm_nt(m, n, k, a.data(), b.data(), live.data(), pack.data());
      reference::gemm_nt(m, n, k, a.data(), b.data(), ref.data());
      break;
    }
  }
  return std::memcmp(live.data(), ref.data(), live.size() * sizeof(double)) == 0;
}

void expect_bit_identical(Kernel kernel) {
  Rng rng(20260);
  std::size_t cases = 0;
  std::vector<std::string> mismatches;
  for (const std::size_t m : kMs)
    for (const std::size_t n : kNs)
      for (const std::size_t k : kKs) {
        ++cases;
        if (!same_bits(kernel, m, n, k, rng))
          mismatches.push_back(std::to_string(m) + "x" + std::to_string(n) + "x" +
                               std::to_string(k));
      }
  std::string first;
  for (std::size_t i = 0; i < mismatches.size() && i < 10; ++i) first += " " + mismatches[i];
  EXPECT_TRUE(mismatches.empty()) << name(kernel) << ": " << mismatches.size() << " of " << cases
                                  << " shapes (m x n x k) differ from the reference, e.g."
                                  << first;
}

TEST(GemmBits, NnMatchesReferenceBitForBit) { expect_bit_identical(Kernel::kNn); }
TEST(GemmBits, TnMatchesReferenceBitForBit) { expect_bit_identical(Kernel::kTn); }
TEST(GemmBits, NtMatchesReferenceBitForBit) { expect_bit_identical(Kernel::kNt); }

// The MLP shapes themselves (batch 64, the OTA critic's 32 -> 100 -> 100 -> 9
// and actor's 16 -> 100 -> 100 -> 16 layers), in the argument order
// nn::Linear passes them: forward nn (64, out, in), weight-gradient
// tn (in, out, 64), input-gradient nt (64, in, out).
TEST(GemmBits, MlpLayerShapesMatchReference) {
  Rng rng(7);
  const std::size_t layers[][2] = {{32, 100}, {100, 100}, {100, 9}, {16, 100}, {100, 16}};
  for (const auto& layer : layers) {
    const std::size_t in = layer[0], out = layer[1];
    EXPECT_TRUE(same_bits(Kernel::kNn, 64, out, in, rng)) << "nn " << in << "->" << out;
    EXPECT_TRUE(same_bits(Kernel::kTn, in, out, 64, rng)) << "tn " << in << "->" << out;
    EXPECT_TRUE(same_bits(Kernel::kNt, 64, in, out, rng)) << "nt " << in << "->" << out;
  }
}

}  // namespace
}  // namespace maopt::linalg
