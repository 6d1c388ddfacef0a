// Exact-bits pin of Adam::step against a frozen copy of the scalar update
// it was before nn/adam.cpp was built to vectorize (-fno-math-errno): every
// parameter and both moment estimates must come out with the same bits,
// not merely close, because training trajectories are compared bit for bit
// elsewhere. The frozen copy below is compiled like the old adam.cpp (same
// load-time clones, errno semantics left on, so GCC keeps it scalar). In the
// normal build this pins the AVX2+FMA clone on hosts that have it; under
// tools/san.sh (no clones) it pins the SSE2 path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {
namespace {

// Frozen: do not edit. The update loop of the scalar Adam.
MAOPT_TARGET_CLONES
MAOPT_HOT void frozen_adam_update(double* value, double* grad, double* m, double* v,
                                  std::size_t size, double beta1, double one_minus_beta1,
                                  double beta2, double one_minus_beta2, double inv_bc1,
                                  double inv_bc2, double lr, double eps, double wd) {
  for (std::size_t i = 0; i < size; ++i) {
    const double g = grad[i];
    m[i] = beta1 * m[i] + one_minus_beta1 * g;
    v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
    const double mhat = m[i] * inv_bc1;
    const double vhat = v[i] * inv_bc2;
    value[i] -= lr * (mhat / (std::sqrt(vhat) + eps) + wd * value[i]);
    grad[i] = 0.0;
  }
}

// The frozen step: one parameter, its own moments, step count t.
struct FrozenAdam {
  AdamConfig config;
  Vec m, v;
  long t = 0;
  void step(Vec& value, Vec& grad) {
    ++t;
    const double inv_bc1 = 1.0 / (1.0 - std::pow(config.beta1, static_cast<double>(t)));
    const double inv_bc2 = 1.0 / (1.0 - std::pow(config.beta2, static_cast<double>(t)));
    frozen_adam_update(value.data(), grad.data(), m.data(), v.data(), value.size(), config.beta1,
                       1.0 - config.beta1, config.beta2, 1.0 - config.beta2, inv_bc1, inv_bc2,
                       config.lr, config.eps, config.weight_decay);
  }
};

Vec random_values(std::size_t count, Rng& rng) {
  Vec x(count);
  // Mixed magnitudes, so every rounding of the chain matters.
  for (auto& e : x) e = rng.uniform(-1.0, 1.0) * std::exp2(rng.uniform(-12.0, 4.0));
  return x;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Sizes on both sides of the vector widths and the unrolled bodies (the
// critic's 9 and 100 bias columns, 3200 and 10000 weights).
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 3200, 10000};

void expect_step_matches_frozen(const AdamConfig& config) {
  Rng rng(4242);
  for (const std::size_t size : kSizes) {
    Vec live = random_values(size, rng);
    Vec frozen = live;
    Vec live_grad(size), frozen_grad(size);
    Adam adam({{&live, &live_grad}}, config);
    FrozenAdam ref{config, Vec(size, 0.0), Vec(size, 0.0)};
    for (int step = 0; step < 6; ++step) {
      live_grad = random_values(size, rng);
      frozen_grad = live_grad;
      adam.step();
      ref.step(frozen, frozen_grad);
      ASSERT_TRUE(same_bits(live, frozen)) << "size " << size << " step " << step;
      ASSERT_TRUE(same_bits(live_grad, frozen_grad)) << "size " << size << " step " << step;
    }
  }
}

TEST(AdamBits, StepMatchesFrozenScalarUpdate) { expect_step_matches_frozen({}); }

TEST(AdamBits, StepWithWeightDecayMatchesFrozenScalarUpdate) {
  expect_step_matches_frozen({.lr = 3e-3, .weight_decay = 0.01});
}

// The team form: slices at odd offsets and lengths, applied in reverse
// order, must give step()'s bits (each slice starts off the vector
// alignment, so the vector body and the scalar tail meet other elements).
TEST(AdamBits, SlicedUpdateMatchesFrozenScalarUpdate) {
  Rng rng(77);
  const std::size_t size = 1003;
  const std::size_t cuts[] = {0, 1, 4, 13, 200, 201, 640, 999, size};
  Vec live = random_values(size, rng);
  Vec frozen = live;
  Vec live_grad(size), frozen_grad(size);
  Adam adam({{&live, &live_grad}}, {.lr = 1e-2});
  FrozenAdam ref{{.lr = 1e-2}, Vec(size, 0.0), Vec(size, 0.0)};
  for (int step = 0; step < 5; ++step) {
    live_grad = random_values(size, rng);
    frozen_grad = live_grad;
    adam.begin_step();
    for (std::size_t c = std::size(cuts) - 1; c > 0; --c) adam.update(0, cuts[c - 1], cuts[c]);
    ref.step(frozen, frozen_grad);
    ASSERT_TRUE(same_bits(live, frozen)) << "step " << step;
    ASSERT_TRUE(same_bits(live_grad, frozen_grad)) << "step " << step;
  }
}

}  // namespace
}  // namespace maopt::nn
