#include "nn/adam.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"

namespace maopt::nn {

namespace {

// The sqrt/divide chain here is the second-hottest loop in training. It
// vectorizes only because src/CMakeLists.txt builds this file with
// -fno-math-errno (with errno semantics GCC must keep a scalar sqrt and a
// libm call for negative inputs); the x86-64-v3 clone then retires it
// 4-wide. sqrt and division round the same in every lane, so the bits
// match the scalar loop (tests/nn/test_adam_bits.cpp).
MAOPT_TARGET_CLONES
MAOPT_HOT void adam_update(double* value, double* grad, double* m, double* v, std::size_t size,
                           double beta1, double one_minus_beta1, double beta2,
                           double one_minus_beta2, double inv_bc1, double inv_bc2, double lr,
                           double eps, double wd) {
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

}  // namespace

Adam::Adam(std::vector<ParamRef> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->size(), 0.0);
    v_.emplace_back(p.value->size(), 0.0);
  }
}

void Adam::begin_step() {
  ++t_;
  // Hoist the bias corrections as reciprocals: the update then costs one
  // sqrt and one division per parameter instead of one sqrt and three.
  inv_bc1_ = 1.0 / (1.0 - std::pow(config_.beta1, static_cast<double>(t_)));
  inv_bc2_ = 1.0 / (1.0 - std::pow(config_.beta2, static_cast<double>(t_)));
}

MAOPT_HOT void Adam::update(std::size_t param, std::size_t lo, std::size_t hi) {
  MAOPT_DCHECK(param < params_.size() && lo <= hi && hi <= params_[param].value->size(),
               "Adam::update: slice out of range");
  adam_update(params_[param].value->data() + lo, params_[param].grad->data() + lo,
              m_[param].data() + lo, v_[param].data() + lo, hi - lo, config_.beta1,
              1.0 - config_.beta1, config_.beta2, 1.0 - config_.beta2, inv_bc1_, inv_bc2_,
              config_.lr, config_.eps, config_.weight_decay);
}

MAOPT_HOT void Adam::step() {
  begin_step();
  for (std::size_t k = 0; k < params_.size(); ++k) update(k, 0, params_[k].value->size());
}

}  // namespace maopt::nn
