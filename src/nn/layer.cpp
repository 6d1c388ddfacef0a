#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "linalg/gemm.hpp"

namespace maopt::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : in_(in), out_(out), w_(in * out), b_(out, 0.0), dw_(in * out, 0.0), db_(out, 0.0) {
  MAOPT_CHECK(in > 0 && out > 0, "Linear: zero-sized layer");
  const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& w : w_) w = rng.uniform(-limit, limit);
}

Linear::Linear(std::size_t in, std::size_t out, Vec w, Vec b)
    : in_(in), out_(out), w_(std::move(w)), b_(std::move(b)), dw_(in * out, 0.0), db_(out, 0.0) {}

const Mat& Linear::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == in_, "Linear::forward: feature size mismatch");
  last_x_ = &x;  // borrowed: callers keep the input alive until backward
  last_x_gen_ = x.generation();
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), out_);
  forward_rows(x, y, 0, x.rows());
  return y;
}

void Linear::forward_rows(const Mat& x, Mat& y, std::size_t r0, std::size_t r1) const {
  MAOPT_DCHECK(x.cols() == in_ && y.cols() == out_ && r1 <= x.rows() && r1 <= y.rows(),
               "Linear::forward_rows: shape mismatch");
  for (std::size_t r = r0; r < r1; ++r) {
    auto yrow = y.row(r);
    for (std::size_t j = 0; j < out_; ++j) yrow[j] = b_[j];
  }
  linalg::gemm_nn(r1 - r0, out_, in_, x.data().data() + r0 * in_, w_.data(),
                  y.data().data() + r0 * out_);
}

void Linear::check_backward_input(const Mat& dy, const char* who) const {
  MAOPT_CHECK(last_x_ != nullptr, std::string(who) + ": backward before forward");
  MAOPT_CHECK(dy.rows() == last_x_->rows() && dy.cols() == out_,
              std::string(who) + ": shape mismatch");
  // Borrow guard: the forward input must not have been reshaped (its
  // contents made unspecified) between forward() and this read.
  MAOPT_DCHECK(last_x_->generation() == last_x_gen_,
               "Linear: borrowed forward input was invalidated before backward");
}

const Mat& Linear::backward(const Mat& dy) {
  param_gradient(dy);
  return input_gradient_into(dy);
}

void Linear::param_gradient(const Mat& dy) {
  check_backward_input(dy, "Linear::backward");
  param_gradient_slice(*last_x_, dy, 0, in_, 0, out_);
}

void Linear::param_gradient_slice(const Mat& x, const Mat& dy, std::size_t i0, std::size_t i1,
                                  std::size_t j0, std::size_t j1) {
  MAOPT_DCHECK(x.cols() == in_ && dy.cols() == out_ && x.rows() == dy.rows() && i0 <= i1 &&
                   i1 <= in_ && j0 <= j1 && j1 <= out_,
               "Linear::param_gradient_slice: shape mismatch");
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const auto dyrow = dy.row(r);
    for (std::size_t j = j0; j < j1; ++j) db_[j] += dyrow[j];
  }
  // dW rows [i0, i1) += X(:, i0:i1)^T dY
  linalg::gemm_tn(i1 - i0, out_, dy.rows(), x.data().data() + i0, in_, dy.data().data(),
                  dw_.data() + i0 * out_);
}

const Mat& Linear::input_gradient(const Mat& dy) {
  check_backward_input(dy, "Linear::input_gradient");
  return input_gradient_into(dy);
}

const Mat& Linear::input_gradient_into(const Mat& dy) {
  // W^T is packed afresh into the layer's own scratch.
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), in_);
  Mat& wt = ws_.acquire(kPackSlot, out_, in_);
  input_gradient_rows(dy, dy, dx, 0, dy.rows(), wt.data().data());
  return dx;
}

void Linear::input_gradient_rows(const Mat& /*y*/, const Mat& dy, Mat& dx, std::size_t r0,
                                 std::size_t r1, double* pack) const {
  MAOPT_DCHECK(dy.cols() == out_ && dx.cols() == in_ && r1 <= dy.rows() && r1 <= dx.rows() &&
                   r0 % 2 == 0,
               "Linear::input_gradient_rows: shape mismatch or odd first row");
  // dX = dY W^T
  std::fill(dx.data().begin() + static_cast<std::ptrdiff_t>(r0 * in_),
            dx.data().begin() + static_cast<std::ptrdiff_t>(r1 * in_), 0.0);
  linalg::gemm_nt(r1 - r0, in_, out_, dy.data().data() + r0 * out_, w_.data(),
                  dx.data().data() + r0 * in_, pack);
}

std::vector<ParamRef> Linear::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

std::vector<ConstParamRef> Linear::params() const {
  return {{&w_, &dw_}, {&b_, &db_}};
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::unique_ptr<Layer>(new Linear(in_, out_, w_, b_));
}

const Mat& Tanh::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == size_, "Tanh::forward: feature size mismatch");
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), x.cols());
  forward_rows(x, y, 0, x.rows());
  return y;
}

void Tanh::forward_rows(const Mat& x, Mat& y, std::size_t r0, std::size_t r1) const {
  const double* xv = x.data().data();
  double* yv = y.data().data();
  for (std::size_t i = r0 * size_; i < r1 * size_; ++i) yv[i] = std::tanh(xv[i]);
}

const Mat& Tanh::backward(const Mat& dy) {
  // peek() verifies the cached forward output matches dy instead of
  // re-acquiring (which would mark the cached values unspecified).
  const Mat& y = ws_.peek(kFwdSlot, dy.rows(), dy.cols());
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), dy.cols());
  input_gradient_rows(y, dy, dx, 0, dy.rows(), nullptr);
  return dx;
}

void Tanh::input_gradient_rows(const Mat& y, const Mat& dy, Mat& dx, std::size_t r0,
                               std::size_t r1, double* /*pack*/) const {
  // The forward output doubles as the derivative source: 1 - y^2.
  const double* yv = y.data().data();
  const double* dyv = dy.data().data();
  double* dv = dx.data().data();
  for (std::size_t i = r0 * size_; i < r1 * size_; ++i) dv[i] = dyv[i] * (1.0 - yv[i] * yv[i]);
}

const Mat& Relu::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == size_, "Relu::forward: feature size mismatch");
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), x.cols());
  forward_rows(x, y, 0, x.rows());
  return y;
}

void Relu::forward_rows(const Mat& x, Mat& y, std::size_t r0, std::size_t r1) const {
  const double* xv = x.data().data();
  double* yv = y.data().data();
  for (std::size_t i = r0 * size_; i < r1 * size_; ++i) yv[i] = xv[i] > 0.0 ? xv[i] : 0.0;
}

const Mat& Relu::backward(const Mat& dy) {
  const Mat& y = ws_.peek(kFwdSlot, dy.rows(), dy.cols());
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), dy.cols());
  input_gradient_rows(y, dy, dx, 0, dy.rows(), nullptr);
  return dx;
}

void Relu::input_gradient_rows(const Mat& y, const Mat& dy, Mat& dx, std::size_t r0,
                               std::size_t r1, double* /*pack*/) const {
  // y > 0 <=> x > 0, so the forward output is its own activation mask.
  const double* yv = y.data().data();
  const double* dyv = dy.data().data();
  double* dv = dx.data().data();
  for (std::size_t i = r0 * size_; i < r1 * size_; ++i) dv[i] = yv[i] > 0.0 ? dyv[i] : 0.0;
}

}  // namespace maopt::nn
