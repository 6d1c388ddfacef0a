#include "nn/mlp.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {

Mlp::Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
         Activation hidden_act, bool output_tanh) {
  std::size_t prev = in;
  for (const std::size_t h : hidden) {
    layers_.push_back(std::make_unique<Linear>(prev, h, rng));
    if (hidden_act == Activation::Tanh)
      layers_.push_back(std::make_unique<Tanh>(h));
    else
      layers_.push_back(std::make_unique<Relu>(h));
    prev = h;
  }
  layers_.push_back(std::make_unique<Linear>(prev, out, rng));
  if (output_tanh) layers_.push_back(std::make_unique<Tanh>(out));
}

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this != &other) {
    layers_.clear();
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
  }
  return *this;
}

Mlp Mlp::make_paper_net(std::size_t in, std::size_t out, Rng& rng, bool output_tanh) {
  return Mlp(in, {100, 100}, out, rng, Activation::Relu, output_tanh);
}

const Mat& Mlp::forward(const Mat& x) {
  const Mat* h = &x;
  for (auto& layer : layers_) h = &layer->forward(*h);
  return *h;
}

const Mat& Mlp::backward(const Mat& dy) {
  const Mat* g = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = &(*it)->backward(*g);
  return *g;
}

void Mlp::backward_params(const Mat& dy) {
  const Mat* g = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if (std::next(it) == layers_.rend()) {
      (*it)->param_gradient(*g);  // bottom layer: dL/dX is never read
      return;
    }
    g = &(*it)->backward(*g);
  }
}

const Mat& Mlp::input_gradient(const Mat& dy) {
  // Each layer's input_gradient skips parameter-gradient accumulation, so no
  // grad snapshot/restore is needed (Linear also skips the dW/db GEMMs).
  const Mat* g = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = &(*it)->input_gradient(*g);
  return *g;
}

void Mlp::zero_grad() {
  for (const auto& p : params()) p.grad->assign(p.grad->size(), 0.0);
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_)
    for (const auto& p : layer->params()) out.push_back(p);
  return out;
}

std::vector<ConstParamRef> Mlp::params() const {
  std::vector<ConstParamRef> out;
  for (const auto& layer : layers_)
    for (const auto& p : std::as_const(*layer).params()) out.push_back(p);
  return out;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

namespace {

// The two halves of mse_loss, shared with MseStep so both round alike.
void mse_gradient_rows(const Mat& pred, const Mat& target, Mat& grad, std::size_t r0,
                       std::size_t r1) {
  const double n = static_cast<double>(pred.data().size());
  const double* p = pred.data().data();
  const double* t = target.data().data();
  double* g = grad.data().data();
  for (std::size_t i = r0 * pred.cols(); i < r1 * pred.cols(); ++i) {
    const double d = p[i] - t[i];
    g[i] = 2.0 * d / n;
  }
}

double mse_value(const Mat& pred, const Mat& target) {
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.data().size(); ++i) {
    const double d = pred.data()[i] - target.data()[i];
    loss += d * d;
  }
  return loss / static_cast<double>(pred.data().size());
}

// Row block of a team step's row chunk: even, so every chunk starts on an
// even row (Layer::input_gradient_rows).
constexpr std::size_t kRowBlock = 16;
// Target size of a parameter chunk, in weights. The critic's 100 x 100
// layer splits into five chunks of 20 rows.
constexpr std::size_t kSliceWeights = 2048;

}  // namespace

double mse_loss(const Mat& pred, const Mat& target, Mat* grad) {
  MAOPT_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols(),
              "mse_loss: shape mismatch");
  MAOPT_CHECK(!pred.empty(), "mse_loss: empty prediction");
  if (grad) {
    grad->ensure_shape(pred.rows(), pred.cols());  // every entry written below
    mse_gradient_rows(pred, target, *grad, 0, pred.rows());
  }
  return mse_value(pred, target);
}

MseStep::MseStep(Mlp& net, Adam& adam) : net_(&net), adam_(&adam) {
  const auto& layers = net.layers_;
  act_.resize(layers.size());
  grad_.resize(layers.size());
  grad_.back() = &loss_grad_;
  std::size_t param = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (auto* linear = dynamic_cast<Linear*>(layers[l].get())) {
      const std::size_t in = linear->input_size(), out = linear->output_size();
      const std::size_t parts = std::min(in, (in * out + kSliceWeights - 1) / kSliceWeights);
      for (std::size_t c = 0; c < parts; ++c)
        slices_.push_back({linear, l, param, c * in / parts, (c + 1) * in / parts,
                           c * out / parts, (c + 1) * out / parts});
    }
    param += layers[l]->params().size();
  }
  // Largest chunks first, so the last ones claimed are the short ones.
  std::stable_sort(slices_.begin(), slices_.end(), [](const Slice& a, const Slice& b) {
    return (a.i1 - a.i0) * a.linear->output_size() > (b.i1 - b.i0) * b.linear->output_size();
  });
}

void MseStep::begin(const Mat& x, const Mat& target, std::size_t ranks) {
  const auto& layers = net_->layers_;
  MAOPT_CHECK(x.cols() == net_->input_size() && target.cols() == net_->output_size() &&
                  x.rows() == target.rows(),
              "MseStep::begin: shape mismatch");
  MAOPT_CHECK(!x.empty(), "MseStep::begin: empty batch");
  x_ = &x;
  target_ = &target;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    act_[l] = &layers[l]->output_slot(x.rows());
    if (l > 0) grad_[l - 1] = &layers[l]->input_gradient_slot(x.rows());
  }
  loss_grad_.ensure_shape(x.rows(), net_->output_size());
  std::size_t pack = 0;
  for (const auto& layer : layers) pack = std::max(pack, layer->pack_size());
  if (pack_.size() < ranks) pack_.resize(ranks);
  for (auto& p : pack_) p.resize(pack);
  adam_->begin_step();
}

std::size_t MseStep::row_chunks(std::size_t rows) { return (rows + kRowBlock - 1) / kRowBlock; }

void MseStep::run_rows(std::size_t chunk, std::size_t rank) {
  const auto& layers = net_->layers_;
  const std::size_t r0 = chunk * kRowBlock;
  const std::size_t r1 = std::min(x_->rows(), r0 + kRowBlock);
  const Mat* h = x_;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    layers[l]->forward_rows(*h, *act_[l], r0, r1);
    h = act_[l];
  }
  mse_gradient_rows(*act_.back(), *target_, loss_grad_, r0, r1);
  // Down to the bottom layer's output gradient; its input gradient is
  // never read (as in Mlp::backward_params).
  for (std::size_t l = layers.size() - 1; l > 0; --l)
    layers[l]->input_gradient_rows(*act_[l], *grad_[l], *grad_[l - 1], r0, r1,
                                   pack_[rank].data());
}

void MseStep::run_params(std::size_t chunk) {
  const Slice& s = slices_[chunk];
  const Mat& input = s.layer == 0 ? *x_ : *act_[s.layer - 1];
  s.linear->param_gradient_slice(input, *grad_[s.layer], s.i0, s.i1, s.j0, s.j1);
  const std::size_t out = s.linear->output_size();
  adam_->update(s.param, s.i0 * out, s.i1 * out);
  adam_->update(s.param + 1, s.j0, s.j1);
}

double MseStep::loss() const { return mse_value(*act_.back(), *target_); }

}  // namespace maopt::nn
