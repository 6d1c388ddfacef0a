// Multi-layer perceptron built from Layer objects. The paper fixes the
// architecture for both actors and the critic to two hidden layers of 100
// units (Section III-A); Mlp::make_paper_net builds exactly that.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace maopt::nn {

class Adam;

enum class Activation { Tanh, Relu };

class Mlp {
 public:
  /// hidden activation applied after every hidden Linear; the output layer is
  /// linear (critic) or tanh (actor, chosen by `output_tanh`).
  Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
      Activation hidden_act = Activation::Relu, bool output_tanh = false);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// The paper's configuration: 2 hidden layers x 100 nodes.
  static Mlp make_paper_net(std::size_t in, std::size_t out, Rng& rng, bool output_tanh);

  /// Returned references point into per-layer Workspace buffers reused
  /// across calls: valid until this network's next forward/backward-family
  /// call; copy the result to keep it longer.
  const Mat& forward(const Mat& x);
  /// Accumulates parameter grads, returns dL/dX.
  const Mat& backward(const Mat& dy);
  /// Accumulates parameter grads only — the bottom layer skips its dL/dX
  /// GEMM. Use on training paths that discard backward()'s return value.
  void backward_params(const Mat& dy);
  /// Input gradient WITHOUT touching parameter grads (used when the critic
  /// only serves as a differentiable surrogate during actor training).
  const Mat& input_gradient(const Mat& dy);

  void zero_grad();
  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;

  std::size_t input_size() const { return layers_.front()->input_size(); }
  std::size_t output_size() const { return layers_.back()->output_size(); }
  std::size_t num_parameters() const;

 private:
  friend class MseStep;

  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Mean-squared-error over all entries; fills dL/dY_pred into `grad`.
double mse_loss(const Mat& pred, const Mat& target, Mat* grad);

/// One minibatch step of MSE regression with Adam, split for a Team
/// (DESIGN §12): begin() on one thread, then every row chunk, then every
/// parameter chunk; the chunks of a phase may run concurrently, in any
/// order, on any rank. A row chunk runs the forward pass, the MSE gradient
/// and the input-gradient chain for a block of minibatch rows. A parameter
/// chunk computes one slice of a Linear's dW and db and applies Adam to it.
/// Every element rounds exactly as in forward(), mse_loss(),
/// backward_params() and Adam::step(), so a step gives the same bits
/// whatever the team size or the chunk order.
class MseStep {
 public:
  /// `adam` must update exactly net.params(), in that order. Both must
  /// outlive the step.
  MseStep(Mlp& net, Adam& adam);
  MseStep(const MseStep&) = delete;
  MseStep& operator=(const MseStep&) = delete;

  /// Shapes the step's buffers for batch x (input) and target, with pack
  /// scratch for `ranks` ranks, and starts the Adam step. x and target are
  /// borrowed until the parameter phase ends.
  void begin(const Mat& x, const Mat& target, std::size_t ranks);

  /// Row chunks of a batch of `rows` rows.
  static std::size_t row_chunks(std::size_t rows);
  void run_rows(std::size_t chunk, std::size_t rank);

  std::size_t param_chunks() const { return slices_.size(); }
  void run_params(std::size_t chunk);

  /// The batch's loss, as mse_loss() returns it; valid after the row phase.
  double loss() const;

 private:
  // Weights and bias entries of one parameter chunk: rows [i0, i1) of a
  // Linear's weights and columns [j0, j1) of its bias.
  struct Slice {
    Linear* linear;
    std::size_t layer, param;  // layer index; index of its weights in net.params()
    std::size_t i0, i1, j0, j1;
  };

  Mlp* net_;
  Adam* adam_;
  std::vector<Slice> slices_;
  const Mat* x_ = nullptr;
  const Mat* target_ = nullptr;
  // act_[l]: output of layer l; grad_[l]: dL/d(output of layer l). Both are
  // the layers' own workspace slots, except the loss gradient.
  std::vector<Mat*> act_, grad_;
  Mat loss_grad_;
  std::vector<Vec> pack_;  // per-rank gemm_nt scratch
};

}  // namespace maopt::nn
