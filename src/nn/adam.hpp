// Adam optimizer (Kingma & Ba) over a set of ParamRefs.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace maopt::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;  ///< decoupled (AdamW-style) if nonzero
};

class Adam {
 public:
  explicit Adam(std::vector<ParamRef> params, AdamConfig config = {});

  /// Applies one update from the accumulated gradients, then zeroes them:
  /// begin_step(), then update() over every parameter in full.
  void step();

  /// The sliced form of step(), for a team that updates disjoint slices
  /// concurrently (DESIGN §12): begin_step() advances the step count once,
  /// then update(k, lo, hi) applies elements [lo, hi) of parameter k and
  /// zeroes their gradients. The update is elementwise, so covering every
  /// element once gives step()'s bits.
  void begin_step();
  void update(std::size_t param, std::size_t lo, std::size_t hi);

  void set_learning_rate(double lr) { config_.lr = lr; }
  double learning_rate() const { return config_.lr; }

 private:
  std::vector<ParamRef> params_;
  AdamConfig config_;
  std::vector<Vec> m_, v_;
  long t_ = 0;
  // Bias corrections of the current step, as reciprocals.
  double inv_bc1_ = 0.0, inv_bc2_ = 0.0;
};

}  // namespace maopt::nn
