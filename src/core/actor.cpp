#include "core/actor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace maopt::core {

Actor::Actor(std::size_t dim, const ActorConfig& config, Rng& rng)
    : dim_(dim),
      config_(config),
      mlp_(dim, config.hidden, dim, rng, nn::Activation::Relu, /*output_tanh=*/true),
      adam_(mlp_.params(), {.lr = config.learning_rate}) {}

double Actor::train_round(Surrogate& critic, const FomEvaluator& fom,
                          const std::vector<SimRecord>& records, const nn::RangeScaler& scaler,
                          const Vec& elite_lb_unit, const Vec& elite_ub_unit, Rng& rng) {
  if (records.empty()) throw std::invalid_argument("Actor::train_round: empty population");
  const std::size_t nb = config_.batch_size;
  double total_loss = 0.0;

  states_.ensure_shape(nb, dim_);
  critic_in_.ensure_shape(nb, 2 * dim_);
  violation_.resize(dim_);
  violation_sign_.resize(dim_);
  for (int step = 0; step < config_.steps_per_round; ++step) {
    for (std::size_t k = 0; k < nb; ++k) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(records.size()) - 1));
      scaler.to_unit_into(records[idx].x, states_.row(k));
    }

    // A view of the actor's forward workspace: it stays valid (and states_
    // stays borrowed) until backward_params below.
    const nn::Mat& actions = mlp_.forward(states_);

    for (std::size_t k = 0; k < nb; ++k)
      for (std::size_t c = 0; c < dim_; ++c) {
        critic_in_(k, c) = states_(k, c);
        critic_in_(k, dim_ + c) = actions(k, c);
      }
    critic.predict(critic_in_, raw_);

    // dL/d(raw metrics) from the FoM, averaged over the batch.
    d_raw_.ensure_shape(nb, raw_.cols());
    fom_grad_.resize(raw_.cols());
    double batch_loss = 0.0;
    for (std::size_t k = 0; k < nb; ++k) {
      batch_loss += fom(raw_.row(k));
      fom.gradient(raw_.row(k), fom_grad_);
      for (std::size_t c = 0; c < raw_.cols(); ++c)
        d_raw_(k, c) = fom_grad_[c] / static_cast<double>(nb);
    }
    critic.action_gradient(d_raw_, d_action_);

    // Boundary violation against the elite bounding box (Eq. 6), unit space.
    for (std::size_t k = 0; k < nb; ++k) {
      Vec& v = violation_;
      Vec& sign = violation_sign_;
      std::fill(v.begin(), v.end(), 0.0);
      std::fill(sign.begin(), sign.end(), 0.0);
      double norm = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double xn = states_(k, c) + actions(k, c);
        if (xn < elite_lb_unit[c]) {
          v[c] = elite_lb_unit[c] - xn;
          sign[c] = -1.0;
        } else if (xn > elite_ub_unit[c]) {
          v[c] = xn - elite_ub_unit[c];
          sign[c] = 1.0;
        }
        norm += v[c] * v[c];
      }
      norm = std::sqrt(norm);
      batch_loss += config_.lambda * norm;
      if (norm > 1e-12) {
        for (std::size_t c = 0; c < dim_; ++c)
          d_action_(k, c) += config_.lambda * sign[c] * v[c] / norm / static_cast<double>(nb);
      }
    }

    mlp_.backward_params(d_action_);
    adam_.step();
    total_loss += batch_loss / static_cast<double>(nb);
  }
  return total_loss / std::max(1, config_.steps_per_round);
}

Vec Actor::propose_unit(const Vec& x_unit) {
  nn::Mat in(1, dim_);
  for (std::size_t c = 0; c < dim_; ++c) in(0, c) = x_unit[c];
  const nn::Mat out = mlp_.forward(in);
  return Vec(out.row(0).begin(), out.row(0).end());
}

Vec Actor::select_candidate_unit(Surrogate& critic, const FomEvaluator& fom,
                                 const std::vector<EliteSet::Entry>& elites,
                                 const nn::RangeScaler& scaler) {
  if (elites.empty()) throw std::invalid_argument("Actor::select_candidate_unit: empty elite set");
  const std::size_t n = elites.size();
  nn::Mat states(n, dim_);
  for (std::size_t k = 0; k < n; ++k) {
    const Vec u = scaler.to_unit(elites[k].x);
    for (std::size_t c = 0; c < dim_; ++c) states(k, c) = u[c];
  }
  const nn::Mat actions = mlp_.forward(states);
  nn::Mat critic_in(n, 2 * dim_);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t c = 0; c < dim_; ++c) {
      critic_in(k, c) = states(k, c);
      critic_in(k, dim_ + c) = actions(k, c);
    }
  const nn::Mat raw = critic.predict(critic_in);
  std::size_t best = 0;
  double best_g = 1e300;
  for (std::size_t k = 0; k < n; ++k) {
    const double g = fom(raw.row(k));
    if (g < best_g) {
      best_g = g;
      best = k;
    }
  }
  Vec proposal(dim_);
  for (std::size_t c = 0; c < dim_; ++c) proposal[c] = states(best, c) + actions(best, c);
  return proposal;
}

}  // namespace maopt::core
